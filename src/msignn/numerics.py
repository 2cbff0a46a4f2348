"""Dense and sparse linear-algebra kernels used by every other module.

What is here: coercion and validation (``as_dense``, ``as_csr``), the
dense-times-CSR product ``spmm_right`` and ``softmax_rows``. Plain numpy
calls (norms included) are used directly everywhere else.

Dense matrices are 2-D float64 C-order ndarrays; sparse matrices are
scipy CSR arrays in canonical form (sorted column indices, no duplicates,
no stored zeros). Everything here is a pure function: inputs are never
mutated, so values can be shared freely across threads.

``as_csr`` is the one place a sparse matrix from outside the library is
coerced, validated and canonicalized. ``graph.build_graph``, which the
generators and loaders go through, calls it where outside input enters;
matrices the library derives from validated ones (batches, the operators
of the solves) are never re-validated.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError

__all__ = [
    "as_dense",
    "as_csr",
    "spmm_right",
    "softmax_rows",
]


def as_dense(a) -> np.ndarray:
    """Coerce to a 2-D float64 array; reject non-finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix contains NaN or Inf entries")
    return out


def as_csr(a) -> sp.csr_array:
    """Coerce to a validated canonical float64 CSR array with no stored zeros.

    A CSR, CSC, BSR or COO input's structure is checked before scipy
    converts or canonicalizes it: its compiled routines assume a monotone
    ``indptr`` and in-range indices. ``a`` is never mutated.
    """
    if not sp.issparse(a):
        a = sp.csr_array(a)  # a (data, indices, indptr) tuple is checked below
    try:
        if a.format in ("csr", "csc", "bsr"):
            copy.copy(a).check_format(full_check=True)  # rebinds the copy's arrays only
        elif a.format == "coo":
            for axis, (index, size) in enumerate(zip(a.coords, a.shape)):
                if a.nnz and not 0 <= index.min() <= index.max() < size:
                    raise ValueError(f"axis {axis} index outside [0, {size})")
    except ValueError as exc:
        raise ShapeError(f"corrupt {a.format.upper()}: {exc}") from None
    out = sp.csr_array(a, dtype=np.float64)
    if not out.has_canonical_format or not out.data.all():
        # csr_array(a) may share a's arrays; canonicalize a private copy.
        out = out.copy()
        out.sum_duplicates()
        out.eliminate_zeros()
    if not np.all(np.isfinite(out.data)):
        raise ValueError("CSR values contain NaN or Inf")
    return out


def spmm_right(z: np.ndarray, s: sp.csr_array) -> np.ndarray:
    """Dense-times-CSR product Z*S.

    No library code calls it: ``z @ s`` is the same product. It stays only
    while the benchmark's tracer patches it by name.
    """
    if z.shape[1] != s.shape[0]:
        raise ShapeError(f"spmm_right: inner dimensions differ, {z.shape} x {s.shape}")
    return np.asarray(z @ s)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax, max-subtracted for overflow safety."""
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)
