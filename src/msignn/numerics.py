"""Dense and sparse linear-algebra kernels used by every other module.

What is here: coercion and validation (``as_dense``, ``as_csr``,
``check_csr``), the dense-times-CSR product ``spmm_right`` and
``softmax_rows``. Plain numpy calls (norms included) are used directly
everywhere else.

Dense matrices are 2-D float64 C-order ndarrays; sparse matrices are
scipy CSR arrays in canonical form (sorted column indices, no duplicates).
Everything here is a pure function: inputs are never mutated, so values
can be shared freely across threads.

``as_csr`` is the one place a sparse matrix from outside the library is
coerced and validated (``check_csr``). ``graph.build_graph``, which the
generators and loaders go through, calls it where outside input enters;
matrices the library derives from validated ones (batches, the operators
of the solves) are never re-validated.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError

__all__ = [
    "as_dense",
    "as_csr",
    "check_csr",
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
    """Coerce to a validated canonical float64 CSR array; ``a`` is never mutated."""
    out = sp.csr_array(a, dtype=np.float64)
    if not out.has_canonical_format:
        # csr_array(a) may share a's index arrays; canonicalize a private copy.
        out = out.copy()
        out.sum_duplicates()
    check_csr(out)
    return out


def check_csr(s: sp.csr_array) -> None:
    """Validate CSR structural invariants (monotone indptr, sorted in-row indices)."""
    rows, cols = s.shape
    indptr, indices = s.indptr, s.indices
    if len(indptr) != rows + 1 or indptr[0] != 0 or indptr[-1] != s.nnz:
        raise ShapeError("corrupt CSR: indptr does not span the value array")
    if np.any(np.diff(indptr) < 0):
        raise ShapeError("corrupt CSR: indptr not non-decreasing")
    if s.nnz:
        if indices.min() < 0 or indices.max() >= cols:
            raise ShapeError("corrupt CSR: column index out of range")
        # Entry k+1 must exceed entry k unless k+1 opens a new row.
        same_row = np.ones(s.nnz - 1, dtype=bool)
        starts = indptr[1:-1]
        same_row[starts[(starts > 0) & (starts < s.nnz)] - 1] = False
        if np.any(np.diff(indices)[same_row] <= 0):
            raise ShapeError("corrupt CSR: in-row column indices not strictly increasing")
    if not np.all(np.isfinite(s.data)):
        raise ValueError("CSR values contain NaN or Inf")


def spmm_right(z: np.ndarray, s: sp.csr_array) -> np.ndarray:
    """Dense-times-CSR product Z*S.

    scipy evaluates it as (S^T Z^T)^T, building a transposed view of S on
    every call; the solves in ``equilibrium`` avoid that by keeping their
    iterate transposed and building the operator once per solve.
    """
    if z.shape[1] != s.shape[0]:
        raise ShapeError(f"spmm_right: inner dimensions differ, {z.shape} x {s.shape}")
    return np.asarray(z @ s)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax, max-subtracted for overflow safety."""
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)
