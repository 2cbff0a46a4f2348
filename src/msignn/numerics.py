"""Dense and sparse linear-algebra kernels used by every other module.

What is here: coercion and validation (``as_dense``, ``as_csr``,
``set_integers``), the dense-times-CSR product ``spmm_right``,
``softmax_scales``, the model's softmax over the leading (scale) axis of
a (k, n) array, ``reused`` and ``release``, the per-thread working
arrays of the solves and the backward, and ``read_only``, which freezes
arrays that results share. Plain numpy calls (norms included) are used
directly everywhere else.

Dense matrices are 2-D float64 C-order ndarrays; sparse matrices are
scipy CSR arrays in canonical form (sorted column indices, no duplicates,
no stored zeros). Everything here but ``set_integers``, which a frozen
settings dataclass calls on itself while it is made, ``reused``,
``release`` and ``read_only`` is a pure function: inputs are never mutated, so values can be shared freely
across threads.

``as_csr`` is the one place a sparse matrix from outside the library is
coerced, validated and canonicalized. ``graph.build_graph``, which the
generators and loaders go through, calls it where outside input enters;
matrices the library derives from validated ones (batches, the operators
of the solves) are never re-validated. The structure of a compressed
(CSR, CSC or BSR) input is checked here, by a few numpy reductions over
its index arrays, not by scipy's ``check_format``: the check enforces
what scipy's full check does, at under half its cost on small graphs and
without its copies, and also rejects a decreasing ``indptr`` that
scipy's check lets through when it ends at 0. An input that passes and is
already a canonical float64 CSR array with no stored zeros is returned
as it is, not wrapped in a second scipy array; it is still never
mutated. ``as_dense`` and ``as_csr`` reject a complex input rather than
drop its imaginary part.
"""

from __future__ import annotations

import numbers
import threading

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError

# Holds ``reused``'s arrays, one per slot. Their contents never outlive the
# call that wrote them, so one caller cannot see another's values through them.
_thread = threading.local()

__all__ = [
    "as_dense",
    "as_csr",
    "set_integers",
    "reused",
    "release",
    "read_only",
    "spmm_right",
    "softmax_scales",
]


def as_dense(a) -> np.ndarray:
    """Coerce to a 2-D float64 array; reject complex and non-finite entries."""
    out = np.asarray(a)
    if out.dtype.kind == "c":
        raise ValueError(f"dense matrix entries must be real, got dtype {out.dtype}")
    out = out.astype(np.float64, copy=False)
    if out.ndim != 2:
        raise ShapeError(f"expected a 2-D dense matrix, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return out


def as_csr(a) -> sp.csr_array:
    """Coerce to a validated canonical float64 CSR array with no stored zeros.

    The input must be 2-D and real. A CSR, CSC or BSR input's compressed
    structure is checked by ``_check_compressed`` and a COO input's
    coordinates are bounded, before scipy converts or canonicalizes it: its
    compiled routines assume a monotone ``indptr`` and in-range indices.
    A ``csr_array`` of float64 that scipy records as canonical
    (``has_canonical_format``), with no stored zeros and no entries past
    ``indptr[-1]``, is returned itself; any other input gets a new array,
    a private canonical copy where scipy's conversion is not canonical.
    ``a`` is never mutated.
    """
    if not sp.issparse(a):
        a = sp.csr_array(a)  # a (data, indices, indptr) tuple is checked below
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D sparse matrix, got ndim={a.ndim}")
    try:
        if a.format in ("csr", "csc", "bsr"):
            _check_compressed(a)
        elif a.format == "coo":
            for axis, (index, size) in enumerate(zip(a.coords, a.shape)):
                if a.nnz and not 0 <= index.min() <= index.max() < size:
                    raise ValueError(f"axis {axis} index outside [0, {size})")
    except ValueError as exc:
        raise ShapeError(f"corrupt {a.format.upper()}: {exc}") from None
    if a.dtype.kind == "c":
        raise ValueError(f"sparse matrix values must be real, got dtype {a.dtype}")
    # A float64 CSR array with no entries past indptr[-1] is already what
    # csr_array(a, dtype=np.float64) would make of it: a view of a's arrays.
    kept = type(a) is sp.csr_array and a.dtype == np.float64 and a.data.size == a.nnz
    out = a if kept else sp.csr_array(a, dtype=np.float64)
    if not out.has_canonical_format or not out.data.all():
        # out may be a or share its arrays; canonicalize a private copy.
        out = out.copy()
        out.sum_duplicates()
        out.eliminate_zeros()
    if not np.isfinite(out.data).all():
        raise ValueError("CSR values contain NaN or Inf")
    return out


def _check_compressed(a) -> None:
    """Raise ``ValueError`` unless a 2-D CSR, CSC or BSR array's structure is sound.

    These are the checks of scipy's ``check_format(full_check=True)``
    without its dtype scan, casts and copies. The index arrays are 1-D
    (BSR data 3-D, other data 1-D); ``indptr`` has one entry per major
    line plus one (rows of CSR, columns of CSC, block rows of BSR), starts
    at 0 and does not decrease; ``indices`` and ``data`` have one entry per
    stored value (block, for BSR), at least ``indptr[-1]`` of them; and the
    first ``indptr[-1]`` indices, those in use, lie in ``[0, minor)``. The
    ``indptr`` order is checked by comparison, not by ``np.diff``, which
    can wrap around, and also when ``indptr[-1]`` is 0, which scipy's
    check skips. The indices in use are bounded by one ``max`` over an
    unsigned view of the same width, in which a negative signed index reads
    as at least 2**(bits - 1), above every non-negative one.
    """
    indptr, indices, data = a.indptr, a.indices, a.data
    major, minor = a.shape if a.format != "csc" else a.shape[::-1]
    if a.format == "bsr":
        if data.ndim != 3:
            raise ValueError("data should be 3-D")
        major, minor = major // data.shape[1], minor // data.shape[2]
    elif data.ndim != 1:
        raise ValueError("data, indices, and indptr should be 1-D")
    if indices.ndim != 1 or indptr.ndim != 1:
        raise ValueError("indices and indptr should be 1-D")
    if len(indptr) != major + 1:
        raise ValueError(f"index pointer size {len(indptr)} should be {major + 1}")
    if indptr[0] != 0:
        raise ValueError("index pointer should start with 0")
    if len(indices) != len(data):
        raise ValueError("indices and data should have the same size")
    nnz = int(indptr[-1])
    if nnz > len(indices):
        raise ValueError("last value of index pointer should be at most "
                         "the size of index and data arrays")
    if (indptr[1:] < indptr[:-1]).any():
        raise ValueError("index pointer must be a non-decreasing sequence")
    # Read unsigned, an index in range is below both, and a negative one is not.
    above = min(minor, 2 ** (8 * indices.itemsize - (indices.dtype.kind == "i")))
    if nnz and indices[:nnz].view(f"u{indices.itemsize}").max() >= above:
        raise ValueError(f"indices must lie in [0, {minor})")


def set_integers(settings, *names: str) -> None:
    """Require each named field of a frozen dataclass to be an integer, not a
    bool, and store it as an int.

    numpy integers pass, so a value drawn with numpy is stored as the JSON
    number a checkpoint or a dataset's spec records. The error is a
    ``ValueError`` naming the first bad field.
    """
    for name in names:
        value = getattr(settings, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(settings, name, int(value))


def reused(slot: str, shape: tuple[int, ...], count: int = 1) -> tuple[np.ndarray, ...]:
    """``count`` uninitialized C-ordered float64 arrays of ``shape``, private
    to the calling thread and to ``slot``.

    They are the same arrays on the thread's next call with the same slot,
    shape and count; only the last shape and count of each slot are kept.
    So the pages of a working array are not handed back to the system and
    faulted in again between the steps of a training run. Whoever fills
    one must not let it outlive the call that filled it.
    """
    pool = vars(_thread).setdefault("pool", {})
    arrays = pool.get(slot)
    if arrays is None or len(arrays) != count or arrays[0].shape != shape:
        pool[slot] = None  # the old arrays go before the new ones are made
        arrays = pool[slot] = tuple(np.empty(shape) for _ in range(count))
    return arrays


def release(slot: str) -> None:
    """Drop the calling thread's arrays of ``slot``, if it holds any."""
    vars(_thread).get("pool", {}).pop(slot, None)


def read_only(*arrays: np.ndarray) -> None:
    """Make each array read-only, so that no caller can change in place what
    a cached result, such as S, its spectrum or g(F)'s eigenbasis, shares."""
    for a in arrays:
        a.flags.writeable = False


def spmm_right(z: np.ndarray, s: sp.csr_array) -> np.ndarray:
    """Dense-times-CSR product Z*S.

    No library code calls it: ``z @ s`` is the same product. It stays only
    while the benchmark's tracer patches it by name.
    """
    if z.shape[1] != s.shape[0]:
        raise ShapeError(f"spmm_right: inner dimensions differ, {z.shape} x {s.shape}")
    return np.asarray(z @ s)


def softmax_scales(m: np.ndarray) -> np.ndarray:
    """Softmax over axis 0 of a (k, n) array, max-subtracted for overflow safety.

    Each column, one node's k scale logits, maps to weights that sum to 1.
    The reductions run along the rows, n entries at a time, and add the k
    rows in order.
    """
    shifted = m - m.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)
