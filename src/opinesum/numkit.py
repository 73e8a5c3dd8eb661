"""Dense float64 numeric kernel.

Vectors and matrices are plain numpy arrays; every public operation
validates shapes, keeps NaN/Inf from escaping, and is deterministic
given its inputs (and seed, for the random source). The SPD solve calls
LAPACK's dposv from the library numpy itself links, through ctypes, and
uses the caller's matrix as its workspace: `solve_spd` takes A only as a
writeable Fortran-ordered float64 array and overwrites it with the factor.
"""

import ctypes
import functools
import hashlib

import numpy as np


def as_finite(v, ndims, name):
    """Coerce to a finite float64 array whose ndim is one of `ndims`."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim not in ndims:
        dims = " or ".join(f"{n}-D" for n in ndims)
        raise ValueError(f"{name} must be {dims}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf")
    return arr


def softmax(v):
    """Max-subtracted exp-normalize over the last axis; entries positive,
    each row sums to 1."""
    arr = as_finite(v, (1, 2), "softmax input")
    if arr.shape[-1] == 0:
        raise ValueError("softmax of empty vector")
    # one allocation: the shifted copy is exponentiated and divided in place
    e = arr - arr.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax(v):
    """log(softmax(v)) without the intermediate ratio."""
    arr = as_finite(v, (1,), "log_softmax input")
    if arr.size == 0:
        raise ValueError("log_softmax of empty vector")
    shifted = arr - arr.max()
    return shifted - np.log(np.exp(shifted).sum())


def sigmoid_elem(v, out=None):
    """Elementwise logistic sigmoid, stable on both tails: exp is only ever
    taken of -|x|, and the result is 1 / (1 + e) where x >= 0 and
    e / (1 + e) elsewhere, with e = exp(-|x|). Written to `out` when given,
    which may be v itself."""
    arr = as_finite(v, (1, 2), "sigmoid input")
    positive = arr >= 0.0  # taken before out, which may be arr, is written
    e = np.exp(-np.abs(arr))
    den = 1.0 + e
    np.putmask(e, positive, 1.0)  # the numerator
    return np.divide(e, den, out=out)


SOLVE_BLOCK = 64  # rows per block of the symmetry check and the fallback's solves

_INT_P = ctypes.POINTER(ctypes.c_int64)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
# dposv(uplo, n, nrhs, a, lda, b, ldb, info, len(uplo)) with 64-bit integers
DPOSV_TYPE = ctypes.CFUNCTYPE(
    None, ctypes.c_char_p, _INT_P, _INT_P, _DOUBLE_P, _INT_P, _DOUBLE_P, _INT_P, _INT_P,
    ctypes.c_size_t,
)
# the 64-bit-integer dposv and the thread-count getter and setter of numpy
# >= 2's bundled OpenBLAS (scipy-openblas); other builds (numpy 1.2x wheels,
# MKL, Accelerate) take the fallback solve and keep their own thread count
DPOSV_SYMBOL = "scipy_dposv_64_"
BLAS_GET_THREADS = "scipy_openblas_get_num_threads64_"
BLAS_SET_THREADS = "scipy_openblas_set_num_threads64_"


@functools.cache
def numpy_linalg_library():
    """numpy's own linalg extension as a ctypes library, or None.

    dlsym on it also searches the libraries it links, so numpy's bundled
    OpenBLAS answers there. Opened once, on first use, so importing this
    module costs nothing.
    """
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None


@functools.cache
def lapack_dposv():
    """LAPACK's dposv from the library numpy's own linalg links, or None.
    Resolved once, on the first solve."""
    lib = numpy_linalg_library()
    return DPOSV_TYPE((DPOSV_SYMBOL, lib)) if hasattr(lib, DPOSV_SYMBOL) else None


def set_blas_threads(n):
    """Run numpy's bundled OpenBLAS on n threads from now on. Returns
    False, and changes nothing, where the library exports no thread-count
    getter and setter. A count that is n already is not set again: setting
    it anyway slows the BLAS calls after it."""
    lib = numpy_linalg_library()
    if not (hasattr(lib, BLAS_GET_THREADS) and hasattr(lib, BLAS_SET_THREADS)):
        return False
    if ctypes.CFUNCTYPE(ctypes.c_int)((BLAS_GET_THREADS, lib))() != n:
        ctypes.CFUNCTYPE(None, ctypes.c_int)((BLAS_SET_THREADS, lib))(n)
    return True


def solve_spd(a, b):
    """Solve A x = b for symmetric positive-definite A via Cholesky.

    `a` is the workspace, so no copy of A is made: it must be a writeable,
    Fortran-ordered float64 array, and any other `a` is a ValueError
    (raised after the rank and finiteness checks). One call of LAPACK's
    dposv factors A's lower triangle in place and solves; afterwards that
    triangle of `a` holds the Cholesky factor (or, when the factorization
    fails, part of it). `b` is copied and left as it was. Never forms an
    inverse. Where numpy's LAPACK exports no dposv, factors with
    `np.linalg.cholesky`, which leaves `a` as it was, and substitutes
    forward and back in blocks of SOLVE_BLOCK rows (one matrix-vector
    product and one small dense solve per block). A matrix LAPACK cannot
    factor is a ValueError.
    """
    mat = as_finite(a, (2,), "A")
    rhs = as_finite(b, (1,), "b")
    # as_finite returns `a` itself only for a float64 ndarray
    if mat is not a or not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError(
            "solve_spd: A must be a writeable Fortran-ordered float64 array "
            "(it is overwritten with the factor)"
        )
    n = mat.shape[0]
    if mat.shape[1] != n or rhs.shape[0] != n:
        raise ValueError(f"solve_spd shape mismatch: A {mat.shape}, b {rhs.shape}")
    if n == 0:  # LAPACK needs lda >= 1
        return np.empty(0)
    blocks = [(s, min(s + SOLVE_BLOCK, n)) for s in range(0, n, SOLVE_BLOCK)]
    # max|A| without an |A| temporary
    tol = 1e-10 * max(1.0, float(max(mat.max(), -mat.min())))
    # row block against column block, so the transposed reads stay in cache
    if any(float(np.abs(mat[s:e, s:] - mat[s:, s:e].T).max()) > tol for s, e in blocks):
        raise ValueError("solve_spd: matrix is not symmetric within 1e-10")
    dposv = lapack_dposv()
    if dposv is None:
        return _solve_blocked(mat, rhs, blocks)
    x = np.array(rhs)
    dim, one, info = ctypes.c_int64(n), ctypes.c_int64(1), ctypes.c_int64(0)
    a_p, x_p = mat.ctypes.data_as(_DOUBLE_P), x.ctypes.data_as(_DOUBLE_P)
    dposv(b"L", dim, one, a_p, dim, x_p, dim, info, 1)
    if info.value > 0:
        raise ValueError(
            "solve_spd: matrix is not positive-definite "
            f"(the leading minor of order {info.value} is not positive)"
        )
    if info.value < 0:
        raise RuntimeError(f"solve_spd: dposv rejected argument {-info.value}")
    return x


def _solve_blocked(mat, rhs, blocks):
    """Cholesky by numpy, then blocked forward and back substitution."""
    try:
        lower = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"solve_spd: matrix is not positive-definite ({exc})") from exc
    n = mat.shape[0]
    y = np.empty(n)
    for s, e in blocks:
        y[s:e] = np.linalg.solve(lower[s:e, s:e], rhs[s:e] - lower[s:e, :s] @ y[:s])
    x = np.empty(n)
    for s, e in reversed(blocks):
        x[s:e] = np.linalg.solve(lower[s:e, s:e].T, y[s:e] - lower[e:, s:e].T @ x[e:])
    return x


def derive_seed(seed, *keys):
    """Stable 64-bit sub-seed from a root seed and string-able keys."""
    text = "|".join([str(int(seed))] + [str(k) for k in keys])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SeededRng:
    """Deterministic random source: identical seed, identical draw sequence."""

    def __init__(self, seed):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def random(self):
        """One uniform float in [0, 1)."""
        return float(self._gen.random())

    def uniform(self, low, high, size=None):
        return self._gen.uniform(low, high, size)

    def permutation(self, n):
        return self._gen.permutation(n)


def multinomial_draw(weights, count, rng):
    """Draw `count` distinct indices sequentially, renormalizing after each.

    Weights must be non-negative with positive sum; `count` may not exceed
    the number of positive-weight entries.
    """
    w = as_finite(weights, (1,), "weights").copy()
    if np.any(w < 0):
        raise ValueError("multinomial_draw: negative weight")
    if w.sum() <= 0:
        raise ValueError("multinomial_draw: weights sum to zero")
    count = int(count)
    positive = int(np.count_nonzero(w > 0))
    if count < 0 or count > positive:
        raise ValueError(
            f"multinomial_draw: count {count} exceeds {positive} positive-weight entries"
        )
    out = []
    for _ in range(count):
        cum = np.cumsum(w)
        r = rng.random() * cum[-1]
        i = int(np.searchsorted(cum, r, side="right"))
        i = min(i, w.shape[0] - 1)
        while i > 0 and w[i] == 0.0:  # float roundoff at the right edge
            i -= 1
        out.append(i)
        w[i] = 0.0
    return out
