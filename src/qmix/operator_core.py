"""Dense complex-matrix primitives shared by every higher-level module.

Everything here works on plain numpy arrays: square complex matrices of
shape (d, d) for operators, and (d*d, d*d) matrices for superoperators
acting on column-vectorized operators.  The vectorization convention is
column stacking, so vec(A X B) = kron(B.T, A) @ vec(X).  Only `vec` and
`unvec` (of a matrix or a stack), `left_right_super` (its broadcast outer
product gives the bits of kron(B.T, A)) and the Choi reshuffle of
`choi_from_super` know this layout; a dedicated test asserts it.  The
Hermitian parametrization of the log-Sobolev and (p, q)-norm searches,
the real trace and the complex Gaussian draw live here too.

Every kernel that returns a Hermitian matrix ends in `hermitian_part`, whose
output is exactly Hermitian and is its own `hermitian_part` bit for bit, so
the library decomposes its own matrices with `np.linalg.eigh` directly;
only the public entry points (`eig_hermitian`, `matrix_function`) check and
symmetrize what a caller passes.  A matrix a search builds (a point on a
line or a spike of the LS search) is symmetrized only where its
eigenvectors are used.
"""

from __future__ import annotations

import copy
import dataclasses
import functools

import numpy as np
import scipy.linalg

from ._blas import blas_threads_for

__all__ = [
    "HERMITICITY_TOL",
    "DEFAULT_EIG_FLOOR_REL",
    "as_matrix",
    "hermitian_part",
    "require_hermitian",
    "max_abs",
    "eig_hermitian",
    "matrix_function",
    "vec",
    "unvec",
    "left_right_super",
    "kraus_schrodinger_super",
    "expm_superop",
    "choi_from_super",
    "random_hermitian",
    "random_psd",
    "random_density_matrix",
    "haar_unitary",
    "random_pure_state",
    "matrix_to_json",
    "matrix_from_json",
    "report_dict",
]

HERMITICITY_TOL = 1e-12
DEFAULT_EIG_FLOOR_REL = 1e-14
STACK_ENTRIES = 2 ** 16  # complex entries (1 MiB) in a stacked temporary of a chunked kernel
H_CLIP = 40.0  # `_expm_hermitian` clips the spectrum of h to [-H_CLIP, H_CLIP]


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix and reject NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def max_abs(a) -> float:
    return float(np.abs(a).max()) if np.size(a) else 0.0


def hermitian_part(a) -> np.ndarray:
    """(A + A^dag)/2 of a matrix, or of each matrix in an (..., d, d) stack.

    The real and imaginary parts are halved as reals: a complex 0.5 adds
    0 times the other part, which turns some -0 into +0, so its result
    would not be its own `hermitian_part` in the signs of zeros."""
    a = np.asarray(a, dtype=complex)
    h = np.add(a, a.conj().swapaxes(-1, -2), order="C")
    parts = h.view(float)
    parts *= 0.5
    return h


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity to a relative tolerance and return the exactly
    symmetrized matrix (A + A^dag)/2."""
    m = as_matrix(a)
    scale = max(max_abs(m), 1e-300)
    dev = max_abs(m - m.conj().T)
    if dev > HERMITICITY_TOL * scale:
        raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e} "
                         f"exceeds {HERMITICITY_TOL:.1e} * {scale:.3e}")
    return hermitian_part(m)


def eig_hermitian(a):
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, V) with eigenvalues w real and ascending and V unitary so
    that a = V @ diag(w) @ V^dag.
    """
    return np.linalg.eigh(require_hermitian(a))


def matrix_function(a, f, eig_floor: float | None = None):
    """Apply the scalar function f to a Hermitian matrix through its
    eigendecomposition: V diag(f(clamp(w))) V^dag.

    f is called once, on the array of clamped eigenvalues, so it must accept
    an array.  On CPUs where numpy vectorizes `w ** s`, that array power can
    differ in the last bit from the scalar one; np.float_power(w, s) matches
    the scalar result.

    Eigenvalues are clamped from below at eig_floor before applying f; by
    default the floor is DEFAULT_EIG_FLOOR_REL * max(w, 0), which protects
    logs and negative powers of numerically rank-deficient inputs.  Raises
    if f produces non-finite values on the clamped spectrum.  The input is
    validated here; library kernels holding a matrix they built call
    `_matrix_function` and skip the check.
    """
    return _matrix_function(require_hermitian(a), f, eig_floor)


def _matrix_function(m, f, eig_floor: float | None = None):
    return _eig_function(*np.linalg.eigh(m), f, eig_floor)


def _eig_function(w, v, f, eig_floor: float | None = None):
    """matrix_function from an eigendecomposition (w, v), of one matrix or of
    an (n, d, d) stack, each matrix clamped at its own default floor."""
    if eig_floor is None:
        eig_floor = DEFAULT_EIG_FLOOR_REL * np.maximum(w[..., -1:], 0.0)
    w = np.maximum(w, eig_floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        fw = np.asarray(f(w), dtype=float)
    if not np.isfinite(fw).all():
        raise ValueError("matrix_function: f is non-finite on the (clamped) spectrum")
    return hermitian_part((v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2))


def _re_trace(x):
    """Re tr x as a float, or the array of them over an (n, d, d) stack."""
    tr = x.trace(axis1=-2, axis2=-1).real
    return float(tr) if tr.ndim == 0 else tr


# ---------------------------------------------------------------------------
# Hermitian parametrization: f = exp(h), h packed into d^2 real coordinates
# ---------------------------------------------------------------------------

@functools.cache
def _layout(d: int):
    """Strict-upper-triangle indices, diagonal indices and identity at d."""
    return np.triu_indices(d, 1), np.diag_indices(d), np.eye(d)


def _pack(h: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian h: the diagonal, then (Re, Im) of the
    strict upper triangle in row-major order."""
    d = h.shape[0]
    upper = h[_layout(d)[0]]
    out = np.empty(d * d)
    out[:d] = np.diag(h).real
    out[d::2] = upper.real
    out[d + 1::2] = upper.imag
    return out


def _unpack(x: np.ndarray, d: int) -> np.ndarray:
    """The traceless Hermitian h of `_pack` coordinates x, or the (n, d, d)
    stack of them from an (n, d^2) array."""
    (rows, cols), (dr, dc), eye = _layout(d)
    x = np.asarray(x)
    re, im = x[..., d::2], x[..., d + 1::2]
    h = np.zeros(x.shape[:-1] + (d, d), dtype=complex)
    h[..., dr, dc] = x[..., :d]
    h[..., rows, cols] = re + 1j * im
    h[..., cols, rows] = re - 1j * im
    h -= np.multiply.outer(_re_trace(h) / d, eye)  # ratio is scale invariant; pin tr h = 0
    return h


def _expm_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(h) with h's spectrum clipped to [-H_CLIP, H_CLIP], of a Hermitian h
    (`_unpack` output) or of each matrix of a stack of them."""
    w, v = np.linalg.eigh(h)
    fw = np.exp(np.clip(w, -H_CLIP, H_CLIP))
    if not np.isfinite(fw).all():  # a NaN eigenvalue; the clip keeps the rest finite
        raise ValueError("_expm_hermitian: h has a non-finite eigenvalue")
    return hermitian_part((v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# Vectorization and superoperators (column-stacking convention)
# ---------------------------------------------------------------------------

def vec(x) -> np.ndarray:
    """Column-stacking vectorization, (..., d, d) -> (..., d^2): of a matrix
    or of each matrix in a stack (an empty one included)."""
    x = np.asarray(x, dtype=complex)
    return x.swapaxes(-1, -2).reshape(x.shape[:-2] + (x.shape[-1] * x.shape[-2],))


def unvec(v, d: int | None = None) -> np.ndarray:
    """The inverse of `vec`, (..., d^2) -> (..., d, d), as a view when it can."""
    v = np.asarray(v, dtype=complex)
    if d is None:
        d = int(round(np.sqrt(v.shape[-1])))
    if d * d != v.shape[-1]:
        raise ValueError(f"cannot unvec length-{v.shape[-1]} vector into {d}x{d}")
    return v.reshape(v.shape[:-1] + (d, d)).swapaxes(-1, -2)


def left_right_super(a, b) -> np.ndarray:
    """Superoperator matrix of X -> A X B, i.e. kron(B.T, A): entry
    ((i, k), (j, l)) is B[j, i] A[k, l], one product each, as in np.kron."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError("left/right factors must share the dimension")
    d = a.shape[0]
    return (b.T[:, None, :, None] * a[None, :, None, :]).reshape(d * d, d * d)


def kraus_schrodinger_super(ops) -> np.ndarray:
    """Superoperator of rho -> sum_i K_i rho K_i^dag."""
    ops = [as_matrix(k) for k in ops]
    d = ops[0].shape[0]
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in ops:
        s += left_right_super(k, k.conj().T)
    return s


def expm_superop(s, t: float) -> np.ndarray:
    """exp(t*S) of a superoperator matrix via scipy's scaling-and-squaring
    Pade expm (generic Liouvillians are non-normal, so no eigendecomposition)."""
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    s = np.asarray(s, dtype=complex)
    with blas_threads_for(s.shape[0]):
        return scipy.linalg.expm(t * s)


def choi_from_super(s, d: int) -> np.ndarray:
    """Choi matrix J = sum_kl |k><l| (x) Phi(|k><l|) of a superoperator in
    the column-stacking convention: J[(k,i),(l,j)] = S[(i,j),(k,l)].

    With column stacking, S.reshape(d,d,d,d) carries axes (j, i, l, k), so
    the Choi reshuffle is the (3,1,2,0) transpose."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (d * d, d * d):
        raise ValueError("superoperator shape mismatch")
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


# ---------------------------------------------------------------------------
# Random ensembles (always seeded through an explicit Generator)
# ---------------------------------------------------------------------------

def _ginibre(shape, rng) -> np.ndarray:
    """Complex Gaussian entries; the real parts are drawn first."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(d: int, rng, scale: float = 1.0) -> np.ndarray:
    return hermitian_part(_ginibre((d, d), rng)) * scale


def random_psd(d: int, rng) -> np.ndarray:
    a = _ginibre((d, d), rng)
    return hermitian_part(a @ a.conj().T)


def random_density_matrix(d: int, rng) -> np.ndarray:
    """A full-rank random state: random_psd + 0.05 d 1, normalized."""
    rho = random_psd(d, rng) + 0.05 * d * np.eye(d)
    return rho / _re_trace(rho)


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fix."""
    z = _ginibre((d, d), rng) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_pure_state(d: int, rng) -> np.ndarray:
    psi = _ginibre(d, rng)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


# ---------------------------------------------------------------------------
# JSON serialization: nested arrays of [re, im] pairs, row-major; reports
# ---------------------------------------------------------------------------

def matrix_to_json(a) -> list:
    m = as_matrix(a)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    """The matrix of a d x d JSON array of [re, im] number pairs; a string,
    boolean or null entry is refused."""
    arr = np.asarray(data)
    if arr.dtype.kind not in "iuf":
        raise ValueError("matrix JSON entries must be numbers")
    arr = arr.astype(float)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ValueError("matrix JSON must be a d x d array of [re, im] pairs")
    return as_matrix(arr[..., 0] + 1j * arr[..., 1])


def report_dict(obj) -> dict:
    """The JSON view of a report dataclass: each field that is not an ndarray,
    in field order, shallow-copied.  Report classes bind it as `to_dict`, so
    a new field reaches the JSON with no second edit."""
    values = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return {name: copy.copy(v) for name, v in values if not isinstance(v, np.ndarray)}
