"""Dense complex-matrix primitives shared by every higher-level module.

Everything here works on plain numpy arrays: square complex matrices of
shape (d, d) for operators, and (d*d, d*d) matrices for superoperators
acting on column-vectorized operators.  The vectorization convention is
column stacking, so vec(A X B) = kron(B.T, A) @ vec(X); it is fixed once
here and asserted by a dedicated test because every superoperator built
downstream depends on it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

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
    "conjugation_super",
    "kraus_schrodinger_super",
    "lindblad_super",
    "expm_superop",
    "choi_from_super",
    "random_hermitian",
    "random_psd",
    "random_density_matrix",
    "haar_unitary",
    "random_pure_state",
    "matrix_to_json",
    "matrix_from_json",
]

HERMITICITY_TOL = 1e-12
DEFAULT_EIG_FLOOR_REL = 1e-14


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
    """(A + A^dag)/2 of a matrix, or of each matrix in an (..., d, d) stack."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def require_hermitian(a, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity to a relative tolerance and return the exactly
    symmetrized matrix (A + A^dag)/2."""
    m = as_matrix(a)
    scale = max(max_abs(m), 1e-300)
    dev = max_abs(m - m.conj().T)
    if dev > tol * scale:
        raise ValueError(f"{name} is not Hermitian: max deviation {dev:.3e} "
                         f"exceeds {tol:.1e} * {scale:.3e}")
    return hermitian_part(m)


def eig_hermitian(a):
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, V) with eigenvalues w real and ascending and V unitary so
    that a = V @ diag(w) @ V^dag.
    """
    return np.linalg.eigh(require_hermitian(a))


def _eigh(m):
    """eig_hermitian without the checks, for a matrix the library built."""
    return np.linalg.eigh(hermitian_part(m))


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
    w, v = _eigh(m)
    if eig_floor is None:
        eig_floor = DEFAULT_EIG_FLOOR_REL * max(float(w[-1]), 0.0)
    w = np.maximum(w, eig_floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        fw = np.asarray(f(w), dtype=float)
    if not np.all(np.isfinite(fw)):
        raise ValueError("matrix_function: f is non-finite on the (clamped) spectrum")
    return hermitian_part((v * fw) @ v.conj().T)


# ---------------------------------------------------------------------------
# Vectorization and superoperators (column-stacking convention)
# ---------------------------------------------------------------------------

def vec(x) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec(v, d: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if d is None:
        d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"cannot unvec length-{v.size} vector into {d}x{d}")
    return v.reshape(d, d, order="F")


def left_right_super(a, b) -> np.ndarray:
    """Superoperator matrix of X -> A X B, i.e. kron(B.T, A)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError("left/right factors must share the dimension")
    return np.kron(b.T, a)


def conjugation_super(a) -> np.ndarray:
    """Superoperator of X -> A X A^dag."""
    a = as_matrix(a)
    return np.kron(a.conj(), a)


def kraus_schrodinger_super(ops) -> np.ndarray:
    """Superoperator of rho -> sum_i K_i rho K_i^dag."""
    ops = [as_matrix(k) for k in ops]
    d = ops[0].shape[0]
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in ops:
        s += conjugation_super(k)
    return s


def lindblad_super(hamiltonian, ops):
    """Superoperator matrices (heisenberg, schrodinger) of the Lindblad
    generator L(f) = i[H, f] + sum_i L_i^dag f L_i - (1/2){L_i^dag L_i, f}."""
    if hamiltonian is None:
        d = as_matrix(ops[0]).shape[0]
        h = np.zeros((d, d), dtype=complex)
    else:
        h = require_hermitian(hamiltonian, name="hamiltonian")
        d = h.shape[0]
    eye = np.eye(d)
    heis = 1j * (left_right_super(h, eye) - left_right_super(eye, h))
    for k in ops:
        k = as_matrix(k)
        if k.shape[0] != d:
            raise ValueError("Lindblad operator dimension mismatch")
        kk = k.conj().T @ k
        heis += left_right_super(k.conj().T, k)
        heis -= 0.5 * (left_right_super(kk, eye) + left_right_super(eye, kk))
    schro = heis.conj().T
    return heis, schro


def expm_superop(s, t: float) -> np.ndarray:
    """exp(t*S) of a superoperator matrix via scipy's scaling-and-squaring
    Pade expm (generic Liouvillians are non-normal, so no eigendecomposition)."""
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    return scipy.linalg.expm(t * np.asarray(s, dtype=complex))


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

def random_hermitian(d: int, rng, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return hermitian_part(a) * scale


def random_psd(d: int, rng, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return hermitian_part(a @ a.conj().T) * scale


def random_density_matrix(d: int, rng, full_rank: bool = True) -> np.ndarray:
    rho = random_psd(d, rng)
    if full_rank:
        rho = rho + 0.05 * d * np.eye(d)
    return rho / np.trace(rho).real


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_pure_state(d: int, rng) -> np.ndarray:
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


# ---------------------------------------------------------------------------
# JSON serialization: nested arrays of [re, im] pairs, row-major
# ---------------------------------------------------------------------------

def matrix_to_json(a) -> list:
    m = as_matrix(a)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ValueError("matrix JSON must be a d x d array of [re, im] pairs")
    return as_matrix(arr[..., 0] + 1j * arr[..., 1])
