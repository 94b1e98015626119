"""The sigma-weighted non-commutative L_p space.

A full-rank reference state sigma induces the weighting map
Gamma_sigma^p(f) = sigma^{p/2} f sigma^{p/2}, the weighted norms
||f||_{p,sigma} = tr|Gamma^{1/p}(f)|^p ^{1/p}, the inner product
<f,g> = tr[Gamma(f) g], the variance, the power operator I_{p,q}, the
operator-valued relative entropy S_p and the entropy functionals Ent_p.
All of these are evaluated through one cached eigendecomposition of sigma.

The entropy-type functionals are only defined on positive definite
observables; inputs failing the positivity gate are rejected rather than
clamped, since the functionals are ill-behaved on boundary-rank inputs.

A public WeightedSpace method checks its argument on entry -- shape and
finiteness, and for the entropy-type ones also Hermiticity and positivity --
and hands every intermediate it builds only to kernels (`_gamma`, `_inner`,
`_variance`, `_root_eig`, `_power_operator`, `_op_relative_entropy`, `_lp_norm`,
`_log_ratio`, `_ent1`, `_ent2`, `_require_positive`, `_not_positive`, and
`operator_core._matrix_function` and `_eig_function`), which trust arrays
the library built and check nothing.  Each formula lives in one kernel, which the public method,
the fused log-Sobolev ratio and the Dirichlet forms all call.  `_gamma`,
`_inner`, `_variance`, `_root_eig`, `_power_operator`, `_log_ratio`, `_ent1` and `_ent2`
also take an (n, d, d) stack and give each matrix the arithmetic it gets on
its own.
"""

from __future__ import annotations

import numpy as np

from ._blas import blas_threads_for
from .operator_core import (
    _eig_function,
    _eigh,
    _lru_get,
    _matrix_function,
    _re_trace,
    as_matrix,
    eig_hermitian,
    hermitian_part,
    left_right_super,
    require_hermitian,
)

__all__ = ["WeightedSpace", "PositivityError", "NUMERICAL_FAILURES"]

RANK_TOL = 1e-10
TRACE_TOL = 1e-12
POSITIVITY_REL_TOL = 1e-12
ENT_CLAMP = 1e-8
P1_BRANCH = 1.0 + 1e-6  # Ent_p and E_p take their p = 1 (log) forms below this
P2_WINDOW = 1e-12  # and their p = 2 closed forms at |p - 2| below this


class PositivityError(ValueError):
    """Raised when an entropy-type functional receives a non positive
    definite input: these functionals require f in A_d^+."""


# what the numerics raise on an input they cannot handle; any other error is a bug
NUMERICAL_FAILURES = (PositivityError, ArithmeticError, np.linalg.LinAlgError)


def _check_p(p, name: str):
    if p < 1:
        raise ValueError(f"{name} requires p >= 1, got {p}")


def _check_positive(f, name: str = "f"):
    return _require_positive(require_hermitian(f), name)


def _require_positive(f, name: str = "f"):
    """The positivity gate of _check_positive on a matrix the library built."""
    w, v = _eigh(f)
    if _not_positive(w):
        raise PositivityError(
            f"{name} requires f in A_d^+ (positive definite): "
            f"min eigenvalue {w[0]:.3e}, max {w[-1]:.3e}")
    return w, v


def _not_positive(w):
    """Where the ascending eigenvalues w (along the last axis, of a matrix or
    of each matrix of a stack) fail the positivity gate."""
    return (w[..., 0] <= POSITIVITY_REL_TOL * np.maximum(w[..., -1], 0.0)) | (w[..., -1] <= 0)


class WeightedSpace:
    """A full-rank state sigma with cached eigendecomposition.

    Validates that sigma is Hermitian PSD with unit trace and smallest
    eigenvalue above RANK_TOL (Gamma^{-1} amplifies noise by 1/sigma_min,
    and double precision leaves ~6 digits at that floor).
    """

    def __init__(self, sigma):
        sigma = require_hermitian(sigma, name="sigma")
        tr = _re_trace(sigma)
        if abs(tr - 1.0) > TRACE_TOL * max(1.0, abs(tr)):
            raise ValueError(f"sigma must have unit trace, got {tr!r}")
        w, v = eig_hermitian(sigma)
        if w[0] <= RANK_TOL:
            raise ValueError(
                f"sigma must be full rank: min eigenvalue {w[0]:.3e} <= {RANK_TOL:.1e}")
        self.sigma = sigma
        self.dim = sigma.shape[0]
        self.eigvals = w
        self.eigvecs = v
        self.sigma_min = float(w[0])
        self._pow_cache: dict[float, np.ndarray] = {}
        self._log_sigma = hermitian_part((v * np.log(w)) @ v.conj().T)

    # -- basic sigma functions ------------------------------------------------

    def sigma_power(self, s: float) -> np.ndarray:
        key = float(s)
        return _lru_get(self._pow_cache, key, lambda: self._sigma_power(key))

    def _sigma_power(self, s: float) -> np.ndarray:
        """sigma^s, uncached, for a Python float s; `sigma_power` caches it."""
        return hermitian_part((self.eigvecs * self.eigvals ** s) @ self.eigvecs.conj().T)

    def similarity_super(self, s: float, superop) -> np.ndarray:
        """The sigma^s similarity of a superoperator S, X -> sigma^s S(sigma^-s X
        sigma^-s) sigma^s, multiplied in the order left_right_super(sigma^s,
        sigma^s) @ S @ left_right_super(sigma^-s, sigma^-s).  At s = 1/4 it
        makes a reversible L Hermitian (the gap, the exact 2 -> 2 decay)."""
        left = left_right_super(self.sigma_power(s), self.sigma_power(s))
        right = left_right_super(self.sigma_power(-s), self.sigma_power(-s))
        with blas_threads_for(left.shape[0]):
            return left @ superop @ right

    @property
    def log_sigma(self) -> np.ndarray:
        return self._log_sigma

    def _check_dim(self, f) -> np.ndarray:
        f = as_matrix(f)
        if f.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: {f.shape[0]} != {self.dim}")
        return f

    # -- weighting map, norms, inner product ----------------------------------

    def gamma_power(self, p: float, f) -> np.ndarray:
        """Gamma^p(f) = sigma^{p/2} f sigma^{p/2} (negative p allowed)."""
        f = self._check_dim(f)
        if p == 0:
            return f.copy()
        return self._gamma(p, f)

    def _gamma(self, p: float, f) -> np.ndarray:
        """Gamma^p of a matrix or of each matrix of an (n, d, d) stack."""
        s = self.sigma_power(p / 2.0)
        return hermitian_part(s @ f @ s)

    def gamma(self, f) -> np.ndarray:
        return self.gamma_power(1.0, f)

    def gamma_inv(self, f) -> np.ndarray:
        return self.gamma_power(-1.0, f)

    def lp_norm(self, p: float, f) -> float:
        """||f||_{p,sigma} = tr|sigma^{1/2p} f sigma^{1/2p}|^p ^{1/p}."""
        _check_p(p, "lp_norm")
        return self._lp_norm(p, self._check_dim(f))

    def _lp_norm(self, p: float, f) -> float:
        w = np.linalg.eigvalsh(self._gamma(1.0 / p, f))
        return float(np.sum(np.abs(w) ** p) ** (1.0 / p))

    def inner(self, f, g) -> float:
        """<f,g>_sigma = tr[Gamma(f) g]; real for Hermitian arguments."""
        return self._inner(self._check_dim(f), self._check_dim(g))

    def _inner(self, f, g):
        """<f, g>_sigma, or the array of them over two (n, d, d) stacks."""
        return _re_trace(self._gamma(1.0, f) @ g)

    def variance(self, g) -> float:
        """Var(g) = tr[Gamma(g) g] - tr[Gamma(g)]^2, clamped at zero."""
        return float(self._variance(self._check_dim(g)))

    def _variance(self, f):
        """Var of a matrix, or the array of them over an (n, d, d) stack.  The
        square is float_power's: a float's `** 2` takes libm's pow, which can
        differ in the last bit from numpy's array square."""
        gf = self._gamma(1.0, f)
        val = _re_trace(gf @ f) - np.float_power(_re_trace(gf), 2)
        return np.where(val < 0.0, 0.0, val)

    # -- power operator and entropies -----------------------------------------

    def power_operator(self, p: float, q: float, f) -> np.ndarray:
        """I_{p,q}(f) = Gamma^{-1/p}[ |Gamma^{1/q}(f)|^{q/p} ]."""
        if p < 1 or q < 1:
            raise ValueError("power_operator requires p, q >= 1")
        return self._power_operator(p, q, self._root_eig(q, self._check_dim(f)))

    def _root_eig(self, p: float, f):
        """(w, v) of X = Gamma^{1/p}(f), for a matrix or an (n, d, d) stack: one
        decomposition serves I_{q,p}(f) for every q."""
        return _eigh(self._gamma(1.0 / p, f))

    def _power_operator(self, p: float, q: float, root_eig) -> np.ndarray:
        """I_{p,q}(f) = Gamma^{-1/p}[ |X|^{q/p} ], given root_eig = `_root_eig(q, f)`."""
        t = q / p
        ax = _eig_function(*root_eig, lambda w: np.float_power(np.abs(w), t), eig_floor=-np.inf)
        return self._gamma(-1.0 / p, ax)

    def op_relative_entropy(self, p: float, f) -> np.ndarray:
        """S_p(f) = Gamma^{-1/p}[X log X] - (1/2p){f, log sigma}, X = Gamma^{1/p}(f).

        Defined only on positive definite f.
        """
        if p < 1:
            raise ValueError("op_relative_entropy requires p >= 1")
        f = self._check_dim(f)
        _check_positive(f, "op_relative_entropy")
        return self._op_relative_entropy(p, f)

    def _op_relative_entropy(self, p: float, f) -> np.ndarray:
        xlogx = _matrix_function(self._gamma(1.0 / p, f), lambda w: w * np.log(w))
        term1 = self._gamma(-1.0 / p, xlogx)
        term2 = (f @ self._log_sigma + self._log_sigma @ f) / (2.0 * p)
        return hermitian_part(term1 - term2)

    def ent1(self, f) -> float:
        """Ent_1(f) = tr[Gamma(f)(log Gamma(f) - log sigma)] - tr Gamma(f) log tr Gamma(f)."""
        f = self._check_dim(f)
        _check_positive(f, "ent1")
        return self._ent1(*self._log_ratio(f))

    def _log_ratio(self, f):
        """Gamma(f) and log Gamma(f) - log sigma, shared by Ent_1 and E_1."""
        gf = self._gamma(1.0, f)
        return gf, _eig_function(*np.linalg.eigh(gf), np.log) - self._log_sigma

    def _ent1(self, gf, log_ratio):
        tr_gf = _re_trace(gf)
        val = _re_trace(gf @ log_ratio)
        val -= tr_gf * np.log(tr_gf)
        return self._clamp_ent(val, scale=abs(val) + tr_gf + 1.0)

    def ent2(self, f) -> float:
        """Closed form of Ent_2 via X = Gamma^{1/2}(f)."""
        f = self._check_dim(f)
        _check_positive(f, "ent2")
        return self._ent2(f)

    def _ent2(self, f):
        x = self._gamma(0.5, f)
        x2 = x @ x
        log_x = _eig_function(*np.linalg.eigh(x), np.log)
        n2sq = _re_trace(x2)  # ||f||_{2,sigma}^2
        val = _re_trace(x2 @ log_x)
        val -= 0.5 * _re_trace(x2 @ self._log_sigma)
        val -= 0.5 * n2sq * np.log(n2sq)
        return self._clamp_ent(val, scale=abs(val) + n2sq + 1.0)

    def ent(self, p: float, f) -> float:
        """Ent_p(f) = <I_{q,p}(f), S_p(f)> - ||f||_p^p log ||f||_p, 1/p + 1/q = 1.

        Dispatches to the dedicated closed forms at p = 1 (the Hoelder dual
        q = p/(p-1) blows up there) and p = 2.
        """
        _check_p(p, "ent")
        if p < P1_BRANCH:
            return self.ent1(f)
        if abs(p - 2.0) < P2_WINDOW:
            return self.ent2(f)
        f = self._check_dim(f)
        _check_positive(f, "ent")
        q = p / (p - 1.0)
        iqp = self._power_operator(q, p, self._root_eig(p, f))
        sp = self._op_relative_entropy(p, f)
        norm = self._lp_norm(p, f)
        val = self._inner(iqp, sp) - norm ** p * np.log(norm)
        return self._clamp_ent(val, scale=abs(val) + norm ** p + 1.0)

    @staticmethod
    def _clamp_ent(val, scale):
        """val, or 0 where rounding pushed it below zero; ArithmeticError below
        -ENT_CLAMP * scale.  For arrays (an (n, d, d) stack's entropies) each
        value is judged in order and the judged values come back as a list."""
        if isinstance(val, np.ndarray):
            return [WeightedSpace._clamp_ent(v, s) for v, s in zip(val.tolist(), scale.tolist())]
        if val < 0.0:
            if val < -ENT_CLAMP * scale:
                raise ArithmeticError(
                    f"entropy functional came out significantly negative ({val:.3e}); "
                    "numerical breakdown")
            return 0.0
        return val

    # -- derivative identity (property-test hook) ------------------------------

    def norm_derivative_check(self, f, p_path, t0: float):
        """Finite-difference check of d/dt ||f||_{p(t)}^{p(t)} = pdot <I_{q,p}(f), S_p(f)>.

        Returns (lhs, rhs): the central difference quotient (step 1e-5) and
        the analytic right-hand side at t0.  f must be positive definite.
        """
        dt = 1e-5
        f = self._check_dim(f)
        _check_positive(f, "norm_derivative_check")

        def npow(t):
            p = p_path(t)
            _check_p(p, "lp_norm")
            return self._lp_norm(p, f) ** p

        lhs = (npow(t0 + dt) - npow(t0 - dt)) / (2.0 * dt)
        p = p_path(t0)
        pdot = (p_path(t0 + dt) - p_path(t0 - dt)) / (2.0 * dt)
        if abs(pdot) < 1e-30:
            return lhs, 0.0
        q = p / (p - 1.0) if p > 1.0 + 1e-12 else np.inf
        if not np.isfinite(q):
            raise ValueError("norm_derivative_check needs p(t0) > 1")
        rhs = pdot * self._inner(self._power_operator(q, p, self._root_eig(p, f)),
                                 self._op_relative_entropy(p, f))
        return lhs, rhs
