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

Checks happen at the public entry points: the WeightedSpace methods validate
the shape and finiteness of their arguments, and the entropy-type ones also
Hermiticity and positivity.  The underscore kernels (`_gamma`, `_inner`, `_log_ratio`, `_ent1`, `_ent2`) and
`_require_positive` trust arrays the library built and skip those checks;
each formula lives in one kernel, which the public method and the fused
log-Sobolev ratio both call.
"""

from __future__ import annotations

import numpy as np

from .operator_core import (
    _eigh,
    _matrix_function,
    as_matrix,
    eig_hermitian,
    hermitian_part,
    left_right_super,
    matrix_function,
    require_hermitian,
)

__all__ = ["WeightedSpace", "PositivityError"]

RANK_TOL = 1e-10
TRACE_TOL = 1e-12
POSITIVITY_REL_TOL = 1e-12
ENT_CLAMP = 1e-8


class PositivityError(ValueError):
    """Raised when an entropy-type functional receives a non positive
    definite input: these functionals require f in A_d^+."""


def _check_positive(f, name: str = "f"):
    return _require_positive(require_hermitian(f), name)


def _require_positive(f, name: str = "f"):
    """The positivity gate of _check_positive on a matrix the library built."""
    w, v = _eigh(f)
    if w[0] <= POSITIVITY_REL_TOL * max(w[-1], 0.0) or w[-1] <= 0:
        raise PositivityError(
            f"{name} requires f in A_d^+ (positive definite): "
            f"min eigenvalue {w[0]:.3e}, max {w[-1]:.3e}")
    return w, v


class WeightedSpace:
    """A full-rank state sigma with cached eigendecomposition.

    Validates that sigma is Hermitian PSD with unit trace and smallest
    eigenvalue above RANK_TOL (Gamma^{-1} amplifies noise by 1/sigma_min,
    and double precision leaves ~6 digits at that floor).
    """

    def __init__(self, sigma, rank_tol: float = RANK_TOL):
        sigma = require_hermitian(sigma, name="sigma")
        tr = float(np.trace(sigma).real)
        if abs(tr - 1.0) > TRACE_TOL * max(1.0, abs(tr)):
            raise ValueError(f"sigma must have unit trace, got {tr!r}")
        w, v = eig_hermitian(sigma)
        if w[0] <= rank_tol:
            raise ValueError(
                f"sigma must be full rank: min eigenvalue {w[0]:.3e} <= {rank_tol:.1e}")
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
        m = self._pow_cache.get(key)
        if m is None:
            m = hermitian_part((self.eigvecs * self.eigvals ** key) @ self.eigvecs.conj().T)
            if len(self._pow_cache) < 64:
                self._pow_cache[key] = m
        return m

    def similarity_super(self, s: float, superop) -> np.ndarray:
        """The sigma^s similarity of a superoperator S, X -> sigma^s S(sigma^-s X
        sigma^-s) sigma^s, multiplied in the order left_right_super(sigma^s,
        sigma^s) @ S @ left_right_super(sigma^-s, sigma^-s).  At s = 1/4 it
        makes a reversible L Hermitian (the gap, the exact 2 -> 2 decay)."""
        left = left_right_super(self.sigma_power(s), self.sigma_power(s))
        right = left_right_super(self.sigma_power(-s), self.sigma_power(-s))
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
        s = self.sigma_power(p / 2.0)
        return hermitian_part(s @ f @ s)

    def gamma(self, f) -> np.ndarray:
        return self.gamma_power(1.0, f)

    def gamma_inv(self, f) -> np.ndarray:
        return self.gamma_power(-1.0, f)

    def lp_norm(self, p: float, f) -> float:
        """||f||_{p,sigma} = tr|sigma^{1/2p} f sigma^{1/2p}|^p ^{1/p}."""
        if p < 1:
            raise ValueError(f"lp_norm requires p >= 1, got {p}")
        x = self.gamma_power(1.0 / p, self._check_dim(f))
        w = np.linalg.eigvalsh(x)
        return float(np.sum(np.abs(w) ** p) ** (1.0 / p))

    def inner(self, f, g) -> float:
        """<f,g>_sigma = tr[Gamma(f) g]; real for Hermitian arguments."""
        return self._inner(self._check_dim(f), self._check_dim(g))

    def _inner(self, f, g) -> float:
        return float(np.trace(self._gamma(1.0, f) @ g).real)

    def variance(self, g) -> float:
        """Var(g) = tr[Gamma(g) g] - tr[Gamma(g)]^2, clamped at zero."""
        g = self._check_dim(g)
        gg = self.gamma(g)
        val = float(np.trace(gg @ g).real) - float(np.trace(gg).real) ** 2
        return max(val, 0.0)

    # -- power operator and entropies -----------------------------------------

    def power_operator(self, p: float, q: float, f) -> np.ndarray:
        """I_{p,q}(f) = Gamma^{-1/p}[ |Gamma^{1/q}(f)|^{q/p} ]."""
        if p < 1 or q < 1:
            raise ValueError("power_operator requires p, q >= 1")
        f = self._check_dim(f)
        x = self.gamma_power(1.0 / q, f)
        t = q / p
        ax = matrix_function(x, lambda w: np.float_power(np.abs(w), t), eig_floor=-np.inf)
        return self.gamma_power(-1.0 / p, ax)

    def op_relative_entropy(self, p: float, f) -> np.ndarray:
        """S_p(f) = Gamma^{-1/p}[X log X] - (1/2p){f, log sigma}, X = Gamma^{1/p}(f).

        Defined only on positive definite f.
        """
        if p < 1:
            raise ValueError("op_relative_entropy requires p >= 1")
        f = self._check_dim(f)
        _check_positive(f, "op_relative_entropy")
        x = self.gamma_power(1.0 / p, f)
        xlogx = matrix_function(x, lambda w: w * np.log(w))
        term1 = self.gamma_power(-1.0 / p, xlogx)
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
        return gf, _matrix_function(gf, np.log) - self._log_sigma

    def _ent1(self, gf, log_ratio) -> float:
        tr_gf = float(np.trace(gf).real)
        val = float(np.trace(gf @ log_ratio).real)
        val -= tr_gf * np.log(tr_gf)
        return self._clamp_ent(val, scale=abs(val) + tr_gf + 1.0)

    def ent2(self, f) -> float:
        """Closed form of Ent_2 via X = Gamma^{1/2}(f)."""
        f = self._check_dim(f)
        _check_positive(f, "ent2")
        return self._ent2(f)

    def _ent2(self, f) -> float:
        x = self._gamma(0.5, f)
        x2 = x @ x
        log_x = _matrix_function(x, np.log)
        n2sq = float(np.trace(x2).real)  # ||f||_{2,sigma}^2
        val = float(np.trace(x2 @ log_x).real)
        val -= 0.5 * float(np.trace(x2 @ self._log_sigma).real)
        val -= 0.5 * n2sq * np.log(n2sq)
        return self._clamp_ent(val, scale=abs(val) + n2sq + 1.0)

    def ent(self, p: float, f) -> float:
        """Ent_p(f) = <I_{q,p}(f), S_p(f)> - ||f||_p^p log ||f||_p, 1/p + 1/q = 1.

        Dispatches to the dedicated closed forms at p = 1 (the Hoelder dual
        q = p/(p-1) blows up there) and p = 2.
        """
        if p < 1:
            raise ValueError(f"ent requires p >= 1, got {p}")
        if abs(p - 1.0) < 1e-6:
            return self.ent1(f)
        if abs(p - 2.0) < 1e-9:
            return self.ent2(f)
        f = self._check_dim(f)
        _check_positive(f, "ent")
        q = p / (p - 1.0)
        iqp = self.power_operator(q, p, f)
        sp = self.op_relative_entropy(p, f)
        norm = self.lp_norm(p, f)
        val = self.inner(iqp, sp) - norm ** p * np.log(norm)
        return self._clamp_ent(val, scale=abs(val) + norm ** p + 1.0)

    @staticmethod
    def _clamp_ent(val: float, scale: float) -> float:
        if val < 0.0:
            if val < -ENT_CLAMP * scale:
                raise ArithmeticError(
                    f"entropy functional came out significantly negative ({val:.3e}); "
                    "numerical breakdown")
            return 0.0
        return val

    # -- derivative identity (property-test hook) ------------------------------

    def norm_derivative_check(self, f, p_path, t0: float, dt: float = 1e-5):
        """Finite-difference check of d/dt ||f||_{p(t)}^{p(t)} = pdot <I_{q,p}(f), S_p(f)>.

        Returns (lhs, rhs): the central difference quotient and the analytic
        right-hand side at t0.  f must be positive definite.
        """
        f = self._check_dim(f)
        _check_positive(f, "norm_derivative_check")

        def npow(t):
            p = p_path(t)
            return self.lp_norm(p, f) ** p

        lhs = (npow(t0 + dt) - npow(t0 - dt)) / (2.0 * dt)
        p = p_path(t0)
        pdot = (p_path(t0 + dt) - p_path(t0 - dt)) / (2.0 * dt)
        if abs(pdot) < 1e-30:
            return lhs, 0.0
        q = p / (p - 1.0) if p > 1.0 + 1e-12 else np.inf
        if not np.isfinite(q):
            raise ValueError("norm_derivative_check needs p(t0) > 1")
        rhs = pdot * self.inner(self.power_operator(q, p, f), self.op_relative_entropy(p, f))
        return lhs, rhs
