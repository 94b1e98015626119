"""L_p Dirichlet forms and the spectral gap.

dirichlet(G, p, f) evaluates
    E_p(f) = -p/(2(p-1)) <I_{q,p}(f), L(f)>_sigma,   1/p + 1/q = 1,
with the exact closed forms at p = 2 (E_2(f) = -<f, L(f)>, no prefactor
cancellation) and at p = 1 (the log form, which requires positive f).  The
form acts with the generator it is given: dirichlet(hat_generator(G), p, f)
is the hat variant Ehat_p, with L replaced by the sigma-adjoint Lhat.

The spectral gap is computed spectrally on the sigma-self-adjoint
symmetrization (1/2)(L + Lhat): conjugating by sigma^{1/4} turns it into a
Hermitian d^2 x d^2 matrix whose second-largest eigenvalue is -lambda.  The
result is then cross-validated against random variational witnesses of
E_2(g)/Var(g).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._blas import blas_threads_for
from .generators import Generator, NotPrimitiveError, hat_generator, stationary_state
from .lp_space import WeightedSpace, _check_p, _check_positive
from .operator_core import (
    STACK_ENTRIES,
    _re_trace,
    hermitian_part,
    max_abs,
    unvec,
    vec,
)

__all__ = ["GapReport", "dirichlet", "spectral_gap"]

DENSE_GAP_DIM_LIMIT = 32
VAR_FLOOR = 1e-12
P1_BRANCH = 1.0 + 1e-6  # p below this takes the p = 1 (log) form


@dataclass
class GapReport:
    lam: float
    witness: np.ndarray
    method: str
    residual: float

    def to_dict(self):
        return {"lambda": self.lam, "method": self.method, "residual": self.residual}


def dirichlet(g: Generator, p: float, f) -> float:
    """The L_p Dirichlet form E_p(f) of g; pass hat_generator(g) for Ehat_p.

    p and f are checked here, and on the p = 1 branch f's positivity; the
    value comes from the kernel `_dirichlet`, which direct_regularity_check
    runs on its probe stack.  Its p = 1, 2 closed forms `_e1`/`_e2` are
    shared with the log-Sobolev ratio.
    """
    _check_p(p, "dirichlet")
    sp = stationary_state(g)
    f = sp._check_dim(f)
    if p < P1_BRANCH:
        _check_positive(f, "dirichlet (p=1 branch)")
    return _judge_negative(_dirichlet(sp, p, f, g._apply(f)), g, f)


def _dirichlet(sp: WeightedSpace, p: float, f, act_f, root_eig=None):
    """E_p(f) before `_judge_negative`, given L(f): a float for a matrix f, an
    array for an (n, d, d) stack.  The general-p branch uses root_eig, the
    eigendecomposition `sp._root_eig(p, f)`, and forms it when not given."""
    if abs(p - 2.0) < 1e-12:
        return _e2(sp, f, act_f)
    if p < P1_BRANCH:
        return _e1(sp, act_f, sp._log_ratio(f)[1])
    if root_eig is None:
        root_eig = sp._root_eig(p, f)
    q = p / (p - 1.0)
    return -p / (2.0 * (p - 1.0)) * sp._inner(sp._power_operator(q, p, root_eig), act_f)


def _e1(sp: WeightedSpace, act_f, log_ratio):
    """E_1(f) = -(1/2) tr[Gamma(L f) (log Gamma(f) - log sigma)], given L(f)
    and the log ratio from `WeightedSpace._log_ratio`; stack-capable."""
    return -0.5 * _re_trace(sp._gamma(1.0, act_f) @ log_ratio)


def _e2(sp: WeightedSpace, f, act_f):
    """E_2(f) = -<f, L(f)>_sigma; stack-capable."""
    return -sp._inner(f, act_f)


def _judge_negative(val, g: Generator, f):
    """Clamp a Dirichlet value that rounding pushed below zero to 0; raise
    ArithmeticError below -1e-8 * (1 + max|f|)^2 * max(1, max|L(1)| + 1).
    That scale costs a generator application, so it is built only to judge
    a negative value.  For an (n, d, d) stack f, val holds one value per
    matrix; each is judged against its own matrix, in stack order, and the
    judged values come back as a list of floats."""
    if isinstance(val, np.ndarray):
        return [_judge_negative(v, g, x) for v, x in zip(val.tolist(), f)]
    if val < 0.0:
        scale = (1.0 + max_abs(f)) ** 2 * max(
            1.0, max_abs(g._apply(np.eye(g.dim, dtype=complex))) + 1.0)
        if val < -1e-8 * scale:
            raise ArithmeticError(f"Dirichlet form came out negative: {val:.3e}")
        return 0.0
    return val


def _hermitize_witness(m: np.ndarray) -> np.ndarray:
    h = hermitian_part(m)
    a = hermitian_part(-1j * (m - m.conj().T) / 2.0)
    cand = h if max_abs(h) >= max_abs(a) else a
    n = max_abs(cand)
    return cand / n if n > 0 else cand


def _symmetrized_eigensystem_dense(g: Generator):
    sp = stationary_state(g)
    x = sp.similarity_super(0.25, g.super_L)
    s_tilde = 0.5 * (x + x.conj().T)
    with blas_threads_for(s_tilde.shape[0]):
        w, v = np.linalg.eigh(s_tilde)
    return sp, w, v


def _gap_sparse(g: Generator, seed: int):
    from scipy.sparse.linalg import LinearOperator, eigsh
    sp = stationary_state(g)
    hat = hat_generator(g)
    d = g.dim
    s_quarter = sp.sigma_power(0.25)
    s_mquarter = sp.sigma_power(-0.25)

    def matvec(vv):
        gt = unvec(vv, d)
        a = s_mquarter @ gt @ s_mquarter
        ka = 0.5 * (g._apply(a) + hat._apply(a))
        return vec(s_quarter @ ka @ s_quarter)

    op = LinearOperator((d * d, d * d), matvec=matvec, dtype=complex)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    w, v = eigsh(op, k=4, which="LA", tol=1e-12, maxiter=5000, v0=v0)
    order = np.argsort(w)
    return sp, w[order], v[:, order]


def spectral_gap(g: Generator, n_witnesses: int = 200, seed: int = 0) -> GapReport:
    """Spectral gap lambda = min E_2(g)/Var(g) over Var(g) != 0.

    Computed as minus the second-largest eigenvalue of the symmetrized
    generator under the sigma^{1/4} similarity transform, then validated
    with random variational witnesses: no witness may achieve a ratio below
    lambda*(1 - 1e-6); when one does, the smallest probe ratio is returned
    with method "variational_refine" and a RuntimeWarning names both values.
    Above d = 32 ARPACK starts from a vector drawn from its own generator
    seeded with `seed`, so the result is reproducible.

    The witnesses are the `random_hermitian` draws of a generator seeded
    with `seed`, drawn and checked as (n, d, d) stacks of at most
    STACK_ENTRIES entries, so memory stays flat at any d: Var and
    E_2 by the stack-capable kernels (each probe gets the arithmetic it gets
    on its own), probes with Var <= VAR_FLOOR dropped before E_2 is judged,
    and the ratios folded into lambda one at a time, in draw order.
    """
    if g.dim <= DENSE_GAP_DIM_LIMIT:
        sp, w, v = _symmetrized_eigensystem_dense(g)
    else:
        sp, w, v = _gap_sparse(g, seed)
    scale = max(abs(w[0]), 1.0)
    if abs(w[-1]) > 1e-8 * scale:
        raise NotPrimitiveError(
            f"top symmetrization eigenvalue {w[-1]:.3e} is not zero; gap undefined")
    lam = lam_eigen = -float(w[-2])
    if lam <= 0:
        raise NotPrimitiveError("symmetrization has a degenerate zero eigenvalue")
    s_mquarter = sp.sigma_power(-0.25)
    witness = _hermitize_witness(s_mquarter @ unvec(v[:, -2], g.dim) @ s_mquarter)
    method = "eigen_symmetrization"

    var_w = sp.variance(witness)
    residual = abs(dirichlet(g, 2.0, witness) / var_w - lam) if var_w > VAR_FLOOR else np.inf
    rng = np.random.default_rng(seed)
    d = g.dim
    chunk = max(1, STACK_ENTRIES // (d * d))
    for start in range(0, n_witnesses, chunk):
        z = rng.standard_normal((min(chunk, n_witnesses - start), 2, d, d))
        probes = hermitian_part(z[:, 0] + 1j * z[:, 1])  # random_hermitian, drawn n at a time
        variances = sp._variance(probes).tolist()
        kept = [i for i, var in enumerate(variances) if var > VAR_FLOOR]
        f = probes[kept]
        forms = _judge_negative(_e2(sp, f, g._apply(f)), g, f)
        for i, form in zip(kept, forms):
            ratio = form / variances[i]
            if ratio < lam * (1.0 - 1e-6):
                lam = ratio
                witness = probes[i]
                method = "variational_refine"
                residual = 0.0
    if method == "variational_refine":
        warnings.warn(f"spectral_gap: eigensolver lambda {lam_eigen!r} is undercut by the "
                      f"probe ratio {lam!r}; returning the probe (variational_refine)",
                      RuntimeWarning, stacklevel=2)
    return GapReport(lam=lam, witness=witness, method=method, residual=residual)
