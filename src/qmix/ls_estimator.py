"""Numerical estimation of log-Sobolev constants alpha_p (p = 1, 2).

alpha_p is the infimum of E_p(f)/Ent_p(f) over positive definite f with
Ent_p(f) != 0.  The landscape is nonconvex, so the estimate returned here
is an upper bound on the true constant obtained from the best witness
found; it must never be treated as certified except where a closed form
exists (depolarizing alpha_2).

Witness search combines:
  * near-identity witnesses f = 1 + eps*g, where the optimal direction g
    solves the generalized eigenproblem of the exact second-order
    (Daleckii-Krein) expansions of the Dirichlet and entropy functionals
    around the identity -- this is the regime that saturates alpha_1 <= lambda
    for reversible generators;
  * two-valued spectral spikes f = exp(c P) for rank-one projectors P
    (classical minimizers of the depolarizing family are two-valued);
  * caller-provided cross-seeds (e.g. I_{2,1} of an alpha_1 witness);
  * multi-start Nelder-Mead over f = exp(h) with h Hermitian traceless,
    followed by coordinate-wise Brent refinement.

f = exp(h) guarantees positivity without constraints; Ent_p below 1e-10 is
treated as excluded from the infimum (the ratio returns +inf there).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import minimize, minimize_scalar

from .dirichlet_gap import GapReport, _e1, _e2, _judge_negative, dirichlet, spectral_gap
from .generators import Generator, hat_generator, stationary_state
from .lp_space import PositivityError, _require_positive
from .mixing import worst_case_states
from .operator_core import (
    _expm_hermitian,
    _matrix_function,
    _pack,
    _unpack,
    hermitian_part,
    max_abs,
    report_dict,
)

__all__ = [
    "LSReport",
    "estimate_alpha",
    "depolarizing_alpha2",
    "unital_alpha2_lower",
    "expander_alpha2_upper",
    "partial_order_verdict",
]

ENT_FLOOR = 1e-10


# ---------------------------------------------------------------------------
# Closed forms and analytic bounds
# ---------------------------------------------------------------------------

def depolarizing_alpha2(d: int, gamma: float) -> float:
    """Exact LS_2 constant of the depolarizing generator:
    2*gamma*(1 - 2/d)/log(d-1), with the d = 2 limit equal to gamma."""
    if d < 2:
        raise ValueError("depolarizing_alpha2 needs d >= 2")
    if d == 2:
        return float(gamma)
    return 2.0 * gamma * (1.0 - 2.0 / d) / np.log(d - 1.0)


def unital_alpha2_lower(g: Generator, lam: float) -> float:
    """Lower bound alpha_2 >= 2*(1 - 2/d)*lambda/log(d-1) for primitive
    unital generators (equal to the exact value on the depolarizing family)."""
    if not g.unital:
        raise ValueError("unital_alpha2_lower requires a unital generator")
    if not g.primitive:
        raise ValueError("unital_alpha2_lower requires a primitive generator")
    d = g.dim
    if d == 2:
        return float(lam)
    return 2.0 * (1.0 - 2.0 / d) * lam / np.log(d - 1.0)


def expander_alpha2_upper(D: int, d: int) -> float:
    """Upper bound log(D)*(4 + log log d)/(2 log(3d/4)) on the LS_2 constant
    of a D-regular reversible unital channel lift."""
    if D < 2:
        raise ValueError("expander bound needs D >= 2")
    if d < 2 or 3.0 * d / 4.0 <= 1.0:
        raise ValueError("expander bound needs d >= 2 with 3d/4 > 1")
    return float(np.log(D) * (4.0 + np.log(np.log(d))) / (2.0 * np.log(3.0 * d / 4.0)))


# ---------------------------------------------------------------------------
# Near-identity (second-order) witnesses
# ---------------------------------------------------------------------------

def _traceless_hermitian_basis(d: int):
    basis = []
    for a in range(d - 1):
        m = np.zeros((d, d), dtype=complex)
        m[a, a] = 1.0
        m[d - 1, d - 1] = -1.0
        basis.append(m / np.sqrt(2.0))
    for a in range(d):
        for b in range(a + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[a, b] = m[b, a] = 1.0 / np.sqrt(2.0)
            basis.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[a, b] = -1j / np.sqrt(2.0)
            m[b, a] = 1j / np.sqrt(2.0)
            basis.append(m)
    return basis


def _dk_log_kernel(w: np.ndarray) -> np.ndarray:
    """Daleckii-Krein first-divided-difference kernel of log at eigenvalues w."""
    d = len(w)
    k = np.empty((d, d))
    for a in range(d):
        for b in range(d):
            if abs(w[a] - w[b]) > 1e-12 * max(w[a], w[b]):
                k[a, b] = (np.log(w[a]) - np.log(w[b])) / (w[a] - w[b])
            else:
                k[a, b] = 1.0 / (0.5 * (w[a] + w[b]))
    return k


def _near_identity_direction(g: Generator, p: int) -> np.ndarray | None:
    """Direction g* minimizing the second-order expansion of the LS ratio
    of g around f = 1, via a generalized symmetric eigenproblem on the
    traceless Hermitian basis.  Returns None if the eigenproblem
    degenerates: a non-finite curvature matrix, or a Gram matrix that
    scipy finds not positive definite."""
    sp = stationary_state(g)
    d = g.dim
    w = sp.eigvals
    v = sp.eigvecs
    klog = _dk_log_kernel(w)
    weight = np.outer(w, w) * klog  # Ent_1 curvature kernel
    basis = _traceless_hermitian_basis(d)
    n = len(basis)
    hats = [v.conj().T @ b @ v for b in basis]  # basis in the sigma eigenbasis

    # Ent_1 curvature Gram: Q(x, y) = sum_ab conj(xhat) yhat w_ab k_ab - tr(sigma x) tr(sigma y)
    b_mat = np.empty((n, n))
    svals = np.array([np.sum(w * np.diag(bh).real) for bh in hats])
    for i in range(n):
        for j in range(i, n):
            val = float(np.sum((hats[i].conj() * hats[j]).real * weight))
            val -= svals[i] * svals[j]
            b_mat[i, j] = b_mat[j, i] = val

    if p == 1:
        # Dirichlet curvature: -tr[Gamma(L g) K(Gamma(g))] with K the DK-log map
        lg_hats = [v.conj().T @ sp.gamma(hermitian_part(g._apply(b))) @ v for b in basis]
        gam_hats = [np.outer(np.sqrt(w), np.sqrt(w)) * bh for bh in hats]
        a_mat = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                fij = -float(np.sum((lg_hats[i].conj() * gam_hats[j]).real * klog))
                fji = -float(np.sum((lg_hats[j].conj() * gam_hats[i]).real * klog))
                a_mat[i, j] = a_mat[j, i] = 0.5 * (fij + fji)
    else:
        # p = 2: ratio_2(1 + eps*M(g)) -> 4 E_2(M(g)) / Q_ent1(g), where M is
        # the entrywise map from the sqrt divided difference
        msqrt = np.outer(np.sqrt(w), np.sqrt(w)) / (
            np.add.outer(np.sqrt(w), np.sqrt(w)) * np.outer(w, w) ** 0.25)
        m_basis = [v @ (msqrt * bh) @ v.conj().T for bh in hats]
        lm = [hermitian_part(g.apply(mb)) for mb in m_basis]
        a_mat = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                val = -2.0 * (sp.inner(m_basis[i], lm[j]) + sp.inner(m_basis[j], lm[i]))
                a_mat[i, j] = a_mat[j, i] = val

    if not (np.all(np.isfinite(a_mat)) and np.all(np.isfinite(b_mat))):
        return None
    try:
        coeffs = scipy.linalg.eigh(a_mat, b_mat)[1][:, 0]
    except np.linalg.LinAlgError:
        return None
    direction = sum(c * b for c, b in zip(coeffs, basis))
    if p == 2:
        dh = v.conj().T @ direction @ v
        direction = v @ (msqrt * dh) @ v.conj().T
    direction = hermitian_part(direction)
    nrm = max_abs(direction)
    return direction / nrm if nrm > 0 else None


# ---------------------------------------------------------------------------
# Ratio problem and searches
# ---------------------------------------------------------------------------

class _RatioProblem:
    """The LS ratio E_p(f)/Ent_p(f) of g (a hat or not), p in {1, 2}, on
    matrices the search built.

    One positivity eigh per evaluation; at p = 1 one Gamma(f) and one
    log Gamma(f) - log sigma serve both functionals.  The value equals
    dirichlet(g, p, f) / space.ent(p, f) exactly.  f outside A_d^+,
    Ent_p(f) <= ENT_FLOOR and numerical breakdown give +inf; any other error
    (a wrong-dimension f, say) propagates.
    """

    def __init__(self, g: Generator, p: int):
        self.g = g
        self.p = float(p)
        self.space = stationary_state(g)
        self.n_evals = 0

    def ratio(self, f) -> float:
        self.n_evals += 1
        sp = self.space
        try:
            _require_positive(f, "LS ratio")
            if self.p == 1.0:
                gf, log_ratio = sp._log_ratio(f)
                ent = sp._ent1(gf, log_ratio)
            else:
                ent = sp._ent2(f)
            if ent <= ENT_FLOOR:
                return np.inf
            act_f = self.g._apply(f)
            val = _e1(sp, act_f, log_ratio) if self.p == 1.0 else _e2(sp, f, act_f)
            return _judge_negative(val, self.g, f) / ent
        except (PositivityError, ArithmeticError, np.linalg.LinAlgError):
            return np.inf

    def ratio_packed(self, x) -> float:
        return self.ratio(_expm_hermitian(_unpack(x, self.g.dim)))


def _bracketed_min(prob: _RatioProblem, make, grid):
    """Minimize ratio(make(x)) over x: the grid's argmin, then a bounded
    Brent search between its grid neighbours.  Returns the better of the two
    as (value, make(x)), or (inf, None) when no grid point is finite."""
    def func(x):
        return prob.ratio(make(x))

    vals = [func(x) for x in grid]
    i = int(np.argmin(vals))
    if not np.isfinite(vals[i]):
        return np.inf, None
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    x, val = (res.x, res.fun) if res.fun < vals[i] else (grid[i], vals[i])
    return val, make(x)


def _line_search_eps(prob: _RatioProblem, direction: np.ndarray):
    """Minimize ratio(1 + eps*direction) over admissible eps > 0."""
    eye = np.eye(prob.g.dim)
    wmin = float(np.linalg.eigvalsh(direction)[0])
    eps_max = 0.95 / max(-wmin, 1e-12) if wmin < 0 else 1e3
    return _bracketed_min(prob, lambda eps: eye + eps * direction,
                          np.geomspace(1e-4, eps_max, 25))


def _spike_search(prob: _RatioProblem, proj: np.ndarray):
    """Minimize ratio(exp(c * P)) over c for a rank-one projector P."""
    eye = np.eye(prob.g.dim)
    return _bracketed_min(prob, lambda c: eye + (np.exp(c) - 1.0) * proj,
                          np.linspace(-8.0, 8.0, 33))


def _coordinate_refine(prob: _RatioProblem, x0: np.ndarray, sweeps: int = 2):
    """Up to `sweeps` passes of bounded 1-D minimizations, each coordinate
    within 0.25 of its value."""
    x = x0.copy()
    best = prob.ratio_packed(x)
    for _ in range(sweeps):
        improved = False
        for k in range(len(x)):
            xk = x[k]

            def func(t):
                x[k] = t
                return prob.ratio_packed(x)

            res = minimize_scalar(func, bounds=(xk - 0.25, xk + 0.25),
                                  method="bounded", options={"xatol": 1e-10})
            if res.fun < best - 1e-14:
                best = res.fun
                x[k] = res.x
                improved = True
            else:
                x[k] = xk
        if not improved:
            break
    return best, x


@dataclass
class LSReport:
    p: float
    alpha_estimate: float
    witness: np.ndarray
    restarts: int
    converged: bool
    use_hat: bool
    witness_min_eig: float
    n_evals: int
    analytic_bounds: dict = field(default_factory=dict)

    to_dict = report_dict


def estimate_alpha(g: Generator, p: int, budget: int = 1500, restarts: int = 8,
                   seed: int = 0, extra_starts=(), gap: GapReport | None = None,
                   refine_sweeps: int = 2) -> LSReport:
    """Multi-start upper-bound estimate of the LS_p constant, p in {1, 2}.

    The ratio is on the hat generator exactly when p = 1 (the mixing bounds
    are stated for it; for p = 2 the two Dirichlet forms coincide).  The
    returned alpha_estimate is the smallest Dirichlet/entropy ratio found;
    it upper-bounds the true constant and the report carries the witness,
    its smallest eigenvalue (rank-deficiency audit) and the applicable
    analytic bounds.
    """
    if p not in (1, 2):
        raise ValueError("estimate_alpha supports p in {1, 2} only")
    sp = stationary_state(g)
    gen = hat_generator(g) if p == 1 else g  # the generator of the LS ratio
    prob = _RatioProblem(gen, p)
    rng = np.random.default_rng(seed)
    d = g.dim

    candidates: list[tuple[float, np.ndarray]] = []

    # the traceless-basis eigenproblem is O(d^4) in memory; past the dense
    # design envelope the spike and gap-witness searches carry the estimate
    direction = _near_identity_direction(gen, p) if d <= 24 else None
    if direction is not None:
        candidates.append(_line_search_eps(prob, direction))

    if gap is None:
        gap = spectral_gap(g, n_witnesses=50, seed=seed)
    gw = gap.witness / max(max_abs(gap.witness), 1e-30)
    candidates.append(_line_search_eps(prob, gw))

    for proj in worst_case_states(sp, n_haar=3, seed=rng):
        candidates.append(_spike_search(prob, proj))

    for f0 in extra_starts:
        f0 = hermitian_part(sp._check_dim(f0))
        val = prob.ratio(f0)
        if np.isfinite(val):
            candidates.append((val, f0))

    candidates = [c for c in candidates if np.isfinite(c[0])]
    candidates.sort(key=lambda c: c[0])

    # Nelder-Mead restarts: best candidates first, then random Gaussians
    starts = [_pack(_matrix_function(f, np.log, eig_floor=1e-300)) for _, f in candidates[:3]]
    while len(starts) < restarts:
        h = 0.7 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        starts.append(_pack(hermitian_part(h)))

    best_val = candidates[0][0] if candidates else np.inf
    best_x = starts[0] if starts else _pack(np.zeros((d, d), dtype=complex))
    for x0 in starts[:restarts]:
        res = minimize(prob.ratio_packed, x0, method="Nelder-Mead",
                       options={"maxfev": budget, "fatol": 1e-12, "xatol": 1e-10})
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x

    pre_refine = best_val
    if refine_sweeps > 0 and np.isfinite(best_val):
        val, x = _coordinate_refine(prob, np.asarray(best_x, dtype=float),
                                    sweeps=refine_sweeps)
        if val < best_val:
            best_val, best_x = val, x

    # the candidate list may still hold the overall best (e.g. eps-path points
    # that the packed representation reproduces less accurately)
    witness = _expm_hermitian(_unpack(np.asarray(best_x, dtype=float), d))
    if candidates and candidates[0][0] < best_val:
        best_val, witness = candidates[0]

    ent = sp.ent(float(p), witness)
    alpha = dirichlet(gen, float(p), witness) / ent
    converged = bool(np.isfinite(alpha) and
                     (pre_refine - best_val) <= 1e-6 * max(abs(best_val), 1e-30) + 1e-12)

    bounds: dict[str, float | None] = {"gap_upper": gap.lam}
    if p == 2:
        if g.family == "depolarizing":
            bounds["closed_form"] = depolarizing_alpha2(d, g.params["gamma"])
        if g.unital:
            bounds["unital_lower"] = unital_alpha2_lower(g, gap.lam)
        if "D" in g.params:
            bounds["expander_upper"] = expander_alpha2_upper(g.params["D"], d)

    return LSReport(
        p=float(p), alpha_estimate=float(alpha), witness=witness,
        restarts=restarts, converged=converged, use_hat=p == 1,
        witness_min_eig=float(np.linalg.eigvalsh(witness)[0]),
        n_evals=prob.n_evals, analytic_bounds=bounds)


def partial_order_verdict(g: Generator, budget: int = 1500, restarts: int = 6,
                          seed: int = 0, gap: GapReport | None = None) -> dict:
    """Estimate alpha_1, alpha_2 and lambda and check the partial order
    alpha_2 <= 2*alpha_1 and (when the theorem applies: reversible or
    unital) alpha_1 <= lambda, with 1e-4 relative slack for optimizer noise.

    The alpha_2 search is cross-seeded with I_{2,1} of the alpha_1 witness,
    which makes the partial-order check an honest test of weak regularity
    at the witness rather than a race between two independent optimizers.
    A caller that already holds spectral_gap(g, seed=seed) passes it as gap.
    """
    if gap is None:
        gap = spectral_gap(g, seed=seed)
    rep1 = estimate_alpha(g, 1, budget=budget, restarts=restarts, seed=seed, gap=gap)
    sp = stationary_state(g)
    cross = sp.power_operator(2.0, 1.0, rep1.witness)
    rep2 = estimate_alpha(g, 2, budget=budget, restarts=restarts, seed=seed,
                          gap=gap, extra_starts=[cross])
    slack = 1e-4
    a1, a2 = rep1.alpha_estimate, rep2.alpha_estimate
    out = {
        "alpha1": a1,
        "alpha2": a2,
        "lambda": gap.lam,
        "ok_alpha2_le_2alpha1": bool(a2 <= 2.0 * a1 * (1.0 + slack)),
        "alpha1_le_lambda_applicable": bool(g.reversible or g.unital),
        "ok_alpha1_le_lambda": None,
        "report1": rep1,
        "report2": rep2,
    }
    if out["alpha1_le_lambda_applicable"]:
        out["ok_alpha1_le_lambda"] = bool(a1 <= gap.lam * (1.0 + slack))
    return out
