"""Numerical estimation of log-Sobolev constants alpha_p (p = 1, 2).

alpha_p is the infimum of E_p(f)/Ent_p(f) over positive definite f with
Ent_p(f) != 0.  The landscape is nonconvex, so the estimate returned here
is an upper bound on the true constant obtained from the best witness
found; it must never be treated as certified except where a closed form
exists (depolarizing alpha_2).

The witness search runs in four stages, in this order (the keys of
`LSReport.stage_evals`):
  1. lines_and_spikes: a grid and then a bounded Brent search along the
     near-identity line f = 1 + eps*g, where the optimal direction g solves
     the generalized eigenproblem of the exact second-order (Daleckii-Krein)
     expansions of the Dirichlet and entropy functionals around the identity
     -- the regime that saturates alpha_1 <= lambda for reversible
     generators, built with its basis as one stack -- along the gap
     witness's line, and along the two-valued spectral spikes f = exp(c P)
     for the d + 3 rank-one projectors P of `worst_case_states` (classical
     minimizers of the depolarizing family are two-valued);
  2. extra_starts: caller-provided cross-seeds (e.g. I_{2,1} of an alpha_1
     witness), one evaluation each;
  3. nelder_mead: multi-start Nelder-Mead over f = exp(h) with h Hermitian
     traceless, from the three best points so far and random starts;
  4. refine: coordinate-wise bounded Brent refinement of the best point.

Each search is a generator of `qmix._search` that yields the points it
wants next (a grid, a first simplex and a shrink are one request each).
Within stages 1 and 3, `_search._side_by_side` runs the searches side by
side: each round evaluates the pending points of every live search as one
stack through `_RatioProblem.ratios`, in chunks of at most STACK_ENTRIES
entries, and searches share rounds only in groups whose first requests fit
in STACK_ENTRIES, so at large d they run one at a time.  The refine runs
the Brent searches of consecutive coordinates side by side from one point
and keeps the first that improves (`_coordinate_refine`).  Every evaluation,
a single matrix included, is a stack through `_RatioProblem.ratios`; a
stacked evaluation gives every matrix the bits it gets in a stack of one,
and the Brent and Nelder-Mead searches are scipy 1.17.1's algorithms step
for step, so every output and n_evals equal a one-at-a-time run of scipy's
`minimize` and `minimize_scalar`.

f = exp(h) guarantees positivity without constraints; Ent_p below 1e-10 is
treated as excluded from the infimum (the ratio returns +inf there).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._search import _bounded_brent, _lockstep, _nelder_mead, _side_by_side, _through
from .dirichlet_gap import GapReport, _e1, _e2, _judge_negative, dirichlet, spectral_gap
from .generators import Generator, hat_generator, stationary_state
from .lp_space import NUMERICAL_FAILURES, _not_positive
from .mixing import worst_case_states
from .operator_core import (
    STACK_ENTRIES,
    _eigh,
    _expm_hermitian,
    _ginibre,
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
STAGES = ("lines_and_spikes", "extra_starts", "nelder_mead", "refine")  # estimate_alpha's, in order


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

def _traceless_hermitian_basis(d: int) -> np.ndarray:
    """The (d^2 - 1, d, d) stack of traceless Hermitian basis matrices: the
    d - 1 diagonal ones (E_aa - E_{d-1,d-1})/sqrt(2), then for each a < b in
    row-major order the symmetric one and the antisymmetric one."""
    basis = np.zeros((d * d - 1, d, d), dtype=complex)
    k = np.arange(d - 1)
    basis[k, k, k] = 1.0
    basis[k, d - 1, d - 1] = -1.0
    basis[k] /= np.sqrt(2.0)
    a, b = np.triu_indices(d, 1)
    sym = d - 1 + 2 * np.arange(len(a))
    basis[sym, a, b] = basis[sym, b, a] = 1.0 / np.sqrt(2.0)
    basis[sym + 1, a, b] = -1j / np.sqrt(2.0)
    basis[sym + 1, b, a] = 1j / np.sqrt(2.0)
    return basis


def _dk_log_kernel(w: np.ndarray) -> np.ndarray:
    """Daleckii-Krein first-divided-difference kernel of log at eigenvalues w."""
    diff = np.subtract.outer(w, w)
    log_w = np.log(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(diff) > 1e-12 * np.maximum.outer(w, w),
                        np.subtract.outer(log_w, log_w) / diff,
                        1.0 / (0.5 * np.add.outer(w, w)))


def _gram(x, y, weight) -> np.ndarray:
    """G[i, j] = sum(Re(conj(x_i) y_j) weight) over two (n, d, d) stacks, one
    row per stacked reduction; each entry sums its own d x d block, as
    np.sum of that block alone does."""
    return np.array([np.sum((xi.conj() * y).real * weight, axis=(1, 2)) for xi in x])


def _near_identity_direction(g: Generator, p: int) -> np.ndarray | None:
    """Direction g* minimizing the second-order expansion of the LS ratio
    of g around f = 1, via a generalized symmetric eigenproblem on the
    traceless Hermitian basis, which every kernel takes as one stack.
    Returns None if the eigenproblem degenerates: a non-finite curvature
    matrix, or a Gram matrix that scipy finds not positive definite."""
    sp = stationary_state(g)
    w = sp.eigvals
    v = sp.eigvecs
    klog = _dk_log_kernel(w)
    root = np.outer(np.sqrt(w), np.sqrt(w))
    basis = _traceless_hermitian_basis(g.dim)
    hats = v.conj().T @ basis @ v  # basis in the sigma eigenbasis

    # Ent_1 curvature Gram: Q(x, y) = sum_ab conj(xhat) yhat w_ab k_ab - tr(sigma x) tr(sigma y)
    svals = np.sum(w * hats.diagonal(axis1=1, axis2=2).real, axis=1)
    b_mat = _gram(hats, hats, np.outer(w, w) * klog) - np.outer(svals, svals)

    if p == 1:
        # Dirichlet curvature: -tr[Gamma(L g) K(Gamma(g))] with K the DK-log map
        lhats = v.conj().T @ sp._gamma(1.0, hermitian_part(g._apply(basis))) @ v
        f_mat = -_gram(lhats, root * hats, klog)
        a_mat = 0.5 * (f_mat + f_mat.T)
    else:
        # p = 2: ratio_2(1 + eps*M(g)) -> 4 E_2(M(g)) / Q_ent1(g), where M is
        # the entrywise map from the sqrt divided difference
        msqrt = root / (np.add.outer(np.sqrt(w), np.sqrt(w)) * np.outer(w, w) ** 0.25)
        m_basis = v @ (msqrt * hats) @ v.conj().T
        lm = hermitian_part(g._apply(m_basis))
        i_mat = np.array([sp._inner(m, lm) for m in m_basis])
        a_mat = -2.0 * (i_mat + i_mat.T)

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
# Ratio problem
# ---------------------------------------------------------------------------

class _RatioProblem:
    """The LS ratio E_p(f)/Ent_p(f) of g (a hat or not), p in {1, 2}, on
    stacks of matrices the search built.

    One positivity eigh per matrix; at p = 1 one Gamma(f) and one
    log Gamma(f) - log sigma serve both functionals.  Each value equals
    dirichlet(g, p, f) / space.ent(p, f) exactly.  f outside A_d^+,
    Ent_p(f) <= ENT_FLOOR and numerical breakdown give +inf; any other error
    (a wrong-dimension f, say) propagates.  n_evals counts the matrices.
    `eigh` is the positivity gate's: np.linalg.eigh on the packed path's
    exactly Hermitian f, whose symmetrization `_eigh` would only repeat.
    """

    def __init__(self, g: Generator, p: int):
        self.g = g
        self.p = float(p)
        self.space = stationary_state(g)
        self.n_evals = 0

    def ratios(self, fs, eigh=_eigh) -> list:
        """The ratio of each matrix of an (n, d, d) stack, through the stack
        kernels in chunks of at most STACK_ENTRIES entries; each matrix gets
        the bits it gets in a stack of one.  The rules apply in stack order:
        inf where f fails the positivity gate, then where Ent_p(f) <=
        ENT_FLOOR, then the clamps of `_clamp_ent` and `_judge_negative`.  A
        chunk in which any matrix makes a kernel raise one of
        NUMERICAL_FAILURES is evaluated again one matrix at a time, and a
        matrix that raises on its own gets inf."""
        chunk = max(1, STACK_ENTRIES // fs[0].size)
        if len(fs) > chunk:
            return [v for s in range(0, len(fs), chunk) for v in self.ratios(fs[s:s + chunk], eigh)]
        try:
            values = self._stacked(fs, eigh)
        except NUMERICAL_FAILURES:
            if len(fs) > 1:
                return [v for i in range(len(fs)) for v in self.ratios(fs[i:i + 1], eigh)]
            values = [np.inf]
        self.n_evals += len(fs)
        return values

    def _stacked(self, fs, eigh) -> list:
        """`ratios` of one chunk, n_evals untouched; raises what a kernel raises."""
        sp = self.space
        values = [np.inf] * len(fs)
        index = np.flatnonzero(~_not_positive(eigh(fs)[0]))
        f = fs[index]
        if self.p == 1.0:
            gf, log_ratio = sp._log_ratio(f)
            ent = np.array(sp._ent1(gf, log_ratio))
        else:
            ent = np.array(sp._ent2(f))
        keep = ent > ENT_FLOOR
        f = f[keep]
        act_f = self.g._apply(f)
        val = _e1(sp, act_f, log_ratio[keep]) if self.p == 1.0 else _e2(sp, f, act_f)
        for i, form, e in zip(index[keep], _judge_negative(val, self.g, f), ent[keep].tolist()):
            values[i] = form / e
        return values

    def ratios_packed(self, xs) -> list:
        """`ratios` of the packed Hermitian xs exponentiated, in chunks of at
        most STACK_ENTRIES entries."""
        d = self.g.dim
        chunk = max(1, STACK_ENTRIES // (d * d))
        return [v for s in range(0, len(xs), chunk)
                for v in self.ratios(_expm_hermitian(_unpack(np.asarray(xs[s:s + chunk]), d)),
                                     np.linalg.eigh)]


# ---------------------------------------------------------------------------
# The searches of estimate_alpha
# ---------------------------------------------------------------------------

def _bracketed_min(make, grid):
    """A search for the minimum of the ratio at make(x) over x: the grid as one
    request, then a bounded Brent search between the grid neighbours of its
    argmin.  Returns the better of the two as (value, make(x)), or
    (inf, None) when no grid point is finite."""
    vals = yield [make(x) for x in grid]
    i = int(np.argmin(vals))
    if not np.isfinite(vals[i]):
        return np.inf, None
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    x, fun, _ = yield from _through(_bounded_brent(lo, hi, xatol=1e-12), make)
    x, val = (x, fun) if fun < vals[i] else (grid[i], vals[i])
    return val, make(x)


def _eps_line(d: int, direction: np.ndarray):
    """(make, grid) of the line f = 1 + eps*direction, admissible eps > 0."""
    eye = np.eye(d)
    wmin = float(np.linalg.eigvalsh(direction)[0])
    eps_max = 0.95 / max(-wmin, 1e-12) if wmin < 0 else 1e3
    return (lambda eps: eye + eps * direction), np.geomspace(1e-4, eps_max, 25)


def _spike(d: int, proj: np.ndarray):
    """(make, grid) of the spikes f = exp(c * P) for a rank-one projector P."""
    eye = np.eye(d)
    return (lambda c: eye + (np.exp(c) - 1.0) * proj), np.linspace(-8.0, 8.0, 33)


def _coordinate_refine(prob: _RatioProblem, x0: np.ndarray, sweeps: int = 2):
    """Up to `sweeps` passes of bounded 1-D minimizations, each coordinate
    within 0.25 of its value.  Runs of coordinates are searched side by side
    from the point where the run starts, at most STACK_ENTRIES // d^2 wide:
    the width doubles after a run with no improvement and goes back to 1
    after one.  The first improvement in a run is kept and the searches after
    it are dropped, their evaluations taken off n_evals, so the result and
    n_evals equal those of one coordinate at a time."""
    x = x0.copy()
    [best] = prob.ratios_packed([x])
    cap, width = max(1, STACK_ENTRIES // prob.g.dim ** 2), 1
    for _ in range(sweeps):
        improved, k = False, 0
        while k < len(x):
            run = range(k, min(k + width, len(x)))
            found = _lockstep(prob.ratios_packed, [
                _through(_bounded_brent(x[j] - 0.25, x[j] + 0.25, xatol=1e-10),
                         lambda t, j=j: np.concatenate([x[:j], [t], x[j + 1:]]))
                for j in run])
            k, width = run.stop, min(2 * width, cap)
            for j, (t, fun, _) in zip(run, found):
                if fun < best - 1e-14:
                    best, x[j], improved = fun, t, True
                    prob.n_evals -= sum(nfev for _, _, nfev in found[j - run.start + 1:])
                    k, width = j + 1, 1
                    break
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
    stage_evals: dict = field(default_factory=dict)  # evaluations per stage; they sum to n_evals
    winner: str | None = None  # the stage whose point became the witness

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

    # 1. the eps lines and the spikes: every grid in one round, then their
    # Brent searches side by side.  The traceless-basis eigenproblem is O(d^4)
    # in memory; past the dense design envelope the spike and gap-witness
    # searches carry the estimate
    direction = _near_identity_direction(gen, p) if d <= 24 else None
    lines = [] if direction is None else [_eps_line(d, direction)]
    if gap is None:
        gap = spectral_gap(g, n_witnesses=50, seed=seed)
    lines.append(_eps_line(d, gap.witness / max(max_abs(gap.witness), 1e-30)))
    lines += [_spike(d, proj) for proj in worst_case_states(sp, n_haar=3, seed=rng)]
    found = _side_by_side(lambda fs: prob.ratios(np.array(fs)),
                          [_bracketed_min(make, grid) for make, grid in lines],
                          [len(grid) for _, grid in lines], d)
    candidates = [(val, f, "lines_and_spikes") for val, f in found]
    counts = [0, prob.n_evals]  # n_evals after each stage

    # 2. the caller's starts, one evaluation each
    for f0 in extra_starts:
        f0 = hermitian_part(sp._check_dim(f0))
        candidates.append((prob.ratios(f0[None])[0], f0, "extra_starts"))
    counts.append(prob.n_evals)

    candidates = [c for c in candidates if np.isfinite(c[0])]
    candidates.sort(key=lambda c: c[0])

    # 3. Nelder-Mead restarts side by side: best candidates first, then random
    # Gaussians
    starts = [_pack(_matrix_function(f, np.log, eig_floor=1e-300)) for _, f, _ in candidates[:3]]
    while len(starts) < restarts:
        starts.append(_pack(hermitian_part(0.7 * _ginibre((d, d), rng))))
    best_x = starts[0] if starts else _pack(np.zeros((d, d), dtype=complex))
    starts = starts[:restarts]

    best_val, winner = (candidates[0][0], candidates[0][2]) if candidates else (np.inf, "nelder_mead")
    for x, fun, _ in _side_by_side(
            prob.ratios_packed, [_nelder_mead(x0, budget, xatol=1e-10, fatol=1e-12) for x0 in starts],
            [min(budget, d * d + 1)] * len(starts), d):
        if fun < best_val:
            best_val, best_x, winner = fun, x, "nelder_mead"
    counts.append(prob.n_evals)

    # 4. the coordinate refine, runs of coordinates side by side
    pre_refine = best_val
    if refine_sweeps > 0 and np.isfinite(best_val):
        val, x = _coordinate_refine(prob, np.asarray(best_x, dtype=float), sweeps=refine_sweeps)
        if val < best_val:
            best_val, best_x, winner = val, x, "refine"
    counts.append(prob.n_evals)

    # the candidate list may still hold the overall best (e.g. eps-path points
    # that the packed representation reproduces less accurately)
    witness = _expm_hermitian(_unpack(np.asarray(best_x, dtype=float), d))
    if candidates and candidates[0][0] < best_val:
        best_val, witness, winner = candidates[0]

    ent = sp.ent(float(p), witness)
    alpha = dirichlet(gen, float(p), witness) / ent
    converged = bool(np.isfinite(alpha) and
                     (pre_refine - best_val) <= 1e-6 * max(abs(best_val), 1e-30) + 1e-12)

    bounds: dict[str, float | None] = {"gap_upper": gap.lam}
    if p == 2:
        if g._closed is not None and g.unital:  # gamma (E - id) with E = tr(.)/d 1
            bounds["closed_form"] = depolarizing_alpha2(d, g._closed[0])
        if g.unital:
            bounds["unital_lower"] = unital_alpha2_lower(g, gap.lam)
        if "D" in g.params:
            bounds["expander_upper"] = expander_alpha2_upper(g.params["D"], d)

    return LSReport(
        p=float(p), alpha_estimate=float(alpha), witness=witness,
        restarts=restarts, converged=converged, use_hat=p == 1,
        witness_min_eig=float(np.linalg.eigvalsh(witness)[0]),
        n_evals=prob.n_evals, analytic_bounds=bounds,
        stage_evals={name: b - a for name, a, b in zip(STAGES, counts, counts[1:])},
        winner=winner)


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
