"""Distances, time evolution, mixing bounds and hypercontractivity checks.

Bounds implemented for a primitive generator with stationary state sigma
(sigma_min its smallest eigenvalue):

    chi^2 bound:        ||rho_t - sigma||_tr <= sqrt(1/sigma_min) e^{-lambda t}
    LS_1 bound:         ||rho_t - sigma||_tr <= sqrt(2 log(1/sigma_min)) e^{-alpha1 t}
    LS_2 bounds:        same prefactor with e^{-alpha2 t/2} (weakly regular)
                        or e^{-alpha2 t} (strongly regular)

The empirical worst case is sampled over the eigenprojectors of sigma
(the sigma_min projector maximizes both initial divergences) plus Haar
random pure states; every report states the sample size, since no finite
sample certifies the supremum over all inputs.

`bound_curves`, `mixing_time` and `chi2_gap_time_check` validate the sampled
states once and then evolve and measure them per time as one (n, d, d) stack
of at most STACK_ENTRIES // d^2 states (16 at d = 64, 256 at d = 16).  A
larger stack goes in chunks of STACK_ENTRIES // (2 d^2) states to a
two-worker thread pool (`_per_state`).  Their temporaries stay near 1 MiB at
any d, and the values are those of a serial loop bit for bit.  Each time's
evolution map is built once and freed with its stack, so no propagator
outlives it.  Given the curve,
`mixing_time` reuses its worst trace distances at the grid times instead of
evolving again.
The public single-state `evolve`, `distances`, `trace_norm`, `chi2_divergence`
and `relative_entropy_states` run the same kernels on a stack of one, so every
state gets the same arithmetic and the same checks either way.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from ._blas import blas_threads_for
from ._search import _nelder_mead, _side_by_side
from .dirichlet_gap import dirichlet
from .generators import Generator, hat_generator, lift_channel, stationary_state
from .lp_space import NUMERICAL_FAILURES, WeightedSpace, _check_p
from .operator_core import (
    STACK_ENTRIES,
    _expm_hermitian,
    _matrix_function,
    _pack,
    _re_trace,
    _unpack,
    eig_hermitian,
    hermitian_part,
    kraus_schrodinger_super,
    matrix_function,
    random_hermitian,
    random_pure_state,
    require_hermitian,
    unvec,
    vec,
)

__all__ = [
    "RelativeDensity",
    "MixingCurve",
    "trace_norm",
    "relative_entropy_states",
    "chi2_divergence",
    "distances",
    "evolve",
    "worst_case_states",
    "bound_curves",
    "mixing_time",
    "entropy_decay_check",
    "entropy_production",
    "pq_norm",
    "two_two_norm_decay",
    "discrete_vs_continuous",
    "lazy_channel_super",
    "chi2_gap_time_check",
    "hypercontractivity_check",
]

STATE_TOL = 1e-10
PINSKER_SLACK = 1e-7


def trace_norm(a) -> float:
    """tr|A| of a Hermitian matrix."""
    return float(_trace_norms(require_hermitian(a)[None])[0])


def _trace_norms(a) -> np.ndarray:
    """tr|A| of each matrix in a Hermitian (n, d, d) stack."""
    return np.sum(np.abs(np.linalg.eigvalsh(a)), axis=-1)


def _check_states(states) -> np.ndarray:
    """Validate each state once (Hermitian, unit trace, positive) and return
    them as one (n, d, d) stack."""
    rho = np.stack([require_hermitian(r, name="state") for r in states])
    _require_states(rho, np.linalg.eigvalsh(rho))
    return rho


def _require_states(rho, w):
    """Unit trace and positivity to STATE_TOL of each matrix in a Hermitian
    stack, given its eigenvalues w."""
    tr = _re_trace(rho)
    bad = np.abs(tr - 1.0) > STATE_TOL * np.maximum(1.0, np.abs(tr))
    if bad.any():
        raise ValueError(f"state trace is {float(tr[bad][0])!r}, not 1")
    if (w[:, 0] < -STATE_TOL).any():
        raise ValueError(f"state has negative eigenvalue {w[:, 0].min():.3e}")


def _log_sigma(ws, vs) -> np.ndarray:
    """log sigma from its eigendecomposition: a WeightedSpace's cached
    `eigvals` and `eigvecs`, or eig_hermitian of a full-rank sigma."""
    return (vs * np.log(ws)) @ vs.conj().T


def relative_entropy_states(rho, sigma) -> float:
    """D(rho||sigma) = tr[rho(log rho - log sigma)] with the 0*log(0) = 0
    convention on rho's null space (sigma must be full rank)."""
    rho = require_hermitian(rho)
    ws, vs = eig_hermitian(sigma)
    if ws[0] <= 0:
        raise ValueError("relative entropy needs full-rank sigma")
    return float(_relative_entropies(rho[None], _log_sigma(ws, vs))[0])


def _relative_entropies(rho, log_sigma) -> np.ndarray:
    """D(rho||sigma) of each matrix in a Hermitian stack, given `_log_sigma`."""
    w = np.clip(np.linalg.eigh(rho)[0], 0.0, None)
    # per matrix over its own positive eigenvalues: zero padding would regroup
    # numpy's pairwise sum and change the last bits
    plogp = np.array([np.sum(x[x > 0] * np.log(x[x > 0])) for x in w])
    val = plogp - _re_trace(rho @ log_sigma)
    return np.where(val < 0.0, 0.0, val)


def chi2_divergence(rho, space: WeightedSpace) -> float:
    delta = require_hermitian(rho) - space.sigma
    return float(_chi2s(delta[None], space)[0])


def _chi2s(delta, space: WeightedSpace) -> np.ndarray:
    """chi^2 = tr[delta Gamma^{-1}(delta)], delta = rho - sigma, of each
    matrix in a Hermitian stack."""
    val = _re_trace(delta @ space._gamma(-1.0, delta))
    return np.where(val < 0.0, 0.0, val)


@dataclass
class RelativeDensity:
    """rho^sigma = Gamma^{-1}(rho); evolves under the hat generator."""
    value: np.ndarray
    space: WeightedSpace

    @classmethod
    def from_state(cls, rho, space: WeightedSpace) -> "RelativeDensity":
        rho = _check_states([rho])[0]
        val = space.gamma_inv(rho)
        enc = _re_trace(space.gamma(val))
        if abs(enc - 1.0) > 1e-10:
            raise ArithmeticError(f"relative density encodes trace {enc!r}")
        return cls(value=val, space=space)


def distances(rho, space: WeightedSpace) -> dict:
    """Trace distance, chi^2 divergence and relative entropy to sigma.

    The Pinsker-type inequalities ||rho-sigma||_tr^2 <= 2 D(rho||sigma) and
    <= chi^2(rho, sigma) are verified on every call; a violation beyond
    slack indicates numerical breakdown and raises.
    """
    tr, chi2, rel = _distances(_check_states([rho]), space,
                                _log_sigma(space.eigvals, space.eigvecs))
    return {"trace": float(tr[0]), "chi2": float(chi2[0]), "rel_ent": float(rel[0])}


def _distances(rho, space: WeightedSpace, log_sigma):
    """`distances` of each state in a validated (n, d, d) stack, as three
    arrays, with the Pinsker checks."""
    delta = rho - space.sigma
    tr = _trace_norms(delta)
    chi2 = _chi2s(delta, space)
    rel = _relative_entropies(rho, log_sigma)
    bad = (tr ** 2 > chi2 + PINSKER_SLACK) | (tr ** 2 > 2.0 * rel + PINSKER_SLACK)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise ArithmeticError(
            f"trace-norm bound violated: tr^2={tr[k]**2:.3e}, chi2={chi2[k]:.3e}, "
            f"2D={2*rel[k]:.3e}")
    return tr, chi2, rel


def evolve(g: Generator, rho0, t: float) -> np.ndarray:
    """rho_t = exp(t L*)(rho_0); validates the input and output states."""
    states = _check_states([rho0])
    rho_t, _ = _evolve_states(_schrodinger(g, t), states)
    return rho_t[0]


def _schrodinger(g: Generator, t: float):
    """g's Schrodinger evolution map of a time t >= 0."""
    if t < 0:
        raise ValueError("evolve needs t >= 0")
    return g._evolution(float(t), heis=False)


def _evolve_states(evolution, states):
    """rho_t = evolution(states) of a validated (n, d, d) stack, with evolve's
    checks on each output; returns the stack and its eigenvalues."""
    rho_t = hermitian_part(evolution(states))
    if not np.isfinite(rho_t).all():
        raise ArithmeticError("evolution produced non-finite entries")
    tr = _re_trace(rho_t)
    bad = np.abs(tr - 1.0) > 1e-9
    if bad.any():
        raise ArithmeticError(f"evolution lost trace: {float(tr[bad][0])!r}")
    w = np.linalg.eigvalsh(rho_t)
    if (w[:, 0] < -1e-9).any():
        raise ArithmeticError(f"evolution lost positivity: min eig {w[:, 0].min():.3e}")
    return rho_t, w


def _per_state(g: Generator, measure, states, t: float) -> np.ndarray:
    """measure(chunk, evolution) over chunks of a validated stack, joined in
    stack order along the last axis.  evolution, the `_schrodinger` map of t,
    is built once on the calling thread, so no pool task calls `expm` or
    enters `blas_threads_for`.  A stack of at most STACK_ENTRIES // d^2
    states is one chunk on the calling thread; a larger one is cut from index
    0 into chunks of STACK_ENTRIES // (2 d^2) states, whatever the CPU count,
    for the two workers of `_chunk_pool`.  numpy's linalg and matmul release
    the GIL and make one LAPACK or BLAS call per matrix, so the values are
    the serial loop's bit for bit.  The results are read in stack order, so
    the first failing chunk raises, and no chunk runs on once this returns."""
    evolution = _schrodinger(g, t)
    size = states[0].size
    if len(states) <= STACK_ENTRIES // size:
        return measure(states, evolution)
    step = max(1, STACK_ENTRIES // (2 * size))
    futures = [_chunk_pool().submit(measure, states[i:i + step], evolution)
               for i in range(0, len(states), step)]
    try:
        return np.concatenate([f.result() for f in futures], axis=-1)
    finally:
        for f in futures:
            f.cancel()
        wait(futures)


_POOL: tuple = (None, None)  # (process id, executor) of `_chunk_pool`


def _chunk_pool() -> ThreadPoolExecutor:
    """This process's two-worker thread pool, made on first use.  A forked
    child makes its own: the inherited pool's workers do not exist in the
    child, so a task submitted to them would never run."""
    global _POOL
    if _POOL[0] != os.getpid():
        _POOL = (os.getpid(), ThreadPoolExecutor(max_workers=2,
                                                 thread_name_prefix="qmix-chunks"))
    return _POOL[1]


def worst_case_states(space: WeightedSpace, n_haar: int = 50, seed=0):
    """Initial states for worst-case sampling: all eigenprojectors of sigma
    (including the sigma_min one) plus Haar-random pure states.  A numpy
    Generator as seed is used as is (`default_rng` returns it unchanged), so
    the LS spike search draws its spikes here from its own generator."""
    rng = np.random.default_rng(seed)
    states = [np.outer(space.eigvecs[:, j], space.eigvecs[:, j].conj())
              for j in range(space.dim)]
    states += [random_pure_state(space.dim, rng) for _ in range(n_haar)]
    return states


@dataclass
class MixingCurve:
    times: np.ndarray
    trace_dist: np.ndarray
    chi2: np.ndarray
    rel_ent: np.ndarray
    chi2_bound: np.ndarray | None
    ls_bound_a1: np.ndarray | None
    ls_bound_a2: np.ndarray | None
    n_states: int
    domination_margin: float  # min over grid of min(bounds) - trace_dist
    seed: int  # of the sampled initial states

    def columns(self):
        cols = [("t", self.times), ("trace_dist", self.trace_dist),
                ("chi2", self.chi2), ("rel_ent", self.rel_ent)]
        for name in ("chi2_bound", "ls_bound_a1", "ls_bound_a2"):
            val = getattr(self, name)
            if val is not None:
                cols.append((name, val))
        return cols

    def to_csv(self, path):
        cols = self.columns()
        with open(path, "w") as fh:
            fh.write(",".join(name for name, _ in cols) + "\n")
            for i in range(len(self.times)):
                fh.write(",".join(f"{col[i]:.12g}" for _, col in cols) + "\n")

    def to_json(self) -> dict:
        """The curve as a JSON-ready dict."""
        data = {name: [float(x) for x in col] for name, col in self.columns()}
        data["n_states"] = self.n_states
        data["domination_margin"] = self.domination_margin
        return data


def bound_curves(g: Generator, lam: float | None, alpha1: float | None, t_grid,
                 alpha2: float | None = None, strong_regular: bool = False,
                 n_haar: int = 50, seed: int = 0) -> MixingCurve:
    """Empirical worst-case distance curves plus every applicable bound.

    Bound columns are emitted only for the constants actually supplied
    (missing constants are never fabricated).  alpha2 yields the rate
    alpha2/2 under weak regularity and alpha2 when strong_regular is set.
    """
    sp = stationary_state(g)
    t_grid = np.asarray(list(t_grid), dtype=float)
    states = _check_states(worst_case_states(sp, n_haar=n_haar, seed=seed))
    log_sigma = _log_sigma(sp.eigvals, sp.eigvecs)

    def measure(chunk, evolution):
        rho_t, w = _evolve_states(evolution, chunk)
        _require_states(rho_t, w)
        return np.array(_distances(rho_t, sp, log_sigma))

    worst = np.zeros((3, len(t_grid)))  # trace distance, chi^2, relative entropy
    for i, t in enumerate(t_grid):
        for row, dist in zip(worst, _per_state(g, measure, states, t)):
            row[i] = max(0.0, *dist.tolist())
    trace_w, chi2_w, rel_w = worst
    log_inv = np.log(1.0 / sp.sigma_min)
    chi2_b = np.sqrt(1.0 / sp.sigma_min) * np.exp(-lam * t_grid) if lam is not None else None
    ls_b1 = (np.sqrt(2.0 * log_inv) * np.exp(-alpha1 * t_grid)
             if alpha1 is not None else None)
    ls_b2 = None
    if alpha2 is not None:
        rate = alpha2 if strong_regular else alpha2 / 2.0
        ls_b2 = np.sqrt(2.0 * log_inv) * np.exp(-rate * t_grid)
    margin = np.inf
    for b in (chi2_b, ls_b1, ls_b2):
        if b is not None:
            margin = min(margin, float(np.min(b - trace_w)))
    return MixingCurve(times=t_grid, trace_dist=trace_w, chi2=chi2_w, rel_ent=rel_w,
                       chi2_bound=chi2_b, ls_bound_a1=ls_b1, ls_bound_a2=ls_b2,
                       n_states=len(states), domination_margin=margin, seed=seed)


def mixing_time(g: Generator, epsilon: float, n_haar: int = 50, seed: int = 0,
                rtol: float = 1e-4, t_max: float = 1e6,
                curve: MixingCurve | None = None) -> float:
    """tau_mix(eps): first time the worst-case sampled trace distance drops
    to eps.  Bisection over the worst case of the sampled initial-state
    family; the result is a sampled lower-ish estimate of the true worst
    case, with the sample size set by n_haar plus the d eigenprojectors.

    `curve`, a `bound_curves` result for g with the same n_haar and seed,
    gives the worst trace distance at its grid times, which are then not
    evolved again; the result is the same as without it.
    """
    if not rtol > 0:  # rtol = 0 would bisect forever between adjacent floats
        raise ValueError(f"rtol must be > 0, got {rtol}")
    if not (0.0 < epsilon < 2.0):
        if epsilon >= 2.0:
            return 0.0
        raise ValueError("epsilon must be in (0, 2)")
    sp = stationary_state(g)
    states = _check_states(worst_case_states(sp, n_haar=n_haar, seed=seed))

    known = {}
    if curve is not None:
        if (curve.n_states, curve.seed) != (len(states), seed):
            raise ValueError("curve was sampled with another n_haar or seed")
        known = dict(zip(curve.times.tolist(), curve.trace_dist.tolist()))

    def trace_dists(chunk, evolution):
        return _trace_norms(_evolve_states(evolution, chunk)[0] - sp.sigma)

    def worst(t):
        if t in known:
            return known[t]
        return max(_per_state(g, trace_dists, states, t).tolist())

    if worst(0.0) <= epsilon:
        return 0.0
    lo, hi = 0.0, 1.0
    while worst(hi) > epsilon:
        lo, hi = hi, hi * 2.0
        if hi > t_max:
            raise ArithmeticError(f"no mixing below eps={epsilon} up to t={t_max}")
    while hi - lo > rtol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if worst(mid) > epsilon:
            lo = mid
        else:
            hi = mid
    return hi


def entropy_decay_check(g: Generator, alpha1: float, f0, t_grid,
                        lam: float | None = None) -> dict:
    """Decay inequalities for a relative density f evolving under Lhat:

      Var(f_t) <= e^{-2 lambda t} Var(f0)   (when lam is supplied)
      Ent_1(f_t) <= e^{-2 alpha1 t} Ent_1(f0)

    plus the finite-difference derivative identity
    d/dt Ent_1(f_t) = -2 Ehat_1(f_t) at the grid points (step 1e-4).
    Returns worst margins; positive margins mean the inequalities hold.
    """
    sp = stationary_state(g)
    if isinstance(f0, RelativeDensity):
        f0 = f0.value
    f0 = require_hermitian(f0)
    hat = hat_generator(g)

    def f_at(t):
        return hermitian_part(hat.evolve_heisenberg(f0, t))

    var0 = sp.variance(f0)
    ent0 = sp.ent1(f0) if np.linalg.eigvalsh(f0)[0] > 0 else None
    var_margin = np.inf
    ent_margin = np.inf
    deriv_err = 0.0
    for t in t_grid:
        ft = f_at(float(t))
        if lam is not None:
            var_margin = min(var_margin,
                             np.exp(-2.0 * lam * t) * var0 - sp.variance(ft))
        if ent0 is not None:
            ent_t = sp.ent1(ft)
            ent_margin = min(ent_margin, np.exp(-2.0 * alpha1 * t) * ent0 - ent_t)
            t_up, t_down = float(t) + 1e-4, max(float(t) - 1e-4, 0.0)
            fd = (sp.ent1(f_at(t_up)) - sp.ent1(f_at(t_down))) / (t_up - t_down)
            analytic = -2.0 * dirichlet(hat, 1.0, ft)
            deriv_err = max(deriv_err,
                            abs(fd - analytic) / (1.0 + abs(analytic)))
    return {"var_margin": None if lam is None else var_margin,
            "ent_margin": None if ent0 is None else ent_margin,
            "deriv_rel_err": deriv_err}


def entropy_production(g: Generator, rho) -> dict:
    """Entropy production rate Pi = dS/dt + Phi for a full-rank state, with
    dS/dt = -tr[L*(rho) log rho], Phi = tr[L*(rho) log sigma] (k_B = 1) and
    the identity Pi = 2 Ehat_1(Gamma^{-1}(rho)) checked to 1e-8."""
    sp = stationary_state(g)
    rho = _check_states([rho])[0]
    w = np.linalg.eigvalsh(rho)
    if w[0] <= 1e-12:
        raise ValueError("entropy_production needs a full-rank state (log rho)")
    log_rho = matrix_function(rho, np.log)
    lrho = g.apply_adjoint(rho)
    ds_dt = -_re_trace(lrho @ log_rho)
    phi = _re_trace(lrho @ sp.log_sigma)
    pi = ds_dt + phi
    pi_dirichlet = 2.0 * dirichlet(hat_generator(g), 1.0, sp.gamma_inv(rho))
    scale = 1.0 + abs(pi) + abs(pi_dirichlet)
    if abs(pi - pi_dirichlet) > 1e-8 * scale:
        raise ArithmeticError(
            f"entropy production mismatch: {pi!r} vs 2*Ehat_1 = {pi_dirichlet!r}")
    return {"Pi": pi, "dS_dt": ds_dt, "Phi": phi}


def pq_norm(g: Generator, p: float, q: float, t: float,
            restarts: int = 6, budget: int = 400, seed: int = 0) -> float:
    """Lower-bound estimate of ||T_t||_{(p,sigma)->(q,sigma)} for T_t = e^{tL}
    of g (pass hat_generator(g) for the hat semigroup) by multi-start
    maximization of ||T_t(f)||_q / ||f||_p over positive f (the supremum is
    attained on positive matrices).  This is a lower bound on the true norm,
    not a certificate."""
    sp = stationary_state(g)
    if not t >= 0:  # the inputs are checked once, here: the kernels below trust them
        raise ValueError(f"time must be >= 0, got {t}")
    _check_p(q, "lp_norm")
    _check_p(p, "lp_norm")
    d = g.dim
    evolution = g._evolution(t, heis=True)

    def ratio(f):
        tf = hermitian_part(evolution(f[None])[0])
        return sp._lp_norm(q, tf) / sp._lp_norm(p, f)

    def neg_packed(x):
        try:
            return -ratio(_expm_hermitian(_unpack(x, d)))
        except NUMERICAL_FAILURES:  # any other error is a bug
            return np.inf

    rng = np.random.default_rng(seed)
    best = ratio(np.eye(d, dtype=complex))
    starts = [_pack(np.zeros((d, d), dtype=complex))]
    starts += [_pack(random_hermitian(d, rng)) for _ in range(restarts - 1)]
    # scipy's defaults for Nelder-Mead with maxfev = budget: maxiter unset, xatol 1e-4
    for _, fun, _ in _side_by_side(
            lambda xs: [neg_packed(x) for x in xs],
            [_nelder_mead(x0, budget, xatol=1e-4, fatol=1e-12) for x0 in starts],
            [min(budget, d * d + 1)] * len(starts), d):
        best = max(best, -fun)
    return float(best)


def two_two_norm_decay(g: Generator, t: float) -> float:
    """Exact ||T_t - T_inf||_{(2,sigma)->(2,sigma)}: largest singular value
    of the sigma^{1/4}-transformed superoperator on the orthogonal
    complement of the stationary direction."""
    sp = stationary_state(g)
    prop = g.heisenberg_propagator(float(t))
    t_inf = np.outer(vec(np.eye(g.dim)), vec(sp.sigma).conj())
    m = sp.similarity_super(0.25, prop - t_inf)
    with blas_threads_for(m.shape[0]):
        return float(np.linalg.svd(m, compute_uv=False)[0])


def lazy_channel_super(g: Generator) -> np.ndarray:
    """Schrodinger superoperator of the channel T whose lift is g (L = T - id),
    after checking that T is lazy: the spectrum of T under the sigma^{-1/4}
    similarity must be nonnegative.  Raises ValueError otherwise."""
    sp = stationary_state(g)
    s = kraus_schrodinger_super(g.params["kraus"])
    m = hermitian_part(sp.similarity_super(-0.25, s))
    with blas_threads_for(m.shape[0]):
        w = np.linalg.eigvalsh(m)
    if w[0] < -1e-10:
        raise ValueError(f"channel is not lazy: transformed spectrum min {w[0]:.3e}")
    return s


def discrete_vs_continuous(kraus, n: int, rho0) -> dict:
    """chi^2 comparison of n channel steps against the lifted semigroup at
    time n, for a lazy reversible primitive channel T (L = T - id):
    chi2(T^{*n}(rho), sigma) <= chi2(e^{n L*}(rho), sigma).

    Laziness is checked by `lazy_channel_super`; non-lazy or non-reversible
    inputs are rejected.
    """
    g = lift_channel(kraus)
    if not g.primitive:
        raise ValueError("channel lift is not primitive")
    if not g.reversible:
        raise ValueError("discrete/continuous comparison needs a reversible channel")
    sp = g.stationary
    s_schro = lazy_channel_super(g)
    rho0 = _check_states([rho0])[0]
    rho_disc = rho0.copy()
    for _ in range(int(n)):
        rho_disc = hermitian_part(unvec(s_schro @ vec(rho_disc), g.dim))
    rho_cont = evolve(g, rho0, float(n))
    chi_d = chi2_divergence(rho_disc, sp)
    chi_c = chi2_divergence(rho_cont, sp)
    if chi_d > chi_c + 1e-9:
        raise ArithmeticError(
            f"discrete chi2 {chi_d!r} exceeds continuous {chi_c!r}")
    return {"chi2_discrete": chi_d, "chi2_continuous": chi_c, "n": int(n)}


def chi2_gap_time_check(g: Generator, alpha2: float, lam: float, c_values=(1.0, 2.0, 3.0),
                        n_haar: int = 20, seed: int = 0) -> dict:
    """At t >= log log(1/sigma_min)/(2 alpha2) + c/lambda the chi^2
    divergence is bounded by e^{2(1-c)}; returns the worst sampled margin
    (bound minus empirical) per c."""
    sp = stationary_state(g)
    states = _check_states(worst_case_states(sp, n_haar=n_haar, seed=seed))
    loglog = np.log(max(np.log(1.0 / sp.sigma_min), 1.0 + 1e-12))

    def chi2s(chunk, evolution):
        return _chi2s(_evolve_states(evolution, chunk)[0] - sp.sigma, sp)

    out = {}
    for c in c_values:
        t = loglog / (2.0 * alpha2) + c / lam
        bound = np.exp(2.0 * (1.0 - c))
        worst = max(_per_state(g, chi2s, states, t).tolist())
        out[float(c)] = {"t": float(t), "bound": float(bound),
                         "chi2_worst": float(worst), "margin": float(bound - worst)}
    return out


def hypercontractivity_check(g: Generator, alpha: float, times=(0.1, 0.5, 1.0),
                             n_probes: int = 100, seed: int = 0,
                             strong: bool = True) -> float:
    """Worst margin of ||T_t f||_{p(t)} <= ||f||_2 over random positive
    probes, with p(t) = 1 + e^{2 alpha t} (strong regularity) or
    1 + e^{alpha t} (weak).  Positive margins mean contraction holds."""
    sp = stationary_state(g)
    if not all(t >= 0 for t in times):  # checked once: the kernels below trust them
        raise ValueError(f"time must be >= 0, got {times}")
    rng = np.random.default_rng(seed)
    rate = 2.0 * alpha if strong else alpha
    evolutions = [(1.0 + np.exp(rate * t), g._evolution(float(t), heis=True)) for t in times]
    margin = np.inf
    for _ in range(n_probes):
        f = _matrix_function(random_hermitian(g.dim, rng, scale=0.7), np.exp, eig_floor=-np.inf)
        n2 = sp._lp_norm(2.0, f)
        for pt, evolution in evolutions:
            nt = sp._lp_norm(pt, hermitian_part(evolution(f[None])[0]))
            margin = min(margin, n2 * (1.0 + 1e-7) - nt)
    return float(margin)
