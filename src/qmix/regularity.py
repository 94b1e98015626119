"""L_p-regularity evidence via the one-parameter trace functional h(s).

For a primitive generator with stationary state sigma, a positive probe g
and a time t > 0,

    h(s) = tr[ sigma^{s/4} g^{2-s} sigma^{s/4} T_t( sigma^{-s/4} g^s sigma^{-s/4} ) ]

on s in [0, 2].  Convexity of h over all probes and times implies weak
L_p-regularity; symmetry about s = 1 together with nonnegative even
derivatives at s = 1 implies the strong condition.  The verdicts reported
here are sufficient-evidence flags over sampled probes and times, never
proofs: the underlying conditions quantify over all g and t.

Complete monotonicity is checked through alternating-sign finite
differences on the left half-interval s in [0, 1]: a symmetric h that is a
positive-weight sum of exponentials (the structure behind every proved
case) has (-1)^n h^(n) >= 0 there, while the signs on the right half flip
by symmetry, so the left half is the falsifiable side.

direct_regularity_check evaluates the defining inequalities
E_p(f) >= c(p) * E_2(I_{2,p}(f)) themselves, which is the fallback route
when an h-profile is inconclusive; conjecture_scan drives both over random
generators and streams JSONL records for resumable long runs.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field

import numpy as np

from .dirichlet_gap import _dirichlet, _e2, _judge_negative
from .generators import (
    Generator,
    GeneratorError,
    random_davies,
    random_lindblad,
    random_reversible_unital,
    stationary_state,
)
from .lp_space import NUMERICAL_FAILURES, _check_p, _check_positive
from .operator_core import (
    _matrix_function,
    _re_trace,
    hermitian_part,
    matrix_to_json,
    random_hermitian,
    random_pure_state,
    report_dict,
)

__all__ = [
    "RegularityProfile",
    "h_functional",
    "h_profile",
    "regularity_profile",
    "direct_regularity_check",
    "conjecture_scan",
    "DEFAULT_P_GRID",
]

# clusters near p in [1, 2] where the weak condition changes form
DEFAULT_P_GRID = (1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0)
CONVEXITY_TOL = 1e-8
SYMMETRY_TOL = 1e-8
CM_TOL = 1e-8
CM_MAX_ORDER = 6


def h_functional(g: Generator, probe, t: float, s: float) -> float:
    """Evaluate h(s) for one probe and one time."""
    if not (0.0 <= s <= 2.0):
        raise ValueError("s must lie in [0, 2]")
    return float(h_profile(g, probe, t, [s])[0])


def h_profile(g: Generator, probe, t: float, s_grid) -> np.ndarray:
    """h on a whole s-grid, with one evolution map of the time t.

    The probe is decomposed once, by its positivity gate, and every g^s and
    g^{2-s} on the grid is formed from that one eigendecomposition."""
    quarters = _quarter_powers(stationary_state(g), s_grid)
    powers = _probe_powers(probe, s_grid, quarters)  # checked before the evolution is built
    return _h_profile(g._evolution(float(t), heis=True), powers)


def _quarter_powers(sp, s_grid):
    """sigma^{s/4} and sigma^{-s/4} over the grid as two (n, d, d) stacks,
    shared by every probe and time of a profile.  They are built one
    `WeightedSpace._sigma_power` per s, past the `sigma_power` cache that a
    grid's exponents would only flush: a stacked w ** (s/4) rounds
    differently at s/4 = 0.5, where numpy's scalar `w ** 0.5` takes a sqrt."""
    shape = (len(s_grid), sp.dim, sp.dim)
    return (np.array([sp._sigma_power(float(s / 4.0)) for s in s_grid]).reshape(shape),
            np.array([sp._sigma_power(float(-s / 4.0)) for s in s_grid]).reshape(shape))


def _probe_powers(probe, s_grid, quarters):
    """The probe's share of h over the grid, given the grid's `_quarter_powers`:
    the stacks sigma^{-s/4} g^s sigma^{-s/4} (the arguments of T_t) and
    sigma^{s/4} g^{2-s} sigma^{s/4}.  Every g^s and g^{2-s} comes from the
    probe's one (w, v), its positivity gate's, by one stacked float_power and
    matmul; each matrix gets the arithmetic it would get on its own."""
    w, v = _check_positive(probe, "h_profile probe")
    s = np.asarray(s_grid, dtype=float)
    exponents = np.concatenate([s, 2.0 - s])[:, None, None]
    gs, g2s = np.split(hermitian_part((v * np.float_power(w, exponents)) @ v.conj().T), 2)
    sq, sq_inv = quarters
    return sq_inv @ gs @ sq_inv, sq @ g2s @ sq


def _h_profile(evolution, powers) -> np.ndarray:
    """h over the grid at time t from a probe's `_probe_powers`, given the
    Heisenberg map of t (`Generator._evolution`): one evolution of all n
    arguments of T_t, then n traces."""
    args, weights = powers
    return _re_trace(weights @ evolution(args))


def _left_half_monotonicity_order(h: np.ndarray, scale: float) -> int:
    """Largest n <= CM_MAX_ORDER with (-1)^k diff^k(h) >= -tol on s in [0, 1]
    for all k <= n."""
    half = len(h) // 2 + 1
    left = h[:half]
    order = 0
    for k in range(1, CM_MAX_ORDER + 1):
        dk = np.diff(left, n=k)
        if dk.size == 0:
            break
        if np.min(((-1.0) ** k) * dk) < -CM_TOL * scale:
            break
        order = k
    return order


@dataclass
class RegularityProfile:
    s_grid: np.ndarray
    h_values: np.ndarray  # worst probe (smallest second-difference floor)
    t: float
    probe: np.ndarray
    verdicts: dict
    min_second_difference: float
    endpoint_dev: float
    n_probes: int = 0
    n_times: int = 0
    failures: list = field(default_factory=list)

    to_dict = report_dict


def random_probe(d: int, rng, near_singular: bool = False) -> np.ndarray:
    """Positive probe: exp of a Gaussian Hermitian, or eps*1 + projector to
    stress the log endpoints."""
    if near_singular:
        return 1e-3 * np.eye(d) + random_pure_state(d, rng)
    h = random_hermitian(d, rng, scale=0.6)  # exactly Hermitian: nothing to check
    return _matrix_function(h, np.exp, eig_floor=-np.inf)


def regularity_profile(g: Generator, probes: int = 20, times=(0.1, 0.5, 1.0),
                       grid_n: int = 101, seed: int = 0) -> RegularityProfile:
    """Worst case over probes x times of the h(s) verdicts; the first 20 % of
    the probes are near-singular.

    convex: second central differences >= -1e-8*scale on the grid;
    symmetric: max |h(s) - h(2-s)| <= 1e-8*scale;
    completely_monotone_to_order: alternating-difference order on [0, 1].
    All three are aggregated with AND (min for the order) over the samples.

    Each probe is decomposed once, by `_probe_powers`, and each time's
    evolution map is built once, before the probes; a probe whose
    decomposition fails is recorded as a failure at each time.
    """
    rng = np.random.default_rng(seed)
    s_grid = np.linspace(0.0, 2.0, grid_n)
    quarters = _quarter_powers(stationary_state(g), s_grid)
    evolutions = [(float(t), g._evolution(float(t), heis=True)) for t in times]
    worst = None
    convex_all = True
    symmetric_all = True
    cm_order = CM_MAX_ORDER
    endpoint_worst = 0.0
    failures = []
    n_sing = int(np.ceil(probes * 0.2))
    for i in range(probes):
        probe = random_probe(g.dim, rng, near_singular=(i < n_sing))
        try:
            powers = _probe_powers(probe, s_grid, quarters)
        except NUMERICAL_FAILURES as exc:  # recorded once per time, as each would fail
            failures += [{"probe_index": i, "t": t, "error": str(exc)} for t, _ in evolutions]
            continue
        for t, evolution in evolutions:
            try:
                h = _h_profile(evolution, powers)
            except NUMERICAL_FAILURES as exc:
                failures.append({"probe_index": i, "t": t, "error": str(exc)})
                continue
            scale = max(np.max(np.abs(h)), 1e-300)
            d2 = np.diff(h, n=2)
            min_d2 = float(np.min(d2)) if d2.size else 0.0
            convex = min_d2 >= -CONVEXITY_TOL * scale
            sym_dev = float(np.max(np.abs(h - h[::-1])))
            symmetric = sym_dev <= SYMMETRY_TOL * scale
            order = _left_half_monotonicity_order(h, scale)
            endpoint = max(abs(h[0] - h[-1]),
                           abs(h[0] - _re_trace(probe @ probe)))
            convex_all &= convex
            symmetric_all &= symmetric
            cm_order = min(cm_order, order)
            endpoint_worst = max(endpoint_worst, endpoint / scale)
            if worst is None or min_d2 / scale < worst[0]:
                worst = (min_d2 / scale, h, t, probe, min_d2)
    if worst is None:
        raise ArithmeticError("all probes failed; no profile available")
    _, h, t, probe, min_d2 = worst
    return RegularityProfile(
        s_grid=s_grid, h_values=h, t=t, probe=probe,
        verdicts={
            "convex": bool(convex_all),
            "symmetric": bool(symmetric_all),
            "completely_monotone_to_order": int(cm_order),
        },
        min_second_difference=min_d2,
        endpoint_dev=endpoint_worst,
        n_probes=probes, n_times=len(times), failures=failures)


def direct_regularity_check(g: Generator, p_grid=DEFAULT_P_GRID, probes: int = 20,
                            seed: int = 0) -> dict:
    """Worst margins of the defining L_p-regularity inequalities.

    weak margin:   E_p(f) - E_2(I_{2,p}(f))              for 1 <= p <= 2
                   E_p(f) - (1/(p-1)) E_2(I_{2,p}(f))    for p >= 2
    strong margin: E_p(f) - (2/p) E_2(I_{2,p}(f))
    Margins below -1e-8 (relative to the form size) flag a violation.

    The p >= 2 weak coefficient 1/(p-1) is what the secant construction in
    the h(s) route actually yields (the two branches are Hoelder mirrors of
    each other); it is weaker than the strong coefficient 2/p for every
    p > 2 and continuous at p = 2, and the depolarizing family satisfies it
    with room while a (p-1) coefficient already fails there on diagonal
    two-valued inputs.

    The probes are drawn, stacked once as an (n, d, d) stack and, being
    library-built, not checked.  L(f) is formed once for all p; for each p
    one eigendecomposition of Gamma^{1/p}(f) over the stack serves both E_p(f)
    and I_{2,p}(f), and the Dirichlet kernels run on the whole stack.  Each
    value is the one dirichlet and power_operator give its probe on its own,
    and the margins are folded over the probes in draw order.
    """
    sp = stationary_state(g)
    rng = np.random.default_rng(seed)
    out = {}
    f = np.array([random_probe(g.dim, rng, near_singular=(i % 5 == 4))
                  for i in range(probes)], dtype=complex).reshape(probes, g.dim, g.dim)
    act_f = g._apply(f)
    for p in p_grid:
        ep = e2i = []
        if probes:  # dirichlet checks p when it evaluates a probe
            pf = float(p)
            _check_p(pf, "dirichlet")
            root_eig = sp._root_eig(pf, f)
            ep = _judge_negative(_dirichlet(sp, pf, f, act_f, root_eig), g, f)
            i2p = sp._power_operator(2.0, pf, root_eig)
            e2i = _judge_negative(_e2(sp, i2p, g._apply(i2p)), g, i2p)
        cw = 1.0 if p <= 2.0 else 1.0 / (p - 1.0)
        weak_min = min([np.inf] + [a - cw * b for a, b in zip(ep, e2i)])
        strong_min = min([np.inf] + [a - (2.0 / p) * b for a, b in zip(ep, e2i)])
        scale = max([0.0] + [abs(x) for pair in zip(ep, e2i) for x in pair])
        out[float(p)] = {
            "weak_margin": float(weak_min),
            "strong_margin": float(strong_min),
            "scale": float(scale),
            "weak_violation": bool(weak_min < -1e-8 * max(scale, 1.0)),
            "strong_violation": bool(strong_min < -1e-8 * max(scale, 1.0)),
        }
    return out


def _scan_instance(dim: int, kind: str, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "generic":
        return random_lindblad(dim, rng)
    if kind == "davies":
        return random_davies(dim, rng)
    if kind == "reversible_unital":
        return random_reversible_unital(dim, rng)
    raise ValueError(f"unknown scan kind {kind!r}")


def _scan_key(index: int, dims, seed: int) -> tuple:
    """(index, instance seed, dim) of a scan record: what the scan of seed
    and dims writes on line index."""
    return index, seed * 100003 + index, dims[index % len(dims)]


def scan_instance_record(index: int, dims, seed: int, probes, p_grid) -> dict:
    """One deterministic scan record; the instance seed is derived from
    (seed, index) so a scan can resume from any line count."""
    kinds = ("generic", "davies", "reversible_unital")
    _, inst_seed, dim = _scan_key(index, dims, seed)
    kind = kinds[index % len(kinds)]
    try:
        g = _scan_instance(dim, kind, inst_seed)
    except (GeneratorError, np.linalg.LinAlgError) as exc:  # a failed draw; bugs raise
        return {"index": index, "dim": dim, "kind": kind, "seed": inst_seed,
                "error": str(exc), "error_kind": type(exc).__name__}
    res = direct_regularity_check(g, p_grid=p_grid, probes=probes,
                                  seed=inst_seed + 1)
    weak_viol = any(r["weak_violation"] for r in res.values())
    strong_viol = any(r["strong_violation"] for r in res.values())
    rec = {
        "index": index,
        "dim": dim,
        "kind": kind,
        "seed": inst_seed,
        "reversible": bool(g.reversible),
        "weak_violation": weak_viol,
        "strong_violation": strong_viol,
        "weak_margin_min": min(r["weak_margin"] for r in res.values()),
        "strong_margin_min": min(r["strong_margin"] for r in res.values()),
    }
    if weak_viol or (strong_viol and g.reversible):
        # a genuine counterexample candidate: keep everything
        rec["hamiltonian"] = (matrix_to_json(g.hamiltonian)
                              if g.hamiltonian is not None else None)
        rec["lindblad_ops"] = [matrix_to_json(k) for k in g.lindblad_ops or []]
        rec["per_p"] = {str(p): r for p, r in res.items()}
    return rec


def _record(task) -> dict:
    """scan_instance_record(*task), a module-level name a worker process can
    unpickle; it looks the function up at call time."""
    return scan_instance_record(*task)


def conjecture_scan(n_instances: int, dims=(2, 3), seed: int = 0,
                    out_path=None, probes: int = 8,
                    p_grid=(1.25, 1.5, 3.0, 4.0), start_index: int = 0,
                    jobs: int = 1) -> list:
    """Random-generator falsification harness for the regularity conjecture.

    Draws generic (non-reversible) and reversible (Davies, unital-pair)
    generators, runs direct_regularity_check on each, and records one JSON
    line per instance (appending when start_index > 0, so a long scan can
    resume from the line count of a partial output file).  Expected outcome:
    zero weak violations anywhere; strong violations only on non-reversible
    instances.  Violating instances carry full reproduction data.

    jobs > 1 computes instances in that many worker processes; each record
    is written and flushed in index order as soon as it and every earlier
    one are done, so an interrupted scan keeps its finished prefix either
    way.
    """
    tasks = [(i, dims, seed, probes, p_grid) for i in range(start_index, n_instances)]
    records = []
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(open(out_path, "a" if start_index else "w")) if out_path else None
        mapper = map
        if jobs > 1:
            # imported here, so a serial scan does not pay for it; the default
            # start method (fork on Linux) spares each worker a fresh import
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=jobs)
            stack.callback(pool.shutdown, cancel_futures=True)  # on error too
            mapper = pool.map  # yields in index order
        for rec in mapper(_record, tasks):
            records.append(rec)
            if fh:
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
    return records
