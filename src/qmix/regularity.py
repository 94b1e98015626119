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

regularity_profile evaluates its probes as stacks: the probes that pass the
positivity gate go in chunks of STACK_ENTRIES // (2 grid_n d^2) probes (all
12 of a default profile at d <= 4, one at a time at d = 16), so a chunk's
temporaries stay near 1 MiB at any d.  Each chunk forms its powers, evolves
them at each time and judges its rows with one stacked kernel each; a chunk
that raises one of NUMERICAL_FAILURES is evaluated again one probe at a time.
Every matrix and every row gets the bits it gets on its own, and the results
are folded over (probe, t) in draw order.

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
    STACK_ENTRIES,
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
    w, v = _check_positive(probe, "h_profile probe")  # checked before the evolution is built
    powers = _probe_powers(w[None], v[None], s_grid, quarters)
    return _h_profile(g._evolution(float(t), heis=True), powers)[0]


def _quarter_powers(sp, s_grid):
    """sigma^{s/4} and sigma^{-s/4} over the grid as two (n, d, d) stacks,
    shared by every probe and time of a profile, past the `sigma_power` cache
    that a grid's exponents would only flush.  Each eigenvalue power is the
    scalar-exponent w ** (s/4) of `lp_space._sigma_power` (a stacked power
    rounds differently at s/4 = 0.5, where numpy's w ** 0.5 takes a sqrt), and
    the 2n products are one stacked matmul."""
    w, v, n = sp.eigvals, sp.eigvecs, len(s_grid)
    exps = [float(s / 4.0) for s in s_grid] + [float(-s / 4.0) for s in s_grid]
    ws = np.array([w ** e for e in exps]).reshape(2 * n, sp.dim)
    powers = hermitian_part((v * ws[:, None, :]) @ v.conj().T)
    return powers[:n], powers[n:]


def _probe_powers(w, v, s_grid, quarters):
    """The probes' share of h over the grid, given the eigenvalues w (P, d)
    and eigenvectors v (P, d, d) of P positive probes (their positivity
    gate's) and the grid's `_quarter_powers`: the (P, n, d, d) stacks
    sigma^{-s/4} g^s sigma^{-s/4} (the arguments of T_t) and
    sigma^{s/4} g^{2-s} sigma^{s/4}.  Every g^s and g^{2-s} comes from one
    stacked float_power and matmul; each matrix gets the arithmetic it would
    get on its own."""
    s = np.asarray(s_grid, dtype=float)
    exponents = np.concatenate([s, 2.0 - s])[:, None]
    fw = np.float_power(w[:, None, :], exponents)[..., None, :]  # (P, 2n, 1, d)
    gs = hermitian_part((v[:, None] * fw) @ v.conj().swapaxes(-1, -2)[:, None])
    sq, sq_inv = quarters
    return sq_inv @ gs[:, :len(s)] @ sq_inv, sq @ gs[:, len(s):] @ sq


def _h_profile(evolution, powers) -> np.ndarray:
    """h over the grid at time t as a (P, n) array from P probes'
    `_probe_powers`, given the Heisenberg map of t (`Generator._evolution`):
    one evolution of all P n arguments of T_t, then P n traces."""
    args, weights = powers
    evolved = evolution(args.reshape((-1,) + args.shape[2:])).reshape(args.shape)
    return _re_trace(weights @ evolved)


def _chunk_profiles(evolution, powers):
    """`_h_profile` of a chunk, and per probe the message of the
    NUMERICAL_FAILURES it raises (None where it raises none).  A chunk of
    more than one probe that raises is evaluated again one probe at a time,
    as `_RatioProblem.ratios` does; a probe that fails on its own gets a row
    of zeros, which the fold skips."""
    try:
        return _h_profile(evolution, powers), [None] * len(powers[0])
    except NUMERICAL_FAILURES as exc:
        if len(powers[0]) == 1:
            return np.zeros(powers[0].shape[:2]), [str(exc)]
    parts = [_chunk_profiles(evolution, (args[None], weights[None]))
             for args, weights in zip(*powers)]
    return np.concatenate([h for h, _ in parts]), [e for _, errors in parts for e in errors]


def _verdicts(h, tr_g2):
    """The verdicts of each row of an (R, n) stack of profiles, given each
    row's probe's tr g^2: the arrays (min second difference, its ratio to the
    row's scale, convex, symmetric, monotonicity order, endpoint deviation
    over the scale), each entry the bits its row gets on its own."""
    scale = np.maximum(np.max(np.abs(h), axis=1), 1e-300)
    d2 = np.diff(h, n=2)
    min_d2 = np.min(d2, axis=1) if d2.shape[1] else np.zeros(len(h))
    convex = min_d2 >= -CONVEXITY_TOL * scale
    symmetric = np.max(np.abs(h - h[:, ::-1]), axis=1) <= SYMMETRY_TOL * scale
    ends, trace = np.abs(h[:, 0] - h[:, -1]), np.abs(h[:, 0] - tr_g2)
    endpoint = np.where(trace > ends, trace, ends)  # max(ends, trace), row by row
    return (min_d2, min_d2 / scale, convex, symmetric,
            _left_half_monotonicity_order(h, scale), endpoint / scale)


def _left_half_monotonicity_order(h: np.ndarray, scale) -> np.ndarray:
    """Per row of an (R, n) stack: the largest k <= CM_MAX_ORDER with
    (-1)^j diff^j(h) >= -tol on s in [0, 1] for all j <= k.  Each diff^j is one
    first difference of diff^{j-1}, the steps np.diff(n=j) takes."""
    dk = h[:, :h.shape[1] // 2 + 1]
    order, holds = np.zeros(len(h), dtype=int), np.ones(len(h), dtype=bool)
    for k in range(1, CM_MAX_ORDER + 1):
        dk = np.diff(dk)
        if dk.shape[1] == 0:
            break
        holds &= ~(np.min(((-1.0) ** k) * dk, axis=1) < -CM_TOL * scale)
        order[holds] = k
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

    The probes are drawn, then each is decomposed once by its positivity
    gate; a probe that fails the gate is recorded as a failure at each time.
    The others go as stacks, in chunks of STACK_ENTRIES // (2 grid_n d^2)
    probes.  Each time's evolution map is built once, and each chunk forms
    its powers once (`_probe_powers`), evolves them at each time
    (`_h_profile`) and judges its rows (`_verdicts`).  A chunk that raises
    one of NUMERICAL_FAILURES at a time is evaluated again one probe at a
    time, and each probe that fails on its own is recorded at that time.  The
    results are folded over (probe, t) in draw order, so the worst row (the
    first strict minimum), the order of the failures and every verdict are
    those of a loop over one probe at a time.
    """
    rng = np.random.default_rng(seed)
    s_grid = np.linspace(0.0, 2.0, grid_n)
    quarters = _quarter_powers(stationary_state(g), s_grid)
    evolutions = [(float(t), g._evolution(float(t), heis=True)) for t in times]
    n_sing = int(np.ceil(probes * 0.2))
    drawn = [random_probe(g.dim, rng, near_singular=(i < n_sing)) for i in range(probes)]
    # outcome[i][k]: probe i at time k, as its failure's message or its row's verdicts
    outcome = [[None] * len(evolutions) for _ in drawn]
    gated = []
    for i, probe in enumerate(drawn):
        try:
            gated.append((i, *_check_positive(probe, "h_profile probe")))
        except NUMERICAL_FAILURES as exc:
            outcome[i] = [str(exc)] * len(evolutions)
    chunk = max(1, STACK_ENTRIES // (2 * max(grid_n, 1) * g.dim ** 2))
    for start in range(0, len(gated), chunk):
        index, w, v = zip(*gated[start:start + chunk])
        powers = _probe_powers(np.array(w), np.array(v), s_grid, quarters)
        f = np.array([drawn[i] for i in index])
        tr_g2 = _re_trace(f @ f)
        for k, (_, evolution) in enumerate(evolutions):
            h, errors = _chunk_profiles(evolution, powers)
            for i, error, row in zip(index, errors, zip(*_verdicts(h, tr_g2), h)):
                outcome[i][k] = row if error is None else error
    worst = None
    convex_all = True
    symmetric_all = True
    cm_order = CM_MAX_ORDER
    endpoint_worst = 0.0
    failures = []
    for i, row in enumerate(outcome):
        for (t, _), out in zip(evolutions, row):
            if isinstance(out, str):
                failures.append({"probe_index": i, "t": t, "error": out})
                continue
            min_d2, ratio, convex, symmetric, order, endpoint, h = out
            convex_all &= convex
            symmetric_all &= symmetric
            cm_order = min(cm_order, int(order))
            endpoint_worst = max(endpoint_worst, endpoint)
            if worst is None or ratio < worst[0]:
                worst = (ratio, h, t, drawn[i], float(min_d2))
    if worst is None:
        raise ArithmeticError("all probes failed; no profile available")
    _, h, t, probe, min_d2 = worst
    return RegularityProfile(
        s_grid=s_grid, h_values=h.copy(), t=t, probe=probe,  # a copy frees the chunk
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
