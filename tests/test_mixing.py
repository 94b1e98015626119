import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from qmix import generators, mixing
from qmix.dirichlet_gap import spectral_gap
from qmix.generators import (
    build_depolarizing,
    build_projection,
    hat_generator,
    lift_channel,
    random_davies,
    random_lindblad,
    random_reversible_unital,
)
from qmix.lp_space import NUMERICAL_FAILURES
from qmix.ls_estimator import depolarizing_alpha2, estimate_alpha
from qmix.mixing import (
    MixingCurve,
    RelativeDensity,
    bound_curves,
    chi2_divergence,
    chi2_gap_time_check,
    discrete_vs_continuous,
    distances,
    entropy_decay_check,
    entropy_production,
    evolve,
    hypercontractivity_check,
    mixing_time,
    pq_norm,
    relative_entropy_states,
    trace_norm,
    two_two_norm_decay,
    worst_case_states,
)
from qmix.operator_core import (
    STACK_ENTRIES,
    _expm_hermitian,
    _pack,
    _unpack,
    haar_unitary,
    hermitian_part,
    matrix_function,
    max_abs,
    random_density_matrix,
    random_hermitian,
    random_pure_state,
)
from qmix.regularity import regularity_profile

from conftest import qubit_davies, relative_entropy_oracle


def lazy_reversible_channel(d, rng):
    u, v = haar_unitary(d, rng), haar_unitary(d, rng)
    s_kraus = [0.5 * u, 0.5 * u.conj().T, 0.5 * v, 0.5 * v.conj().T]
    return [np.sqrt(0.5) * np.eye(d)] + [np.sqrt(0.5) * k for k in s_kraus]


# ---------------------------------------------------------------------------
# distances and relative densities
# ---------------------------------------------------------------------------

def test_distances_at_sigma(rng):
    g = random_davies(3, rng)
    d = distances(g.stationary.sigma, g.stationary)
    assert d["trace"] < 1e-12 and d["chi2"] < 1e-12 and d["rel_ent"] < 1e-10


def test_chi2_equals_variance_of_relative_density(rng):
    g = random_davies(3, rng)
    sp = g.stationary
    for _ in range(10):
        rho = random_density_matrix(3, rng)
        rd = RelativeDensity.from_state(rho, sp)
        assert abs(chi2_divergence(rho, sp) - sp.variance(rd.value)) < 1e-10 * (
            1 + sp.variance(rd.value))


def test_rel_ent_equals_ent1_of_relative_density(rng):
    g = random_davies(3, rng)
    sp = g.stationary
    rho = random_density_matrix(3, rng)
    rd = RelativeDensity.from_state(rho, sp)
    assert abs(relative_entropy_states(rho, sp.sigma) - sp.ent1(rd.value)) < 1e-9


def test_relative_entropy_rank_deficient_convention(rng):
    sp = random_davies(2, rng).stationary
    rho = random_pure_state(2, rng)
    val = relative_entropy_states(rho, sp.sigma)
    assert np.isfinite(val) and val > 0


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_evolve_identity_at_t0(rng):
    g = random_davies(3, rng)
    rho = random_density_matrix(3, rng)
    assert max_abs(evolve(g, rho, 0.0) - rho) == 0.0
    with pytest.raises(ValueError):
        evolve(g, rho, -0.1)


def test_evolve_depolarizing_closed_form(rng):
    g = build_depolarizing(3, 1.0)
    rho = random_density_matrix(3, rng)
    t = 0.9
    expected = (1 - np.exp(-t)) * np.eye(3) / 3 + np.exp(-t) * rho
    assert max_abs(evolve(g, rho, t) - expected) < 1e-12


def test_evolve_converges_to_stationary(rng):
    g = random_davies(3, rng)
    lam = spectral_gap(g).lam
    rho = random_pure_state(3, rng)
    out = evolve(g, rho, 50.0 / lam)
    assert trace_norm(out - g.stationary.sigma) < 1e-8


def test_distance_monotone_contraction(rng):
    for g in (random_davies(3, rng), build_depolarizing(4, 1.0)):
        sp = g.stationary
        rho = random_pure_state(g.dim, rng)
        prev = None
        for t in np.linspace(0.0, 3.0, 7):
            d = distances(evolve(g, rho, t), sp)
            if prev is not None:
                assert d["trace"] <= prev["trace"] + 1e-9
                assert d["chi2"] <= prev["chi2"] + 1e-9
                assert d["rel_ent"] <= prev["rel_ent"] + 1e-9
            prev = d


# ---------------------------------------------------------------------------
# mixing time and bound curves
# ---------------------------------------------------------------------------

def test_mixing_time_examples(rng):
    g = build_depolarizing(2, 1.0)
    assert mixing_time(g, 2.5) == 0.0
    tau = mixing_time(g, 0.1, n_haar=10, seed=1)
    assert abs(tau - np.log(10.0)) < 2e-3
    taus = [mixing_time(g, e, n_haar=6, seed=1) for e in (0.05, 0.1, 0.3, 1.0)]
    assert all(a >= b - 1e-9 for a, b in zip(taus, taus[1:]))


def test_bound_curve_prefactors_and_domination(rng):
    g = random_davies(3, rng)
    lam = spectral_gap(g).lam
    a1 = estimate_alpha(g, 1, budget=300, restarts=2, seed=0).alpha_estimate
    grid = np.linspace(0.0, 6.0, 13)
    curve = bound_curves(g, lam, a1, grid, n_haar=12, seed=0)
    sp = g.stationary
    assert abs(curve.chi2_bound[0] - np.sqrt(1.0 / sp.sigma_min)) < 1e-12
    assert abs(curve.ls_bound_a1[0] - np.sqrt(2 * np.log(1 / sp.sigma_min))) < 1e-12
    assert curve.domination_margin >= -1e-7
    assert curve.n_states == 3 + 12


def test_bound_curve_csv_and_json(tmp_path, rng):
    g = build_depolarizing(2, 1.0)
    grid = np.linspace(0.0, 2.0, 5)
    curve = bound_curves(g, 1.0, 1.0, grid, alpha2=1.0, strong_regular=True,
                         n_haar=4, seed=0)
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,trace_dist,chi2,rel_ent,chi2_bound,ls_bound_a1,ls_bound_a2"
    assert len(lines) == 6
    data = curve.to_json()
    assert set(data) >= {"t", "trace_dist", "chi2_bound", "ls_bound_a1", "ls_bound_a2"}
    # columns omitted when constants are missing
    c2 = bound_curves(g, 1.0, None, grid, n_haar=2, seed=0)
    assert c2.ls_bound_a1 is None and "ls_bound_a1" not in c2.to_json()


# The loops below evaluate one state at one time through the public
# single-state functions, as the library did before it evolved whole stacks;
# the stacked results must match them exactly.

def reference_worst(g, t_grid, n_haar, seed):
    sp = g.stationary
    states = worst_case_states(sp, n_haar=n_haar, seed=seed)
    worst = np.zeros((3, len(t_grid)))
    for i, t in enumerate(t_grid):
        for rho0 in states:
            dist = distances(evolve(g, rho0, t), sp)
            for row, key in zip(worst, ("trace", "chi2", "rel_ent")):
                row[i] = max(row[i], dist[key])
    return worst


def reference_mixing_time(g, epsilon, n_haar, seed, rtol=1e-4):
    sp = g.stationary
    states = worst_case_states(sp, n_haar=n_haar, seed=seed)

    def worst(t):
        return max(trace_norm(evolve(g, rho0, t) - sp.sigma) for rho0 in states)

    if worst(0.0) <= epsilon:
        return 0.0
    lo, hi = 0.0, 1.0
    while worst(hi) > epsilon:
        lo, hi = hi, hi * 2.0
    while hi - lo > rtol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if worst(mid) > epsilon:
            lo = mid
        else:
            hi = mid
    return hi


def mixing_family(name, d, rng):
    if name == "depolarizing":
        return build_depolarizing(d, 1.3)
    if name == "projection":
        return build_projection(random_density_matrix(d, rng), 0.7)
    if name == "davies":
        return random_davies(d, rng)
    return random_lindblad(d, rng)


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("family", ["depolarizing", "projection", "davies", "generic"])
def test_stacked_mixing_equals_single_state_loop(family, d, rng):
    g = mixing_family(family, d, rng)
    sp = g.stationary
    lam = spectral_gap(g).lam
    grid = np.linspace(0.0, 5.0 / lam, 6)  # t = 0: the pure states are rank-deficient
    curve = bound_curves(g, lam, 0.5 * lam, grid, alpha2=0.8 * lam, n_haar=4, seed=d)
    ref = reference_worst(g, grid, n_haar=4, seed=d)
    assert np.array_equal(curve.trace_dist, ref[0])
    assert np.array_equal(curve.chi2, ref[1])
    assert np.array_equal(curve.rel_ent, ref[2])
    bounds = (curve.chi2_bound, curve.ls_bound_a1, curve.ls_bound_a2)
    assert curve.domination_margin == min(float(np.min(b - ref[0])) for b in bounds)
    assert mixing_time(g, 0.05, n_haar=4, seed=d) == reference_mixing_time(
        g, 0.05, n_haar=4, seed=d)
    out = chi2_gap_time_check(g, 0.4 * lam, lam, n_haar=4, seed=d)
    states = worst_case_states(sp, n_haar=4, seed=d)
    for rec in out.values():
        ref_chi2 = max(chi2_divergence(evolve(g, rho0, rec["t"]), sp) for rho0 in states)
        assert rec["chi2_worst"] == ref_chi2


def test_worst_case_states_draw_from_a_given_generator(rng):
    sp = random_davies(3, rng).stationary
    drawn, twin = np.random.default_rng(5), np.random.default_rng(5)
    states = worst_case_states(sp, n_haar=3, seed=drawn)
    for j in range(3):
        assert np.array_equal(states[j], np.outer(sp.eigvecs[:, j], sp.eigvecs[:, j].conj()))
    for state in states[3:]:
        assert np.array_equal(state, random_pure_state(3, twin))
    assert drawn.standard_normal() == twin.standard_normal()  # advanced alike


def test_stacked_evolution_keeps_per_state_checks(monkeypatch, rng):
    g = random_davies(3, rng)
    propagator = g.schrodinger_propagator
    monkeypatch.setattr(g, "schrodinger_propagator", lambda t: 1.01 * propagator(t))
    with pytest.raises(ArithmeticError, match="lost trace"):
        bound_curves(g, 1.0, None, [0.0, 0.5], n_haar=3)
    with pytest.raises(ArithmeticError, match="lost trace"):
        mixing_time(g, 0.05, n_haar=3)
    # rho -> P(rho) + tr(rho) X with X traceless and min eigenvalue -3 keeps
    # the trace and breaks positivity
    x = np.zeros((3, 3), dtype=complex)
    x[0, 1] = x[1, 0] = 3.0
    shift = np.outer(x.reshape(-1, order="F"), np.eye(3).reshape(-1, order="F"))
    monkeypatch.setattr(g, "schrodinger_propagator", lambda t: propagator(t) + shift)
    with pytest.raises(ArithmeticError, match="lost positivity"):
        bound_curves(g, 1.0, None, [0.0, 0.5], n_haar=3)
    with pytest.raises(ArithmeticError, match="lost positivity"):
        mixing_time(g, 0.05, n_haar=3)


def _superop_arrays(obj, n):
    """Names of the arrays of trailing shape (n, n) that obj's attributes
    hold, inside dicts, lists and tuples too."""
    found = []

    def walk(name, x):
        if isinstance(x, np.ndarray) and x.shape[-2:] == (n, n):
            found.append(name)
        elif isinstance(x, dict):
            for k, v in x.items():
                walk(f"{name}[{k!r}]", v)
        elif isinstance(x, (list, tuple)):
            for i, v in enumerate(x):
                walk(f"{name}[{i}]", v)

    for name, x in vars(obj).items():
        walk(name, x)
    return found


def test_no_propagator_outlives_its_call(rng):
    g = random_lindblad(8, rng)
    hat = hat_generator(g)  # the hat entropy_decay_check evolves
    grid = [0.0, 0.5, 2.0]
    f0 = RelativeDensity.from_state(random_density_matrix(8, rng), g.stationary)
    bound_curves(g, 0.1, None, grid, n_haar=3)
    mixing_time(g, 0.05, n_haar=3)
    chi2_gap_time_check(g, 0.1, 0.2, n_haar=3)
    entropy_decay_check(g, 0.1, f0, grid)
    g.evolve_schrodinger(g.stationary.sigma, 1.5)
    g.evolve_heisenberg(np.eye(8), 2.5)
    for holder in (g, hat):
        assert set(_superop_arrays(holder, 64)) <= {"super_L", "super_Lstar"}
    assert "super_Lstar" in _superop_arrays(g, 64)  # built when g was classified


def test_evolutions_at_distinct_times_keep_no_propagator(rng):
    g = random_lindblad(16, rng)
    rho = g.stationary.sigma
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(70):
            g.evolve_schrodinger(rho, 0.01 * (i + 1))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # one 256 x 256 propagator is 1 MiB; a 64-entry cache of them kept 65 MiB
    assert kept <= 4 * 2 ** 20


def test_a_routine_builds_one_propagator_per_distinct_time(monkeypatch, rng):
    g = random_davies(3, rng)
    made = []
    expm = generators.expm_superop
    monkeypatch.setattr(generators, "expm_superop", lambda m, t: made.append(t) or expm(m, t))
    times = (0.1, 0.5, 1.0)
    for run, asked in ((lambda: regularity_profile(g, probes=4, times=times, grid_n=11), times),
                       (lambda: hypercontractivity_check(g, 0.3, times=times, n_probes=4), times),
                       (lambda: pq_norm(g, 2.0, 4.0, 0.5, restarts=2, budget=20), (0.5,))):
        made.clear()
        run()
        assert made == list(asked)


def test_mixing_time_rejects_an_rtol_that_is_not_positive(monkeypatch, rng):
    g = build_depolarizing(3, 1.0)
    monkeypatch.setattr(g, "_evolution", None)  # no evolution may start
    for rtol in (0.0, -1e-4, np.nan):
        with pytest.raises(ValueError, match="rtol must be > 0"):
            mixing_time(g, 0.05, n_haar=2, rtol=rtol)


def test_mixing_time_reuses_the_curve_at_its_grid_times(monkeypatch, rng):
    g = random_lindblad(8, rng)
    grid = np.linspace(0.0, 10.0, 41)  # `qmix mixing`'s default grid
    curve = bound_curves(g, 0.1, None, grid, n_haar=3, seed=4)
    asked = []
    propagator = g.schrodinger_propagator
    monkeypatch.setattr(g, "schrodinger_propagator",
                        lambda t: asked.append(t) or propagator(t))
    tau = mixing_time(g, 0.05, n_haar=3, seed=4, curve=curve)
    assert asked and not set(asked) & set(grid.tolist())
    assert tau == mixing_time(g, 0.05, n_haar=3, seed=4)
    for n_haar, seed in ((4, 4), (3, 5)):
        with pytest.raises(ValueError, match="another n_haar or seed"):
            mixing_time(g, 0.05, n_haar=n_haar, seed=seed, curve=curve)


def test_state_chunks_join_into_the_per_state_values():
    g = build_depolarizing(64, 1.0)
    assert STACK_ENTRIES // 64 ** 2 == 16  # 70 states: 1 alone, 8 chunks of 8 and one of 5
    grid = [0.0, 0.7, 3.0]
    curve = bound_curves(g, 1.0, None, grid, n_haar=6, seed=2)
    ref = reference_worst(g, grid, n_haar=6, seed=2)
    assert curve.n_states == 70
    assert np.array_equal(curve.trace_dist, ref[0])
    assert np.array_equal(curve.chi2, ref[1])
    assert np.array_equal(curve.rel_ent, ref[2])
    assert mixing_time(g, 0.05, n_haar=6, seed=2, rtol=1e-2) == reference_mixing_time(
        g, 0.05, n_haar=6, seed=2, rtol=1e-2)
    sp = g.stationary
    states = worst_case_states(sp, n_haar=6, seed=2)
    for rec in chi2_gap_time_check(g, 0.7, 1.0, c_values=(1.0,), n_haar=6, seed=2).values():
        assert rec["chi2_worst"] == max(chi2_divergence(evolve(g, rho0, rec["t"]), sp)
                                        for rho0 in states)


def test_chunks_of_one_time_share_one_propagator(monkeypatch, rng):
    g = random_lindblad(8, rng)
    grid = [0.0, 0.5, 2.0]
    whole = bound_curves(g, 0.1, None, grid, n_haar=3)
    made = []
    expm = generators.expm_superop
    monkeypatch.setattr(generators, "expm_superop", lambda m, t: made.append(t) or expm(m, t))
    monkeypatch.setattr(mixing, "STACK_ENTRIES", 4 * 8 ** 2)  # 11 states: 3 chunks
    chunked = bound_curves(g, 0.1, None, grid, n_haar=3)
    assert made == [0.5, 2.0]
    assert np.array_equal(chunked.trace_dist, whole.trace_dist)
    for run in (lambda: mixing_time(g, 0.05, n_haar=3),
                lambda: chi2_gap_time_check(g, 0.1, 0.2, n_haar=3)):
        made.clear()
        run()
        assert len(made) == len(set(made)) > 1


@pytest.mark.parametrize("family", ["dense_d8", "depolarizing_d64"])
def test_pooled_chunks_equal_a_serial_loop_bit_for_bit(monkeypatch, rng, family):
    g = random_lindblad(8, rng) if family == "dense_d8" else build_depolarizing(64, 1.0)
    d = g.dim
    monkeypatch.setattr(mixing, "STACK_ENTRIES", 6 * d * d)  # chunks of 3 states
    sp = g.stationary
    states = mixing._check_states(worst_case_states(sp, n_haar=5, seed=3))
    log_sigma = mixing._log_sigma(sp.eigvals, sp.eigvecs)
    threads, built = set(), []

    def builds(make):
        return lambda *args: built.append(threading.get_ident()) or make(*args)

    monkeypatch.setattr(generators, "expm_superop", builds(generators.expm_superop))
    monkeypatch.setattr(sp, "_sigma_power", builds(sp._sigma_power))
    sp._pow_cache.clear()

    caller = threading.get_ident()

    def measure(chunk, evolution):
        threads.add(threading.get_ident())
        if threading.get_ident() == caller:
            time.sleep(0.02)  # the worker asks first for what the caller has not built
        rho_t, _ = mixing._evolve_states(evolution, chunk)
        return np.array(mixing._distances(rho_t, sp, log_sigma))

    for t in (0.0, 0.4, 2.5):
        pooled = mixing._per_state(g, measure, states, t)
        evolution = g._evolution(t, heis=False)
        serial = np.concatenate([measure(states[i:i + 3], evolution)
                                 for i in range(0, len(states), 3)], axis=-1)
        assert pooled.shape == (3, len(states)) and np.array_equal(pooled, serial)
    assert len(threads) == 2
    assert built and set(built) == {caller}  # cached objects: the caller's only


@pytest.mark.parametrize("failing, first", [({2, 3, 5}, 2), ({1, 2}, 1), ({4}, 4),
                                             ({3, 4}, 3)])
def test_the_first_failing_chunk_raises(failing, first):
    def fn(chunk):
        if chunk in failing:
            if chunk == first:
                time.sleep(0.05)  # fails after the later chunks on the other thread
            raise ValueError(f"chunk {chunk}")
        return -chunk

    assert mixing._in_order(lambda c: -c, [0, 1, 2, 3, 4]) == [0, -1, -2, -3, -4]
    with pytest.raises(ValueError, match=f"chunk {first}$"):
        mixing._in_order(fn, [0, 1, 2, 3, 4, 5])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_completes_a_pooled_call(monkeypatch, rng):
    g = random_lindblad(8, rng)
    monkeypatch.setattr(mixing, "STACK_ENTRIES", 4 * 8 ** 2)  # 11 states: 6 chunks
    curve = bound_curves(g, 0.1, None, [0.5], n_haar=3)  # the parent's pool now exists
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        code = 1
        try:
            again = bound_curves(g, 0.1, None, [0.5], n_haar=3)
            code = 0 if np.array_equal(again.trace_dist, curve.trace_dist) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on its parent's pool")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(done[1]) == 0


PINNED_CURVE = """
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from qmix import mixing
from qmix.generators import build_depolarizing
assert len(os.sched_getaffinity(0)) == 1
curve = mixing.bound_curves(build_depolarizing(64, 1.0), 1.0, None, [0.0, 0.7, 3.0], n_haar=6,
                            seed=2)
print(repr([curve.trace_dist.tolist(), curve.chi2.tolist(), curve.rel_ent.tolist()]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_one_cpu_gets_the_bits_of_the_pool():
    curve = bound_curves(build_depolarizing(64, 1.0), 1.0, None, [0.0, 0.7, 3.0], n_haar=6,
                         seed=2)
    src = Path(mixing.__file__).resolve().parent.parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", PINNED_CURVE], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert res.stdout.strip() == repr([curve.trace_dist.tolist(), curve.chi2.tolist(),
                                       curve.rel_ent.tolist()])


def test_mixing_time_memory_stays_flat(rng):
    g = random_reversible_unital(16, rng)
    tracemalloc.start()
    try:
        mixing_time(g, 0.01, n_haar=6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 256 x 256 propagator is 1 MiB; keeping every bisection time's
    # propagator peaked near 30 MiB
    assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# entropy decay and production
# ---------------------------------------------------------------------------

def test_entropy_decay_identity_input(rng):
    g = random_davies(3, rng)
    res = entropy_decay_check(g, alpha1=0.3, f0=np.eye(3), t_grid=[0.5, 1.0])
    assert res["ent_margin"] >= -1e-12


def test_entropy_decay_depolarizing_projector(rng):
    # paper's introductory bound alpha_1 >= gamma/2 must make Ent_1 decay
    g = build_depolarizing(3, 1.0)
    sp = g.stationary
    rho0 = 0.9 * random_pure_state(3, rng) + 0.1 * np.eye(3) / 3
    f0 = RelativeDensity.from_state(rho0, sp)
    lam = 1.0
    res = entropy_decay_check(g, alpha1=0.5, f0=f0, t_grid=[0.3, 0.8, 1.5], lam=lam)
    assert res["var_margin"] >= -1e-7
    assert res["ent_margin"] >= -1e-7
    assert res["deriv_rel_err"] <= 1e-4


def test_entropy_decay_estimated_alpha(rng):
    g = random_davies(3, rng)
    a1 = estimate_alpha(g, 1, budget=300, restarts=2, seed=0).alpha_estimate
    rho0 = random_density_matrix(3, rng)
    f0 = RelativeDensity.from_state(rho0, g.stationary)
    res = entropy_decay_check(g, alpha1=a1, f0=f0, t_grid=[0.2, 0.6, 1.2])
    assert res["ent_margin"] >= -1e-7


def test_entropy_production_identities(rng):
    g = qubit_davies(beta=0.8)
    out = entropy_production(g, g.stationary.sigma)
    assert abs(out["Pi"]) < 1e-10
    for _ in range(10):
        rho = random_density_matrix(2, rng)
        out = entropy_production(g, rho)
        assert out["Pi"] >= -1e-12
        assert abs(out["Pi"] - out["dS_dt"] - out["Phi"]) < 1e-8 * (1 + abs(out["Pi"]))
    with pytest.raises(ValueError):
        entropy_production(g, random_pure_state(2, rng))


# ---------------------------------------------------------------------------
# p -> q norms
# ---------------------------------------------------------------------------

def test_pq_norm_at_t0(rng):
    g = build_depolarizing(3, 1.0)
    val = pq_norm(g, 2.0, 3.0, 0.0, restarts=2, budget=150, seed=0)
    assert val >= 1.0 - 1e-12


def test_pq_norm_duality(rng):
    # ||T_t||_{p->q} = ||That_t||_{q'->p'} with Hoelder duals; use a unital
    # non-reversible channel lift so that That != T
    u1, u2 = haar_unitary(3, rng), haar_unitary(3, rng)
    g = lift_channel([u1 / np.sqrt(2), u2 / np.sqrt(2)])
    p, q, t = 2.0, 4.0, 0.15
    n_direct = pq_norm(g, p, q, t, restarts=4, budget=300, seed=1)
    n_dual = pq_norm(hat_generator(g), q / (q - 1), p / (p - 1), t,
                     restarts=4, budget=300, seed=2)
    assert abs(n_direct - n_dual) <= 0.02 * max(n_direct, n_dual)


def _scipy_pq_norm(g, p, q, t, restarts, budget, seed):
    """pq_norm's body on scipy's Nelder-Mead, one restart after another: the
    reference for its search."""
    sp = generators.stationary_state(g)
    d = g.dim

    def ratio(f):
        return sp.lp_norm(q, hermitian_part(g.evolve_heisenberg(f, t))) / sp.lp_norm(p, f)

    def neg_packed(x):
        try:
            return -ratio(_expm_hermitian(_unpack(x, d)))
        except NUMERICAL_FAILURES:
            return np.inf

    rng = np.random.default_rng(seed)
    best = ratio(np.eye(d))
    starts = [_pack(np.zeros((d, d), dtype=complex))]
    starts += [_pack(random_hermitian(d, rng)) for _ in range(restarts - 1)]
    for x0 in starts:
        res = minimize(neg_packed, x0, method="Nelder-Mead",
                       options={"maxfev": budget, "fatol": 1e-12})
        best = max(best, -res.fun)
    return float(best)


def test_pq_norm_equals_its_scipy_search(rng):
    for d in (2, 3, 4):
        for g in (random_davies(d, rng), hat_generator(random_lindblad(d, rng))):
            # below and above d^2 + 1; at d = 2 the tolerances end the search before 500
            for budget in (d * d // 2, 3 * d * d + 10) + ((500,) if d == 2 else ()):
                for p, q, t in ((2.0, 4.0, 0.3), (1.5, 3.0, 0.1)):
                    args = (g, p, q, t, 3, budget, int(rng.integers(100)))
                    assert pq_norm(*args) == _scipy_pq_norm(*args), (d, budget, p)


def test_pq_norm_checks_its_inputs_once_before_any_evaluation(monkeypatch, rng):
    g = random_davies(3, rng)
    monkeypatch.setattr(g, "_evolution", None)  # no evaluation may start
    with pytest.raises(ValueError, match="lp_norm requires p >= 1, got 0.7"):
        pq_norm(g, 0.5, 0.7, 0.3, restarts=1, budget=5)
    with pytest.raises(ValueError, match="lp_norm requires p >= 1, got 0.5"):
        pq_norm(g, 0.5, 2.0, 0.3, restarts=1, budget=5)
    for t in (-0.1, np.nan):
        with pytest.raises(ValueError, match="time must be >= 0"):
            pq_norm(g, 2.0, 4.0, t, restarts=1, budget=5)
        with pytest.raises(ValueError, match="time must be >= 0"):
            hypercontractivity_check(g, 0.5, times=(0.1, t), n_probes=1)


def test_pq_norm_lets_a_bug_in_the_objective_raise(monkeypatch, rng):
    import qmix.mixing as mixing
    g = random_davies(3, rng)
    # a wrong-dimension matrix reaches the evolution: a bug, not a value of inf
    monkeypatch.setattr(mixing, "_unpack", lambda x, d: np.eye(d + 1, dtype=complex))
    with pytest.raises(ValueError):
        pq_norm(g, 2.0, 4.0, 0.5, restarts=1, budget=5)


def test_two_two_norm_decay(rng):
    g = random_davies(3, rng)
    lam = spectral_gap(g).lam
    for t in (0.2, 0.7, 1.5):
        val = two_two_norm_decay(g, t)
        assert val <= np.exp(-lam * t) * (1 + 1e-9)


# ---------------------------------------------------------------------------
# discrete vs continuous
# ---------------------------------------------------------------------------

def test_discrete_vs_continuous_n0_equal(rng):
    kraus = lazy_reversible_channel(3, rng)
    rho = random_density_matrix(3, rng)
    out = discrete_vs_continuous(kraus, 0, rho)
    assert abs(out["chi2_discrete"] - out["chi2_continuous"]) < 1e-12


def test_discrete_vs_continuous_lazy_depolarizing(rng):
    d = 3
    kraus_depol = []
    for k in range(d):
        for l in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = 1.0
            kraus_depol.append(e / np.sqrt(d))
    lazy = [np.sqrt(0.5) * np.eye(d)] + [np.sqrt(0.5) * m for m in kraus_depol]
    rho = random_density_matrix(d, rng)
    for n in range(1, 11):
        out = discrete_vs_continuous(lazy, n, rho)
        assert out["chi2_discrete"] <= out["chi2_continuous"] + 1e-9


def test_discrete_vs_continuous_rejects_non_lazy(rng):
    u = haar_unitary(3, rng)
    kraus = [u / np.sqrt(2), u.conj().T / np.sqrt(2)]
    # {U, U^dag} alone is reversible but not primitive -> rejected
    with pytest.raises(ValueError):
        discrete_vs_continuous(kraus, 1, random_density_matrix(3, rng))
    # a non-lazy reversible channel: reflections give negative eigenvalues
    rng2 = np.random.default_rng(5)
    u1, v1 = haar_unitary(3, rng2), haar_unitary(3, rng2)
    s_kraus = [0.5 * u1, 0.5 * u1.conj().T, 0.5 * v1, 0.5 * v1.conj().T]
    with pytest.raises(ValueError, match="lazy"):
        discrete_vs_continuous(s_kraus, 1, random_density_matrix(3, rng))


def test_chi2_gap_time_check(rng):
    g = build_depolarizing(8, 1.0)
    out = chi2_gap_time_check(g, depolarizing_alpha2(8, 1.0), 1.0,
                              c_values=(1.0, 2.0, 3.0), n_haar=8, seed=0)
    for c, rec in out.items():
        assert rec["margin"] >= 0.0


# ---------------------------------------------------------------------------
# hypercontractivity
# ---------------------------------------------------------------------------

def test_hypercontractivity_depolarizing(rng):
    g = build_depolarizing(3, 1.0)
    margin = hypercontractivity_check(g, depolarizing_alpha2(3, 1.0),
                                      n_probes=30, seed=2, strong=True)
    assert margin >= 0.0


def _hypercontractivity_loop(g, alpha, times, n_probes, seed, strong):
    """hypercontractivity_check through the validating public calls."""
    sp = generators.stationary_state(g)
    rng = np.random.default_rng(seed)
    rate = 2.0 * alpha if strong else alpha
    margin = np.inf
    for _ in range(n_probes):
        f = matrix_function(random_hermitian(g.dim, rng, scale=0.7), np.exp, eig_floor=-np.inf)
        n2 = sp.lp_norm(2.0, f)
        for t in times:
            pt = 1.0 + np.exp(rate * t)
            nt = sp.lp_norm(pt, hermitian_part(g.evolve_heisenberg(f, float(t))))
            margin = min(margin, n2 * (1.0 + 1e-7) - nt)
    return float(margin)


def test_hypercontractivity_check_equals_the_validating_loop(rng):
    for g in (build_depolarizing(3, 1.0), random_davies(3, rng),
              hat_generator(random_lindblad(4, rng)),
              build_projection(random_density_matrix(3, rng), 0.8)):
        for strong in (True, False):
            args = (g, 0.4, (0.1, 0.5, 1.0), 7, int(rng.integers(100)), strong)
            assert hypercontractivity_check(*args) == _hypercontractivity_loop(*args)


def test_davies_sigma_min_bound(rng):
    # 1/sigma_min <= d * e^{beta ||H||_inf} for thermal generators
    g = random_davies(3, rng)
    h = g.params["hamiltonian"]
    beta = g.params["beta"]
    bound = g.dim * np.exp(beta * np.max(np.abs(np.linalg.eigvalsh(h))))
    assert 1.0 / g.stationary.sigma_min <= bound * (1 + 1e-12)
