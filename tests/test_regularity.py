import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix.dirichlet_gap import dirichlet
from qmix.generators import (
    GeneratorError,
    build_depolarizing,
    build_projection,
    lift_channel,
    random_davies,
    random_lindblad,
    random_reversible_unital,
)
from qmix.lp_space import PositivityError, _check_positive, _sigma_power
from qmix.operator_core import (
    choi_from_super,
    haar_unitary,
    hermitian_part,
    max_abs,
    random_density_matrix,
    unvec,
)
from qmix.regularity import (
    _h_profile,
    _probe_powers,
    _quarter_powers,
    conjecture_scan,
    direct_regularity_check,
    h_functional,
    h_profile,
    random_probe,
    regularity_profile,
)

from conftest import qubit_davies, same_bits


def test_h_endpoints(rng):
    g = random_davies(3, rng)
    probe = random_probe(3, rng)
    s_grid = np.linspace(0.0, 2.0, 21)
    h = h_profile(g, probe, 0.4, s_grid)
    tr_g2 = float(np.trace(probe @ probe).real)
    scale = max(np.max(np.abs(h)), 1.0)
    assert abs(h[0] - h[-1]) < 1e-9 * scale
    assert abs(h[0] - tr_g2) < 1e-9 * scale


def test_h_rejects_bad_inputs(rng):
    g = build_depolarizing(2, 1.0)
    with pytest.raises(PositivityError):
        h_functional(g, np.diag([1.0, -0.2]), 0.5, 1.0)
    with pytest.raises(ValueError):
        h_functional(g, np.eye(2), 0.5, 2.5)
    with pytest.raises(ValueError, match="not Hermitian"):
        h_functional(g, [[1, 0.5], [0, 1]], 0.5, 1.0)


def test_h_unital_exponential_sum_route(rng):
    # independent evaluation through the Kraus operators of T_t obtained
    # from the Choi matrix of the propagator
    g = random_reversible_unital(3, rng)
    t = 0.4
    prop = g.schrodinger_propagator(t)
    j = choi_from_super(prop, 3)
    w, v = np.linalg.eigh(0.5 * (j + j.conj().T))
    kraus = [np.sqrt(max(wi, 0.0)) * unvec(v[:, i], 3)
             for i, wi in enumerate(w) if wi > 1e-12]
    gvals = np.array([0.5, 1.3, 2.1])
    probe = np.diag(gvals).astype(complex)
    for s in (0.3, 0.7, 1.6):
        expsum = 0.0
        for a in kraus:
            heis = a.conj().T  # Heisenberg Kraus of the adjoint pair
            for k in range(3):
                for l in range(3):
                    expsum += gvals[k] ** 2 * (gvals[l] / gvals[k]) ** s * \
                        abs(heis[l, k]) ** 2
        direct = h_functional(g, probe, t, s)
        assert abs(direct - expsum) < 1e-10 * (1 + abs(expsum))


def test_h_projection_closed_form(rng):
    # from the projection semigroup T_t(f) = (1-eps) tr[sigma f] 1 + eps f:
    # h(s) = (1-eps) tr[sigma^{s/2} g^{2-s}] tr[sigma^{1-s/2} g^s] + eps tr[g^2]
    sigma = random_density_matrix(3, rng)
    gamma, t = 0.8, 0.37
    g = build_projection(sigma, gamma)
    probe = random_probe(3, rng)
    ws, vs = np.linalg.eigh(sigma)
    wp, vp = np.linalg.eigh(probe)

    def spow(s):
        return (vs * ws ** s) @ vs.conj().T

    def ppow(s):
        return (vp * np.maximum(wp, 0.0) ** s) @ vp.conj().T

    eps = np.exp(-gamma * t)
    for s in (0.0, 0.3, 1.0, 1.7, 2.0):
        closed = (1 - eps) * np.trace(spow(s / 2) @ ppow(2 - s)).real * \
            np.trace(spow(1 - s / 2) @ ppow(s)).real + eps * np.trace(probe @ probe).real
        assert abs(h_functional(g, probe, t, s) - closed) < 1e-10 * (1 + abs(closed))


def test_profile_depolarizing_strong(rng):
    prof = regularity_profile(build_depolarizing(3, 1.0), probes=10, seed=4)
    assert prof.verdicts["convex"]
    assert prof.verdicts["symmetric"]
    assert prof.verdicts["completely_monotone_to_order"] >= 6
    assert prof.min_second_difference > -1e-8
    assert not prof.failures


def test_profile_davies_strong(rng):
    prof = regularity_profile(qubit_davies(beta=0.9), probes=10, seed=4)
    assert prof.verdicts["convex"] and prof.verdicts["symmetric"]
    assert prof.verdicts["completely_monotone_to_order"] >= 6


def test_profile_nonreversible_unital_convex(rng):
    u1, u2 = haar_unitary(3, rng), haar_unitary(3, rng)
    g = lift_channel([u1 / np.sqrt(2), u2 / np.sqrt(2)])
    prof = regularity_profile(g, probes=8, seed=4)
    assert prof.verdicts["convex"]  # unital: always a positive exponential sum
    assert not prof.verdicts["symmetric"]  # detailed balance fails


def test_direct_check_p2_margin_zero(rng):
    for g in (build_depolarizing(3, 1.0), random_davies(3, rng)):
        res = direct_regularity_check(g, p_grid=(2.0,), probes=8, seed=0)
        assert abs(res[2.0]["weak_margin"]) < 1e-10
        assert abs(res[2.0]["strong_margin"]) < 1e-10


def test_direct_check_depolarizing_strong(rng):
    res = direct_regularity_check(build_depolarizing(4, 1.0),
                                  p_grid=(1.25, 1.5, 3.0, 4.0), probes=12, seed=1)
    for r in res.values():
        assert r["strong_margin"] >= -1e-8 * max(r["scale"], 1.0)
        assert not r["weak_violation"]


def _direct_check_one_pair_at_a_time(g, p_grid, probes, seed):
    """Reference for direct_regularity_check: the public dirichlet and
    power_operator, one (p, probe) pair at a time."""
    sp = g.stationary
    rng = np.random.default_rng(seed)
    out = {}
    probe_list = [random_probe(g.dim, rng, near_singular=(i % 5 == 4))
                  for i in range(probes)]
    for p in p_grid:
        weak_min = np.inf
        strong_min = np.inf
        scale = 0.0
        for f in probe_list:
            ep = dirichlet(g, float(p), f)
            e2i = dirichlet(g, 2.0, sp.power_operator(2.0, float(p), f))
            cw = 1.0 if p <= 2.0 else 1.0 / (p - 1.0)
            weak_min = min(weak_min, ep - cw * e2i)
            strong_min = min(strong_min, ep - (2.0 / p) * e2i)
            scale = max(scale, abs(ep), abs(e2i))
        out[float(p)] = {
            "weak_margin": float(weak_min),
            "strong_margin": float(strong_min),
            "scale": float(scale),
            "weak_violation": bool(weak_min < -1e-8 * max(scale, 1.0)),
            "strong_violation": bool(strong_min < -1e-8 * max(scale, 1.0)),
        }
    return out


@pytest.mark.parametrize("probes", [7, 0])
def test_direct_check_equals_one_pair_at_a_time(rng, probes):
    p_grid = (1.0, 1.1, 1.25, 2.0, 3.0, 6.0)  # the p = 1 and p = 2 branches too
    for g in (random_davies(3, rng), random_lindblad(3, rng), build_depolarizing(4, 1.0)):
        res = direct_regularity_check(g, p_grid=p_grid, probes=probes, seed=5)
        ref = _direct_check_one_pair_at_a_time(g, p_grid, probes, seed=5)
        assert list(res) == list(ref)
        for p, entry in ref.items():
            assert res[p].keys() == entry.keys()
            for key, value in entry.items():
                assert res[p][key] == value, (p, key)
                assert type(res[p][key]) is type(value)
        if probes == 0:
            assert all(r["weak_margin"] == r["strong_margin"] == np.inf and r["scale"] == 0.0
                       and not r["weak_violation"] and not r["strong_violation"]
                       for r in res.values())


def test_convexity_implies_weak_margins(rng):
    g = random_davies(3, rng)
    prof = regularity_profile(g, probes=8, seed=7)
    assert prof.verdicts["convex"]
    res = direct_regularity_check(g, probes=8, seed=7)
    for r in res.values():
        assert r["weak_margin"] >= -1e-7 * max(r["scale"], 1.0)


def test_h_profile_equals_table_fed_kernel(rng):
    # the stacked profile against the per-s evaluation it replaced, at every s
    s_grid = np.linspace(0.0, 2.0, 101)  # 202 sigma powers, beyond the 64-entry cache
    generic = random_lindblad(3, rng)
    assert not generic.reversible
    gens = (random_davies(3, rng), generic, build_depolarizing(4, 1.0),
            build_projection(random_density_matrix(3, rng), 0.8))
    for g in gens:
        sp = g.stationary
        quarters = _quarter_powers(sp, s_grid)
        for i in range(3):
            probe = random_probe(g.dim, rng, near_singular=(i == 0))
            for t in (0.1, 1.0):
                h = h_profile(g, probe, t, s_grid)
                w, v = _check_positive(probe)
                assert np.array_equal(h, _h_profile(g._evolution(t, heis=True),
                                                    _probe_powers(w[None], v[None], s_grid,
                                                                  quarters))[0])
                w, v = np.linalg.eigh(0.5 * (probe + probe.conj().T))
                for s, hs in zip(s_grid, h):
                    gs = hermitian_part((v * np.float_power(w, s)) @ v.conj().T)
                    g2s = hermitian_part((v * np.float_power(w, 2.0 - s)) @ v.conj().T)
                    sq, sq_inv = sp.sigma_power(s / 4.0), sp.sigma_power(-s / 4.0)
                    evolved = g.evolve_heisenberg(sq_inv @ gs @ sq_inv, t)
                    assert hs == float(np.trace(sq @ g2s @ sq @ evolved).real)
                assert h_functional(g, probe, t, s_grid[37]) == h[37]  # a one-point grid
            assert h_profile(g, probe, 0.5, []).shape == (0,)


def test_conjecture_scan_records(tmp_path):
    out = tmp_path / "scan.jsonl"
    recs = conjecture_scan(6, dims=(2, 3), seed=9, probes=4, out_path=str(out))
    assert len(recs) == 6
    assert sum(1 for r in recs if r.get("weak_violation")) == 0
    # reversible instances must not violate the strong condition
    assert all(not r["strong_violation"] for r in recs
               if r.get("reversible") and "strong_violation" in r)
    assert len(out.read_text().strip().splitlines()) == 6


def test_scan_records_a_failed_draw_with_its_kind(monkeypatch):
    import qmix.regularity as regularity

    def failed_draw(dim, kind, seed):
        raise GeneratorError("failed to draw")

    monkeypatch.setattr(regularity, "_scan_instance", failed_draw)
    rec = regularity.scan_instance_record(0, (2,), 5, 4, (1.5,))
    assert rec["error"] == "failed to draw" and rec["error_kind"] == "GeneratorError"


def test_scan_lets_a_bug_raise(monkeypatch):
    import qmix.regularity as regularity

    def planted_bug(dim, kind, seed):
        raise TypeError("planted bug")

    monkeypatch.setattr(regularity, "_scan_instance", planted_bug)
    with pytest.raises(TypeError, match="planted bug"):
        regularity.scan_instance_record(0, (2,), 5, 4, (1.5,))


def test_regularity_profile_lets_a_bug_raise(monkeypatch):
    import qmix.regularity as regularity

    def planted_bug(*args):
        raise ValueError("planted bug")

    monkeypatch.setattr(regularity, "_h_profile", planted_bug)
    with pytest.raises(ValueError, match="planted bug"):
        regularity_profile(build_depolarizing(2, 1.0), probes=2, seed=0)


@pytest.mark.parametrize("exc", [PositivityError("not positive"), ArithmeticError("breakdown"),
                                 np.linalg.LinAlgError("no convergence"), ArithmeticError()])
def test_regularity_profile_records_a_numerical_failure(exc, monkeypatch):
    # planted at probe 0 and t = 0.1: the chunk of both probes raises, then
    # probe 0 alone raises and probe 1 alone does not
    import qmix.regularity as regularity

    original, calls = regularity._h_profile, []

    def probe_0_at_first_time_fails(evolution, powers):
        calls.append((evolution, powers[0][0]))
        first_evolution, probe_0 = calls[0]
        if evolution is first_evolution and np.array_equal(powers[0][0], probe_0):
            raise exc
        return original(evolution, powers)

    monkeypatch.setattr(regularity, "_h_profile", probe_0_at_first_time_fails)
    prof = regularity_profile(build_depolarizing(2, 1.0), probes=2, seed=0)
    assert prof.failures == [{"probe_index": 0, "t": 0.1, "error": str(exc)}]
    assert len(calls) == 5  # the chunk and each probe at t = 0.1, then the chunk at 0.5 and 1.0


def _monotonicity_order(h, scale):
    """The left-half monotonicity order of one profile, np.diff(n=k) per k."""
    import qmix.regularity as regularity

    left, order = h[:len(h) // 2 + 1], 0
    for k in range(1, regularity.CM_MAX_ORDER + 1):
        dk = np.diff(left, n=k)
        if dk.size == 0 or np.min(((-1.0) ** k) * dk) < -regularity.CM_TOL * scale:
            break
        order = k
    return order


def _profile_one_probe_at_a_time(g, probes, seed, times=(0.1, 0.5, 1.0), grid_n=101):
    """regularity_profile's loop as it ran before the probe stacks: the
    public h_profile per (probe, t), each profile judged on its own."""
    import qmix.regularity as regularity

    rng = np.random.default_rng(seed)
    s_grid = np.linspace(0.0, 2.0, grid_n)
    worst, convex_all, symmetric_all, cm_order, endpoint_worst, failures = (
        None, True, True, regularity.CM_MAX_ORDER, 0.0, [])
    n_sing = int(np.ceil(probes * 0.2))
    for i in range(probes):
        probe = regularity.random_probe(g.dim, rng, near_singular=(i < n_sing))
        for t in times:
            try:
                h = h_profile(g, probe, float(t), s_grid)
            except (PositivityError, ArithmeticError, np.linalg.LinAlgError) as exc:
                failures.append({"probe_index": i, "t": float(t), "error": str(exc)})
                continue
            scale = max(np.max(np.abs(h)), 1e-300)
            d2 = np.diff(h, n=2)
            min_d2 = float(np.min(d2)) if d2.size else 0.0
            convex_all &= min_d2 >= -regularity.CONVEXITY_TOL * scale
            symmetric_all &= float(np.max(np.abs(h - h[::-1]))) <= regularity.SYMMETRY_TOL * scale
            cm_order = min(cm_order, _monotonicity_order(h, scale))
            endpoint = max(abs(h[0] - h[-1]), abs(h[0] - float(np.trace(probe @ probe).real)))
            endpoint_worst = max(endpoint_worst, endpoint / scale)
            if worst is None or min_d2 / scale < worst[0]:
                worst = (min_d2 / scale, h, float(t), probe, min_d2)
    _, h, t, probe, min_d2 = worst
    return regularity.RegularityProfile(
        s_grid=s_grid, h_values=h, t=t, probe=probe,
        verdicts={"convex": bool(convex_all), "symmetric": bool(symmetric_all),
                  "completely_monotone_to_order": int(cm_order)},
        min_second_difference=min_d2, endpoint_dev=endpoint_worst,
        n_probes=probes, n_times=len(times), failures=failures)


def _assert_same_profile(prof, ref):
    for name in ("s_grid", "h_values", "probe"):
        assert np.array_equal(getattr(prof, name), getattr(ref, name)), name
    for name in ("t", "verdicts", "min_second_difference", "endpoint_dev", "n_probes",
                 "n_times", "failures"):
        assert getattr(prof, name) == getattr(ref, name), name
    assert type(prof.endpoint_dev) is type(ref.endpoint_dev)  # the fingerprint prints its repr


def _profile_generators(rng):
    # the generators of test_h_profile_equals_table_fed_kernel
    return (random_davies(3, rng), random_lindblad(3, rng), build_depolarizing(4, 1.0),
            build_projection(random_density_matrix(3, rng), 0.8))


def test_regularity_profile_equals_one_probe_at_a_time(rng):
    for g in _profile_generators(rng):
        _assert_same_profile(regularity_profile(g, probes=5, seed=4),
                             _profile_one_probe_at_a_time(g, probes=5, seed=4))


def _not_positive_at(monkeypatch, index, every):
    """Make random_probe return -probe for probe `index` of each profile of
    `every` probes: a probe that fails its positivity gate."""
    import qmix.regularity as regularity

    draw, calls = regularity.random_probe, []

    def planted(d, rng, near_singular=False):
        probe = draw(d, rng, near_singular)
        calls.append(probe)
        return -probe if (len(calls) - 1) % every == index else probe

    monkeypatch.setattr(regularity, "random_probe", planted)


def test_regularity_profile_records_a_failed_probe_at_each_time(rng, monkeypatch):
    _not_positive_at(monkeypatch, 1, 5)
    for g in _profile_generators(rng):
        prof = regularity_profile(g, probes=5, seed=4)
        ref = _profile_one_probe_at_a_time(g, probes=5, seed=4)
        assert [f["probe_index"] for f in prof.failures] == [1, 1, 1]
        assert [f["t"] for f in prof.failures] == [0.1, 0.5, 1.0]
        _assert_same_profile(prof, ref)


_FAMILIES = ("generic", "davies", "depolarizing", "projection")


def _drawn_generator(family, d, seed):
    rng = np.random.default_rng(seed)
    if family == "generic":
        return random_lindblad(d, rng)
    if family == "davies":
        return random_davies(d, rng)
    if family == "depolarizing":
        return build_depolarizing(d, 0.7)
    return build_projection(random_density_matrix(d, rng), 0.8)


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from(_FAMILIES), d=st.integers(2, 6), probes=st.integers(1, 12),
       grid_n=st.integers(1, 101), times=st.lists(st.sampled_from((0.0, 0.05, 0.3, 2.0)),
                                                 min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 16))
def test_regularity_profile_equals_one_probe_at_a_time_hypothesis(family, d, probes, grid_n,
                                                                   times, seed):
    g = _drawn_generator(family, d, seed)
    _assert_same_profile(regularity_profile(g, probes=probes, times=times, grid_n=grid_n, seed=seed),
                         _profile_one_probe_at_a_time(g, probes, seed, times, grid_n))


def test_regularity_profile_equals_one_probe_at_a_time_across_chunks(rng, monkeypatch):
    # d = 16 on the default grid: one probe per chunk; probe 1 fails its gate
    import qmix.regularity as regularity

    assert regularity.STACK_ENTRIES // (2 * 101 * 16 * 16) == 1
    g = random_lindblad(16, rng)
    _assert_same_profile(regularity_profile(g, probes=3, times=(0.3,), seed=2),
                         _profile_one_probe_at_a_time(g, 3, 2, times=(0.3,)))
    _not_positive_at(monkeypatch, 1, 3)
    prof = regularity_profile(g, probes=3, times=(0.3,), seed=2)
    assert [f["probe_index"] for f in prof.failures] == [1]
    _assert_same_profile(prof, _profile_one_probe_at_a_time(g, 3, 2, times=(0.3,)))


def test_regularity_profile_with_a_non_positive_probe_inside_a_chunk(rng, monkeypatch):
    # probe 3 of 7 fails its gate; the other six still go as one chunk
    _not_positive_at(monkeypatch, 3, 7)
    for g in _profile_generators(rng):
        prof = regularity_profile(g, probes=7, times=(0.2, 0.9), seed=11)
        assert [(f["probe_index"], f["t"]) for f in prof.failures] == [(3, 0.2), (3, 0.9)]
        _assert_same_profile(prof, _profile_one_probe_at_a_time(g, 7, 11, times=(0.2, 0.9)))


def test_quarter_powers_equal_one_sigma_power_per_exponent(rng):
    sp = random_davies(3, rng).stationary
    s_grid = np.array([0.0, 0.7, 2.0, -2.0, 1.3])  # s/4 = 0.5 and -0.5 included
    sq, sq_inv = _quarter_powers(sp, s_grid)
    for s, a, b in zip(s_grid, sq, sq_inv):
        assert same_bits(a, _sigma_power(sp.eigvals, sp.eigvecs, float(s / 4.0)))
        assert same_bits(b, _sigma_power(sp.eigvals, sp.eigvecs, float(-s / 4.0)))
    sq, sq_inv = _quarter_powers(sp, [])
    assert sq.shape == sq_inv.shape == (0, 3, 3)
