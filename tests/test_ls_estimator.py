import numpy as np
import pytest

from qmix.dirichlet_gap import dirichlet, spectral_gap
from qmix.generators import (
    build_depolarizing,
    build_projection,
    build_random_unitary,
    hat_generator,
    random_davies,
    random_lindblad,
    random_reversible_unital,
)
from qmix import ls_estimator
from qmix.ls_estimator import (
    _bracketed_min,
    _near_identity_direction,
    _RatioProblem,
    depolarizing_alpha2,
    estimate_alpha,
    expander_alpha2_upper,
    partial_order_verdict,
    unital_alpha2_lower,
)
from qmix.operator_core import (
    _pack,
    _unpack,
    matrix_function,
    random_density_matrix,
    random_hermitian,
)


def test_depolarizing_alpha2_closed_form():
    assert depolarizing_alpha2(2, 3.0) == 3.0
    assert abs(depolarizing_alpha2(3, 1.0) - 2.0 / 3.0 / np.log(2.0)) < 1e-15
    with pytest.raises(ValueError):
        depolarizing_alpha2(1, 1.0)


def test_depolarizing_alpha2_monotone_in_d():
    vals = [depolarizing_alpha2(d, 1.0) for d in range(2, 65)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_unital_lower_bound():
    g = build_depolarizing(4, 1.0)
    lam = spectral_gap(g).lam
    assert abs(unital_alpha2_lower(g, lam) - depolarizing_alpha2(4, 1.0)) < 1e-10
    g2 = build_depolarizing(2, 1.0)
    assert abs(unital_alpha2_lower(g2, 1.0) - 1.0) < 1e-12


def test_unital_lower_rejects_non_unital(rng):
    g = random_davies(2, rng)
    assert not g.unital
    with pytest.raises(ValueError):
        unital_alpha2_lower(g, 1.0)


def test_expander_upper_bound_values():
    expected = np.log(2.0) * (4.0 + np.log(np.log(16.0))) / (2.0 * np.log(12.0))
    assert abs(expander_alpha2_upper(2, 16) - expected) < 1e-14
    # decreases to zero along d = 2^k at fixed D
    vals = [expander_alpha2_upper(2, 2 ** k) for k in range(2, 21)]
    assert all(a > b for a, b in zip(vals[2:], vals[3:]))
    assert vals[-1] < 0.45
    with pytest.raises(ValueError):
        expander_alpha2_upper(2, 1)
    with pytest.raises(ValueError):
        expander_alpha2_upper(1, 8)


def test_estimate_alpha_rejects_general_p(rng):
    g = build_depolarizing(2, 1.0)
    with pytest.raises(ValueError):
        estimate_alpha(g, 3)


def test_estimate_depolarizing_alpha2(rng):
    for d in (2, 4):
        g = build_depolarizing(d, 1.0)
        rep = estimate_alpha(g, 2, budget=500, restarts=3, seed=3)
        exact = depolarizing_alpha2(d, 1.0)
        assert abs(rep.alpha_estimate - exact) <= 1e-3 * exact
        assert rep.analytic_bounds["closed_form"] == exact
        assert rep.alpha_estimate <= rep.analytic_bounds["gap_upper"] * (1 + 1e-6)


def test_estimate_report_consistency(rng):
    g = build_depolarizing(3, 1.0)
    rep = estimate_alpha(g, 2, budget=400, restarts=2, seed=0)
    sp = g.stationary
    ent = sp.ent2(rep.witness)
    assert ent > 1e-10
    ratio = dirichlet(g, 2.0, rep.witness) / ent
    assert abs(ratio - rep.alpha_estimate) <= 1e-8 * (1 + rep.alpha_estimate)
    assert rep.witness_min_eig > 0


def test_estimate_scale_invariance_at_witness(rng):
    g = build_depolarizing(3, 1.0)
    rep = estimate_alpha(g, 2, budget=300, restarts=2, seed=1)
    sp = g.stationary
    f, c = rep.witness, 2.6
    r1 = dirichlet(g, 2.0, f) / sp.ent2(f)
    r2 = dirichlet(g, 2.0, c * f) / sp.ent2(c * f)
    assert abs(r1 - r2) <= 1e-8 * (1 + abs(r1))


def test_estimate_seed_robustness(rng):
    g = build_depolarizing(4, 1.0)
    a = estimate_alpha(g, 2, budget=400, restarts=3, seed=101).alpha_estimate
    b = estimate_alpha(g, 2, budget=400, restarts=3, seed=202).alpha_estimate
    assert abs(a - b) <= 1e-3 * max(a, b)


def test_estimate_alpha1_upper_bounded_by_gap(rng):
    for i in range(3):
        g = random_davies(2, rng) if i % 2 == 0 else random_reversible_unital(3, rng)
        gap = spectral_gap(g, seed=i)
        rep = estimate_alpha(g, 1, budget=400, restarts=2, seed=i, gap=gap)
        assert rep.alpha_estimate <= gap.lam * (1 + 1e-3)


def test_partial_order_verdict(rng):
    g = random_reversible_unital(3, rng)
    v = partial_order_verdict(g, budget=400, restarts=2, seed=0)
    assert v["ok_alpha2_le_2alpha1"] is True
    assert v["alpha1_le_lambda_applicable"] is True
    assert v["ok_alpha1_le_lambda"] is True
    assert v["alpha2"] <= 2.0 * v["alpha1"] * (1 + 1e-4)


def test_partial_order_verdict_reuses_a_given_gap(rng):
    g = random_davies(3, rng)
    fresh = partial_order_verdict(g, budget=150, restarts=2, seed=4)
    given = partial_order_verdict(g, budget=150, restarts=2, seed=4,
                                  gap=spectral_gap(g, seed=4))
    for key in ("alpha1", "alpha2", "lambda", "ok_alpha2_le_2alpha1", "ok_alpha1_le_lambda"):
        assert fresh[key] == given[key]
    for rep in ("report1", "report2"):
        assert fresh[rep].to_dict() == given[rep].to_dict()  # n_evals included
        assert np.array_equal(fresh[rep].witness, given[rep].witness)


def test_expander_estimate_respects_bounds(rng):
    g = build_random_unitary(4, 2, seed=5)
    gap = spectral_gap(g, seed=0)
    rep = estimate_alpha(g, 2, budget=400, restarts=3, seed=0, gap=gap)
    upper = expander_alpha2_upper(2, 4)
    lower = unital_alpha2_lower(g, gap.lam)
    assert rep.alpha_estimate <= upper
    assert rep.alpha_estimate >= lower * (1 - 1e-3)
    assert rep.analytic_bounds["expander_upper"] == upper


# ---------------------------------------------------------------------------
# The fused LS ratio and the Hermitian parameterization
# ---------------------------------------------------------------------------

def test_fused_ratio_equals_public_path(rng):
    gens = {
        "depolarizing": build_depolarizing(3, 1.0),
        "projection": build_projection(random_density_matrix(3, rng), 0.7),
        "davies": random_davies(3, rng),
        "generic": random_lindblad(3, rng),
    }
    assert not gens["generic"].reversible
    for name, g in gens.items():
        sp = g.stationary
        for p in (1, 2):
            for hat in (False, True):
                gen = hat_generator(g) if hat else g
                prob = _RatioProblem(gen, p)
                for _ in range(4):
                    f = matrix_function(random_hermitian(3, rng, 0.8), np.exp,
                                        eig_floor=-np.inf)
                    public = dirichlet(gen, float(p), f) / sp.ent(float(p), f)
                    assert prob.ratio(f) == public, (name, p, hat)


def test_ratio_infinite_only_on_numerical_failure(rng):
    g = random_davies(3, rng)
    for p in (1, 2):
        prob = _RatioProblem(g, p)
        not_pd = np.diag([1.0, 0.5, -0.2]).astype(complex)
        assert prob.ratio(not_pd) == np.inf
        with pytest.raises(ValueError):
            prob.ratio(np.eye(4, dtype=complex))


def test_bracketed_min_stops_at_an_infinite_grid(rng):
    prob = _RatioProblem(random_davies(3, rng), 1)
    grid = np.linspace(-1.0, 1.0, 5)
    assert _bracketed_min(prob, lambda x: -np.eye(3), grid) == (np.inf, None)
    assert prob.n_evals == len(grid)  # no Brent search after the grid


def test_near_identity_direction_degenerates_to_none(monkeypatch, rng):
    g = random_davies(3, rng)
    kernel = ls_estimator._dk_log_kernel
    for p in (1, 2):
        assert _near_identity_direction(g, p) is not None
    # a non-finite curvature matrix is tested for, not caught
    monkeypatch.setattr(ls_estimator, "_dk_log_kernel", lambda w: np.full((len(w),) * 2, np.nan))
    for p in (1, 2):
        assert _near_identity_direction(g, p) is None
    # an indefinite Gram matrix makes scipy raise LinAlgError
    monkeypatch.setattr(ls_estimator, "_dk_log_kernel", lambda w: -kernel(w))
    for p in (1, 2):
        assert _near_identity_direction(g, p) is None


def test_near_identity_direction_lets_a_bug_in_the_eigensolve_raise(monkeypatch, rng):
    import scipy.linalg
    g = random_davies(3, rng)

    def planted(a, b):
        raise ValueError("planted bug")

    monkeypatch.setattr(scipy.linalg, "eigh", planted)
    for p in (1, 2):
        with pytest.raises(ValueError, match="planted bug"):
            _near_identity_direction(g, p)


def _pack_loop(h):
    d = h.shape[0]
    out = np.empty(d * d)
    out[:d] = np.diag(h).real
    k = d
    for a in range(d):
        for b in range(a + 1, d):
            out[k] = h[a, b].real
            out[k + 1] = h[a, b].imag
            k += 2
    return out


def _unpack_loop(x, d):
    h = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(h, x[:d])
    k = d
    for a in range(d):
        for b in range(a + 1, d):
            h[a, b] = x[k] + 1j * x[k + 1]
            h[b, a] = x[k] - 1j * x[k + 1]
            k += 2
    h -= np.trace(h).real / d * np.eye(d)
    return h


def test_pack_unpack_match_loop_reference(rng):
    for d in range(2, 7):
        h = random_hermitian(d, rng)
        x = _pack(h)
        assert np.array_equal(x, _pack_loop(h))
        assert np.array_equal(_unpack(x, d), _unpack_loop(x, d))
        x[::3] = 0.0  # exact (and signed) zeros as at Nelder-Mead starts
        x[1::5] = -0.0
        assert np.array_equal(_unpack(x, d), _unpack_loop(x, d))
        assert np.array_equal(np.signbit(_unpack(x, d).view(float)),
                              np.signbit(_unpack_loop(x, d).view(float)))
