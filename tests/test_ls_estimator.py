import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from conftest import same_bits

from qmix.dirichlet_gap import dirichlet, spectral_gap
from qmix.generators import (
    build_depolarizing,
    build_lindblad,
    build_projection,
    build_random_unitary,
    hat_generator,
    random_davies,
    random_lindblad,
    random_reversible_unital,
)
from qmix import ls_estimator
from qmix._search import _bounded_brent, _lockstep, _nelder_mead, _side_by_side, _through
from qmix.ls_estimator import (
    ENT_FLOOR,
    STAGES,
    _bracketed_min,
    _coordinate_refine,
    _near_identity_direction,
    _RatioProblem,
    depolarizing_alpha2,
    estimate_alpha,
    expander_alpha2_upper,
    partial_order_verdict,
    unital_alpha2_lower,
)
from qmix.lp_space import NUMERICAL_FAILURES
from qmix.operator_core import (
    _expm_hermitian,
    _pack,
    _unpack,
    hermitian_part,
    matrix_function,
    max_abs,
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


def test_the_closed_form_alpha2_bound_follows_a_unital_closed_form_not_the_label():
    d, gamma = 3, 0.7
    units = [np.sqrt(gamma / d) * np.outer(np.eye(d)[i], np.eye(d)[j])
             for i in range(d) for j in range(d)]
    dense = build_lindblad(None, units, family="depolarizing")  # no closed form
    assert dense.unital and dense._closed is None
    assert "closed_form" not in estimate_alpha(dense, 2, budget=40, restarts=2).analytic_bounds
    bounds = estimate_alpha(build_projection(np.eye(d) / d, gamma), 2, budget=40,
                            restarts=2).analytic_bounds
    assert bounds["closed_form"] == depolarizing_alpha2(d, gamma)
    skew = build_projection(np.diag([0.5, 0.3, 0.2]), gamma)  # closed form, not unital
    assert "closed_form" not in estimate_alpha(skew, 2, budget=40, restarts=2).analytic_bounds


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
                    assert prob.ratios(f[None]) == [public], (name, p, hat)


def test_ratio_infinite_only_on_numerical_failure(rng):
    g = random_davies(3, rng)
    for p in (1, 2):
        prob = _RatioProblem(g, p)
        not_pd = np.diag([1.0, 0.5, -0.2]).astype(complex)
        assert prob.ratios(not_pd[None]) == [np.inf]
        with pytest.raises(ValueError):
            prob.ratios(np.eye(4, dtype=complex)[None])


def test_bracketed_min_stops_at_an_infinite_grid(rng):
    prob = _RatioProblem(random_davies(3, rng), 1)
    grid = np.linspace(-1.0, 1.0, 5)
    search = _bracketed_min(lambda x: -np.eye(3, dtype=complex), grid)
    assert _lockstep(lambda fs: prob.ratios(np.array(fs)), [search]) == [(np.inf, None)]
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


def _basis_loop(d):
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


def _dk_log_kernel_loop(w):
    d = len(w)
    k = np.empty((d, d))
    for a in range(d):
        for b in range(d):
            if abs(w[a] - w[b]) > 1e-12 * max(w[a], w[b]):
                k[a, b] = (np.log(w[a]) - np.log(w[b])) / (w[a] - w[b])
            else:
                k[a, b] = 1.0 / (0.5 * (w[a] + w[b]))
    return k


def _near_identity_loop(g, p):
    """The near-identity direction one matrix pair at a time."""
    import scipy.linalg
    sp = g.stationary
    d, w, v = g.dim, sp.eigvals, sp.eigvecs
    klog = _dk_log_kernel_loop(w)
    weight = np.outer(w, w) * klog
    basis = _basis_loop(d)
    n = len(basis)
    hats = [v.conj().T @ b @ v for b in basis]
    b_mat = np.empty((n, n))
    svals = np.array([np.sum(w * np.diag(bh).real) for bh in hats])
    for i in range(n):
        for j in range(i, n):
            val = float(np.sum((hats[i].conj() * hats[j]).real * weight))
            val -= svals[i] * svals[j]
            b_mat[i, j] = b_mat[j, i] = val
    if p == 1:
        lg_hats = [v.conj().T @ sp._gamma(1.0, hermitian_part(g._apply(b))) @ v for b in basis]
        gam_hats = [np.outer(np.sqrt(w), np.sqrt(w)) * bh for bh in hats]
        a_mat = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                fij = -float(np.sum((lg_hats[i].conj() * gam_hats[j]).real * klog))
                fji = -float(np.sum((lg_hats[j].conj() * gam_hats[i]).real * klog))
                a_mat[i, j] = a_mat[j, i] = 0.5 * (fij + fji)
    else:
        msqrt = np.outer(np.sqrt(w), np.sqrt(w)) / (
            np.add.outer(np.sqrt(w), np.sqrt(w)) * np.outer(w, w) ** 0.25)
        m_basis = [v @ (msqrt * bh) @ v.conj().T for bh in hats]
        lm = [hermitian_part(g._apply(mb)) for mb in m_basis]
        a_mat = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                val = -2.0 * (sp._inner(m_basis[i], lm[j]) + sp._inner(m_basis[j], lm[i]))
                a_mat[i, j] = a_mat[j, i] = val
    coeffs = scipy.linalg.eigh(a_mat, b_mat)[1][:, 0]
    direction = sum(c * b for c, b in zip(coeffs, basis))
    if p == 2:
        direction = v @ (msqrt * (v.conj().T @ direction @ v)) @ v.conj().T
    direction = hermitian_part(direction)
    return a_mat, b_mat, direction / max_abs(direction)


def test_traceless_basis_and_dk_kernel_equal_their_loops(rng):
    for d in range(1, 9):
        assert same_bits(ls_estimator._traceless_hermitian_basis(d),
                         np.array(_basis_loop(d), dtype=complex).reshape(-1, d, d))
    spectra = [np.array([0.5]), np.full(4, 0.25), np.array([0.1, 0.1, 0.3, 0.5]),
               np.array([0.2, 0.2 * (1 + 1e-13), 0.6]), np.array([1e-9, 1e-9, 1.0 - 2e-9])]
    for d in range(2, 12):
        w = np.sort(rng.dirichlet(np.ones(d)))
        spectra += [w, np.sort(np.concatenate([w[: d // 2], w[: d - d // 2]]))]
    for w in spectra:
        assert same_bits(ls_estimator._dk_log_kernel(w), _dk_log_kernel_loop(w))


@pytest.mark.parametrize("p", [1, 2])
def test_near_identity_direction_equals_the_pairwise_loops(p, rng, monkeypatch):
    import scipy.linalg
    eigh = scipy.linalg.eigh
    seen = []

    def spy(a, b):
        seen.append((a, b))
        return eigh(a, b)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    for d in range(2, 7):
        for g in (random_davies(d, rng), random_lindblad(d, rng),
                  hat_generator(random_lindblad(d, rng)), build_random_unitary(d, 2, d),
                  build_depolarizing(d, 0.7)):
            seen.clear()
            got = _near_identity_direction(g, p)
            a_mat, b_mat, direction = _near_identity_loop(g, p)
            assert same_bits(seen[0][0], a_mat) and same_bits(seen[0][1], b_mat)
            assert same_bits(got, direction)


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


# ---------------------------------------------------------------------------
# The stacked ratio and the search generators
# ---------------------------------------------------------------------------

class _Shifted:
    """g with L(f) + shift * f as its action: an indefinite Dirichlet form,
    negative enough on some f that `_judge_negative` raises."""

    def __init__(self, g, shift):
        self.g, self.dim, self.stationary, self.shift = g, g.dim, g.stationary, shift

    def _apply(self, f):
        return self.g._apply(f) + self.shift * f


def _mixed_stack(rng, d):
    """Positive f of several spreads, a non-positive f, a multiple of the
    identity (Ent_p = 0 <= ENT_FLOOR) and f = 1 + 1e-9 h (Ent_p ~ 1e-18)."""
    fs = [matrix_function(random_hermitian(d, rng, s), np.exp, eig_floor=-np.inf)
          for s in (0.1, 0.5, 1.0, 2.0, 3.0)]
    fs.insert(2, np.diag(np.linspace(-0.3, 1.0, d)).astype(complex))
    fs.insert(4, 2.5 * np.eye(d, dtype=complex))
    fs.append(np.eye(d) + 1e-9 * random_hermitian(d, rng))
    rng.shuffle(fs)
    return np.array(fs)


def _public_ratio(gen, p, f):
    """dirichlet(gen, p, f) / Ent_p(f) by the public functionals, inf where
    `ratios` gives inf: f off A_d^+, Ent_p(f) <= ENT_FLOOR, a numerical failure."""
    try:
        ent = gen.stationary.ent(float(p), f)
        return np.inf if ent <= ENT_FLOOR else dirichlet(gen, float(p), f) / ent
    except NUMERICAL_FAILURES:
        return np.inf


@pytest.mark.parametrize("p", [1, 2])
def test_stacked_ratios_equal_each_ratio_bit_for_bit(p, rng, monkeypatch):
    raised = []
    judge = ls_estimator._judge_negative

    def spy(val, g, f):
        try:
            return judge(val, g, f)
        except ArithmeticError:
            raised.append(1)
            raise

    monkeypatch.setattr(ls_estimator, "_judge_negative", spy)
    monkeypatch.setattr(ls_estimator, "STACK_ENTRIES", 4 * 9)  # chunks of 4 at d = 3
    kinds = set()
    for gen in (random_davies(3, rng), random_lindblad(3, rng),
                hat_generator(random_lindblad(3, rng)), _Shifted(random_davies(3, rng), 1.0)):
        for _ in range(3):
            fs = _mixed_stack(rng, 3)
            stacked = _RatioProblem(gen, p)
            raised.clear()
            expected = np.array([_public_ratio(gen, p, f) for f in fs])
            for n in (1, 2, len(fs)):
                before = stacked.n_evals
                got = np.array(stacked.ratios(fs[:n]))
                assert same_bits(got, expected[:n])
                assert stacked.n_evals - before == n
            kinds.add(bool(raised))
            xs = [_pack(random_hermitian(3, rng, 0.7)) for _ in range(6)]
            before = stacked.n_evals
            assert same_bits(np.array(stacked.ratios_packed(xs)),
                             np.array([_public_ratio(gen, p, _expm_hermitian(_unpack(x, 3)))
                                       for x in xs]))
            assert stacked.n_evals - before == len(xs)
            assert np.isinf(expected).sum() >= 3  # the non-positive f and the two flat ones
    assert kinds == {True, False}  # stacks with and without a raising Dirichlet value
    assert ENT_FLOOR == 1e-10


def _drive(search, func, sizes=None):
    """Run one search on func, recording each request's length in sizes."""
    def evaluate(points):
        if sizes is not None:
            sizes.append(len(points))
        return [func(x) for x in points]
    return _lockstep(evaluate, [search])[0]


def _objective(rng, n):
    """A seeded smooth, kinked or flat objective on R^n, infinite on a
    half-space for a third of the draws."""
    center, scale = rng.normal(size=n), rng.uniform(0.2, 3.0, size=n)
    kind = int(rng.integers(4))
    cut = rng.normal(size=n) if rng.random() < 1 / 3 else None

    def func(x):
        if cut is not None and float(cut @ x) > 0.5:
            return np.inf
        y = (x - center) * scale
        if kind == 0:
            return float(y @ y)
        if kind == 1:
            return float(np.sum(np.abs(y)))
        if kind == 2:
            return float(np.sum(100.0 * (y[1:] - y[:-1] ** 2) ** 2 + (1 - y[:-1]) ** 2) + y[0] ** 2)
        return float(np.round(y @ y, 1))  # plateaus
    return func


# inf - inf in the infinite objectives: scipy and the port warn alike
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nelder_mead_generator_equals_scipy():
    cases = {"below_n_plus_1": 0, "cut_in_shrink": 0, "converged": 0, "inf": 0}
    for seed in range(480):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7)) if seed % 4 else int(rng.integers(7, 21))
        x0 = rng.normal(size=n)
        x0[rng.random(n) < 0.3] = 0.0
        func = _objective(rng, n)
        tol = float(rng.choice([1e-10, 1e-4, 1e-2]))
        sizes = []
        full = _drive(_nelder_mead(x0, 400, xatol=tol, fatol=tol), func, sizes)
        which = seed % 3
        if which == 0:
            budget = int(rng.integers(1, n + 1))  # inside the first simplex
        elif which == 1:
            budget = 400
        else:
            shrinks = [(sum(sizes[:i]), k) for i, k in enumerate(sizes) if i and k > 1]
            if shrinks:
                used, k = shrinks[int(rng.integers(len(shrinks)))]
                budget = used + int(rng.integers(0, k))  # runs out inside that shrink
            else:
                budget = int(rng.integers(n + 1, 60))
        ref = minimize(func, x0, method="Nelder-Mead",
                       options={"maxfev": budget, "xatol": tol, "fatol": tol})
        x, fun, nfev = (full if budget == 400 else
                        _drive(_nelder_mead(x0, budget, xatol=tol, fatol=tol), func))
        assert np.array_equal(x, ref.x) and fun == ref.fun and nfev == ref.nfev, seed
        cases["below_n_plus_1"] += budget < n + 1
        cases["cut_in_shrink"] += which == 2 and bool(shrinks)
        cases["converged"] += nfev < budget
        cases["inf"] += not np.isfinite(func(x0))
    assert min(cases.values()) >= 10, cases


def test_nelder_mead_inside_its_first_simplex_equals_scipy():
    # budgets below n + 1 at large n.  An all-NaN objective sorts its NaNs
    # after the unevaluated vertices' inf, so the sorts pick a vertex that was
    # never evaluated, and the port builds it then
    cases = {"inf": 0, "unevaluated": 0}
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 401))
        x0 = rng.normal(size=n)
        x0[rng.random(n) < 0.3] = 0.0
        func = [lambda x: np.inf, lambda x: np.nan, _objective(rng, n)][min(seed % 4, 2)]
        budget = int(rng.integers(0, n + 1))
        ref = minimize(func, x0, method="Nelder-Mead", options={"maxfev": budget})
        x, fun, nfev = _drive(_nelder_mead(x0, budget, xatol=1e-4, fatol=1e-4), func)
        assert np.array_equal(x, ref.x) and nfev == ref.nfev, seed
        assert np.array_equal(fun, ref.fun, equal_nan=True), seed
        moved = np.flatnonzero(x != x0)  # vertex i >= 1 moves coordinate i - 1
        cases["inf"] += fun == np.inf
        cases["unevaluated"] += moved.size > 0 and moved[0] + 1 >= budget
    assert min(cases.values()) >= 10, cases


def test_nelder_mead_builds_only_the_vertices_its_budget_evaluates():
    x0 = np.random.default_rng(0).normal(size=4096)  # the d = 64 packed size
    tracemalloc.start()
    try:
        x, fun, nfev = _drive(_nelder_mead(x0, 3, xatol=1e-4, fatol=1e-12), lambda x: float(x @ x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nfev == 3 and fun <= float(x0 @ x0) and x.shape == x0.shape
    assert peak < 2 * 2 ** 20  # the whole first simplex would hold 4097 x 4096 floats: 134 MB


# inf - inf in the infinite objectives: scipy and the port warn alike
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_bounded_brent_generator_equals_scipy():
    capped = flat = inf = 0
    for seed in range(480):
        rng = np.random.default_rng(seed)
        lo = float(rng.normal(scale=3.0))
        hi = lo + float(rng.choice([0.0, 1e-9, 0.5, 4.0, 20.0]))
        c, kind = rng.uniform(lo - 1.0, hi + 1.0), seed % 5
        wall = rng.uniform(lo, hi) if seed % 4 == 0 else None

        def func(x, c=c, kind=kind, wall=wall):
            if wall is not None and x > wall:
                return np.inf
            return [(x - c) ** 2, abs(x - c), np.sin(3.0 * x), np.round((x - c) ** 2, 2),
                    -np.exp(-(x - c) ** 2)][kind]

        xatol = float(rng.choice([1e-12, 1e-10, 1e-5]))
        maxiter = int(rng.choice([1, 3, 8, 500]))
        ref = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol, "maxiter": maxiter})
        x, fun, nfev = _drive(_bounded_brent(lo, hi, xatol=xatol, maxiter=maxiter), func)
        assert x == ref.x and fun == ref.fun and nfev == ref.nfev, seed
        capped += nfev == maxiter
        flat += kind == 3
        inf += wall is not None and not np.isfinite(func(hi))
    assert min(capped, flat, inf) >= 10


def test_bounded_brent_is_silent_on_an_infinite_bracket():
    def func(x):  # inf on [0, 0.6): the parabolic fit meets inf - inf
        return np.float64(np.inf) if x < 0.6 else np.float64((x - 0.8) ** 2)

    with np.errstate(invalid="ignore"):
        ref = minimize_scalar(func, bounds=(0.0, 1.0), method="bounded",
                              options={"xatol": 1e-10})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, fun, nfev = _drive(_bounded_brent(0.0, 1.0, xatol=1e-10), func)
    assert x == ref.x and fun == ref.fun and nfev == ref.nfev


def test_side_by_side_shares_rounds_only_within_stack_entries():
    def search(n, tag):
        values = yield [tag] * n
        more = yield [tag]
        return tag, values + more

    rounds = []

    def evaluate(points):
        rounds.append(points)
        return [10 * p for p in points]

    d = 64  # a point holds d^2 = 4096 entries: 16 points fill STACK_ENTRIES
    sizes = [10, 5, 3, 20, 1]
    results = _side_by_side(evaluate, [search(n, t) for t, n in enumerate(sizes)], sizes, d)
    assert results == [(t, [10 * t] * (n + 1)) for t, n in enumerate(sizes)]
    assert rounds == [[0] * 10 + [1] * 5, [0, 1], [2] * 3, [2], [3] * 20, [3], [4], [4]]


def test_stage_evals_sum_to_n_evals_and_name_the_winner(rng):
    g = random_davies(3, rng)
    for p in (1, 2):
        extra = [np.eye(3) + 0.2 * random_hermitian(3, rng)]
        rep = estimate_alpha(g, p, budget=120, restarts=3, seed=p, extra_starts=extra)
        assert tuple(rep.stage_evals) == STAGES
        assert sum(rep.stage_evals.values()) == rep.n_evals
        assert rep.stage_evals["extra_starts"] == 1 and rep.stage_evals["refine"] > 0
        assert rep.winner in STAGES
        assert rep.to_dict()["winner"] == rep.winner
    rep = estimate_alpha(g, 2, budget=60, restarts=2, seed=0, refine_sweeps=0)
    assert rep.stage_evals["refine"] == 0 and rep.winner != "refine"


def _refine_loop(prob, x0, sweeps=2):
    """The coordinate refine one coordinate at a time: the reference for
    `_coordinate_refine`."""
    x = x0.copy()
    [best] = prob.ratios_packed([x])
    for _ in range(sweeps):
        improved = False
        for k in range(len(x)):
            xk = x[k]

            def at(t):
                x[k] = t
                return x.copy()

            search = _through(_bounded_brent(xk - 0.25, xk + 0.25, xatol=1e-10), at)
            t, fun, _ = _lockstep(prob.ratios_packed, [search])[0]
            if fun < best - 1e-14:
                best = fun
                x[k] = t
                improved = True
            else:
                x[k] = xk
        if not improved:
            break
    return best, x


class _Pinned(_RatioProblem):
    """The LS ratio at x with all but the free coordinates held at x0, plus a
    quadratic well around x0 in the held ones: a search along a held
    coordinate never improves."""

    def __init__(self, g, p, x0, free):
        super().__init__(g, p)
        self.x0, self.held = x0, np.ones(len(x0), dtype=bool)
        self.held[free] = False

    def ratios_packed(self, xs):
        xs = np.asarray(xs)
        well = np.sum(np.where(self.held, xs - self.x0, 0.0) ** 2, axis=1)
        return [r + w for r, w in zip(super().ratios_packed(np.where(self.held, self.x0, xs)),
                                      well.tolist())]


def test_coordinate_refine_equals_one_coordinate_at_a_time(rng, monkeypatch):
    runs = []  # (searches in the run, the values they found) of each side-by-side run
    lockstep = ls_estimator._lockstep

    def spy(evaluate, searches):
        found = lockstep(evaluate, searches)
        runs.append((len(searches), [fun for _, fun, _ in found]))
        return found

    monkeypatch.setattr(ls_estimator, "_lockstep", spy)
    seen = set()
    for d in (2, 3, 4):
        for p in (1, 2):
            gen = random_davies(d, rng) if p == 2 else hat_generator(random_lindblad(d, rng))
            x0, n = _pack(random_hermitian(d, rng, 0.5)), d * d
            cases = [(lambda: _RatioProblem(gen, p), None),  # every coordinate improves
                     (lambda: _Pinned(gen, p, x0, [n // 2]), None),
                     (lambda: _Pinned(gen, p, x0, [n // 2, n - 1]), 3)]
            for make, cap in cases:
                with monkeypatch.context() as m:
                    if cap is not None:
                        m.setattr(ls_estimator, "STACK_ENTRIES", cap * d * d)
                    ref, new = make(), make()
                    best_ref, x_ref = _refine_loop(ref, x0)
                    runs.clear()
                    best, x = _coordinate_refine(new, x0)
                assert same_bits(np.array(best), np.array(best_ref)), (d, p, cap)
                assert same_bits(x, x_ref) and new.n_evals == ref.n_evals, (d, p, cap)
                seen |= _run_kinds(runs, n, make().ratios_packed([x0])[0], cap)
    assert seen == {"mid-run improvement", "run to the last coordinate",
                    "sweep without improvement", "width at the cap"}


def _run_kinds(runs, n, best, cap):
    """The kinds of run a refine over n coordinates from a point of value
    best made, replayed from each run's width and found values."""
    kinds, k, improved = set(), 0, False
    for width, funs in runs:
        assert cap is None or width <= cap
        first = next((i for i, fun in enumerate(funs) if fun < best - 1e-14), None)
        if first is not None and 0 < first < width - 1:
            kinds.add("mid-run improvement")
        if width > 1 and k + width == n and first is None:
            kinds.add("run to the last coordinate")
        if width == cap:
            kinds.add("width at the cap")
        if first is None:
            k += width
        else:
            best, k, improved = funs[first], k + first + 1, True
        if k == n:
            if not improved:
                kinds.add("sweep without improvement")
            k, improved = 0, False
    return kinds
