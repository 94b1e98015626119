"""Acceptance suite: one test per criterion, each printed as a pass/fail
line at its stated tolerance (run with -s to see the lines).

Criterion 6 is split: the domination part (6a) and the d = 64 bound-crossing
comparison (6b).  6b is expected to fail with honestly computed constants:
the best admissible LS_1 rate for the d = 64 depolarizing generator is
~0.718*gamma, while the crossing-order claim at eps = 0.01 needs
alpha_1 > 0.847*gamma.  It is marked strict-xfail so
the faithful assertion stays in place and any change in outcome is loud.
"""

import time

import numpy as np
import pytest

from qmix.dirichlet_gap import dirichlet, spectral_gap
from qmix.generators import (
    build_depolarizing,
    build_projection,
    build_random_unitary,
    build_tensor_qubit_depolarizing,
    hat_generator,
    random_davies,
    random_reversible_unital,
)
from qmix.ls_estimator import (
    depolarizing_alpha2,
    estimate_alpha,
    expander_alpha2_upper,
    partial_order_verdict,
    unital_alpha2_lower,
)
from qmix.lp_space import WeightedSpace
from qmix.mixing import bound_curves, discrete_vs_continuous, entropy_production
from qmix.operator_core import (
    haar_unitary,
    matrix_function,
    max_abs,
    random_density_matrix,
    random_hermitian,
)
from qmix.regularity import regularity_profile

from conftest import qubit_davies, relative_entropy_oracle

pytestmark = pytest.mark.slow


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. depolarizing alpha_2 table, d = 2..8, within 1e-3 relative, < 60 s
# ---------------------------------------------------------------------------

def test_criterion_1_depolarizing_alpha2_table():
    t0 = time.time()
    ok = True
    details = []
    for d in range(2, 9):
        g = build_depolarizing(d, 1.0)
        rep = estimate_alpha(g, 2, budget=800, restarts=4, seed=1)
        exact = depolarizing_alpha2(d, 1.0)
        rel = abs(rep.alpha_estimate - exact) / exact
        details.append(f"d={d}:{rel:.1e}")
        ok &= rel <= 1e-3
    wall = time.time() - t0
    ok &= wall < 60.0
    assert report("criterion 1 (depolarizing alpha2 table)", ok,
                  f"rel errs {' '.join(details)}; wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 2. depolarizing spectral gap = gamma to 1e-10, d = 2..8, < 5 s
# ---------------------------------------------------------------------------

def test_criterion_2_depolarizing_gap():
    t0 = time.time()
    worst = 0.0
    for d in range(2, 9):
        rep = spectral_gap(build_depolarizing(d, 1.0))
        worst = max(worst, abs(rep.lam - 1.0))
    wall = time.time() - t0
    ok = worst <= 1e-10 and wall < 5.0
    assert report("criterion 2 (depolarizing gap)", ok,
                  f"worst |lambda-gamma| = {worst:.2e}; wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 3. tensor-product qubit lemma: alpha2 = gamma for tensor sums
# ---------------------------------------------------------------------------

def test_criterion_3_tensor_qubit():
    t0 = time.time()
    g2 = build_tensor_qubit_depolarizing(2)
    rep2 = estimate_alpha(g2, 2, budget=700, restarts=3, seed=1)
    err2 = abs(rep2.alpha_estimate - 1.0)
    g3 = build_tensor_qubit_depolarizing(3)
    rep3 = estimate_alpha(g3, 2, budget=1200, restarts=3, seed=1)
    err3 = abs(rep3.alpha_estimate - 1.0)
    wall = time.time() - t0
    ok = err2 <= 2e-2 and err3 <= 5e-2 and wall < 600.0
    assert report("criterion 3 (tensor qubit lemma)", ok,
                  f"N=2 err {err2:.2e}, N=3 err {err3:.2e}; wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 4. ordering suite on 50 random reversible generators (d = 2, 3)
# ---------------------------------------------------------------------------

def test_criterion_4_ordering_suite():
    rng = np.random.default_rng(42)
    t0 = time.time()
    fails = []
    for i in range(50):
        d = 2 + (i % 2)
        if i % 2 == 0:
            g = random_davies(d, rng)
        else:
            g = random_reversible_unital(d, rng)
        v = partial_order_verdict(g, budget=350, restarts=2, seed=i)
        ok_pair = v["alpha2"] <= 2.0 * v["alpha1"] * (1 + 1e-3)
        ok_gap = v["alpha1"] <= v["lambda"] * (1 + 1e-3)
        if not (ok_pair and ok_gap):
            fails.append((i, g.family, v["alpha1"], v["alpha2"], v["lambda"]))
    wall = time.time() - t0
    assert report("criterion 4 (ordering suite, 50 generators)", not fails,
                  f"failures: {fails if fails else 'none'}; wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 5. regularity evidence: convexity floor and strong verdicts
# ---------------------------------------------------------------------------

def test_criterion_5_regularity_evidence():
    rng = np.random.default_rng(5)
    t0 = time.time()
    cases = [("depol d=2", build_depolarizing(2, 1.0)),
             ("depol d=3", build_depolarizing(3, 1.0)),
             ("depol d=4", build_depolarizing(4, 1.0)),
             ("projection d=3", build_projection(random_density_matrix(3, rng), 1.0)),
             ("projection d=4", build_projection(random_density_matrix(4, rng), 1.0)),
             ("davies qubit", qubit_davies(beta=0.9)),
             ("davies qutrit", random_davies(3, rng))]
    ok = True
    details = []
    for name, g in cases:
        prof = regularity_profile(g, probes=100, times=(0.1, 0.5, 1.0), seed=11)
        strong = (prof.verdicts["convex"] and prof.verdicts["symmetric"]
                  and prof.verdicts["completely_monotone_to_order"] >= 6)
        convex_floor_ok = prof.min_second_difference >= -1e-8
        ok &= strong and convex_floor_ok and not prof.failures
        details.append(f"{name}: d2_floor={prof.min_second_difference:.1e} "
                       f"strong={strong}")
    wall = time.time() - t0
    assert report("criterion 5 (regularity evidence)", ok,
                  "; ".join(details) + f"; wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 6a. mixing-bound domination (20 random reversible d<=4 and depol d=64)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def depolarizing_d64():
    """Depolarizing d = 64 with its gap and alpha_1 estimate, shared by 6a and 6b."""
    g = build_depolarizing(64, 1.0)
    gap = spectral_gap(g, seed=0)
    a1 = estimate_alpha(g, 1, restarts=0, refine_sweeps=0, seed=0,
                        gap=gap).alpha_estimate
    return g, gap, a1


def test_criterion_6a_mixing_domination(depolarizing_d64):
    rng = np.random.default_rng(99)
    t0 = time.time()
    worst_margin = np.inf
    for i in range(20):
        d = 2 + (i % 3)
        g = random_davies(d, rng) if i % 2 == 0 else random_reversible_unital(d, rng)
        gap = spectral_gap(g, seed=i)
        a1 = estimate_alpha(g, 1, budget=300, restarts=2, seed=i,
                            gap=gap).alpha_estimate
        t_grid = np.linspace(0.0, 8.0 / gap.lam, 15)
        curve = bound_curves(g, gap.lam, a1, t_grid, n_haar=50, seed=i)
        worst_margin = min(worst_margin, curve.domination_margin)
    # depolarizing d = 64
    g64, gap64, a1_64 = depolarizing_d64
    curve64 = bound_curves(g64, gap64.lam, a1_64, np.linspace(0.0, 12.0, 25),
                           n_haar=50, seed=0)
    worst_margin = min(worst_margin, curve64.domination_margin)
    wall = time.time() - t0
    ok = worst_margin >= -1e-7
    assert report("criterion 6a (mixing-bound domination)", ok,
                  f"worst margin {worst_margin:.2e} (incl. depol d=64, "
                  f"alpha1={a1_64:.4f}); wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 6b. depol d=64, eps=0.01: LS crossing before chi2 crossing.
# Honest constants make this fail: the best admissible alpha_1 is ~0.718,
# but the crossing order needs alpha_1 > log(sqrt(2 log 64)/eps) /
# log(sqrt(64)/eps) ~ 0.847.  Kept as a faithful strict-xfail assertion.
# ---------------------------------------------------------------------------

@pytest.mark.xfail(strict=True,
                   reason="best admissible LS_1 constant of depol(64) is "
                          "~0.718*gamma < 0.847*gamma required for the "
                          "crossing order at eps=0.01")
def test_criterion_6b_ls_crossing_d64(depolarizing_d64):
    eps = 0.01
    g, gap, a1 = depolarizing_d64
    sigma_min = g.stationary.sigma_min
    t_chi = np.log(np.sqrt(1.0 / sigma_min) / eps) / gap.lam
    t_ls = np.log(np.sqrt(2.0 * np.log(1.0 / sigma_min)) / eps) / a1
    ok = t_ls < t_chi
    report("criterion 6b (d=64 LS crossing before chi2 crossing)", ok,
           f"t_ls={t_ls:.3f} vs t_chi2={t_chi:.3f} with alpha1={a1:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 7. identity suite (>= 50 random instances per identity)
# ---------------------------------------------------------------------------

def test_criterion_7_identity_suite():
    rng = np.random.default_rng(7)
    t0 = time.time()
    n = 50
    worst = {"ent_half": 0.0, "ent_sqrt": 0.0, "ent_relent": 0.0, "ent_pair": 0.0,
             "power1": 0.0, "power2": 0.0, "power3": 0.0,
             "hoelder": 0.0, "ordering": 0.0, "duality": 0.0, "deriv": 0.0}
    for _ in range(n):
        sp = WeightedSpace(random_density_matrix(3, rng))
        f = matrix_function(random_hermitian(3, rng, 0.6), np.exp, eig_floor=-np.inf)
        h = random_hermitian(3, rng)
        rho = random_density_matrix(3, rng)

        # Lemma 2.5 items
        v = abs(sp.ent2(sp.power_operator(2.0, 1.0, f)) - 0.5 * sp.ent1(f))
        worst["ent_half"] = max(worst["ent_half"], v / (1 + sp.ent1(f)))
        v = abs(sp.ent2(sp.gamma_power(-0.5, matrix_function(rho, np.sqrt)))
                - 0.5 * relative_entropy_oracle(rho, sp.sigma))
        worst["ent_sqrt"] = max(worst["ent_sqrt"], v)
        v = abs(sp.ent1(sp.gamma_inv(rho)) - relative_entropy_oracle(rho, sp.sigma))
        worst["ent_relent"] = max(worst["ent_relent"], v)
        p = 3.0
        q = p / (p - 1.0)
        lhs = sp.inner(sp.power_operator(q, p, f), sp.op_relative_entropy(p, f))
        g2 = sp.power_operator(2.0, p, f)
        rhs = (2.0 / p) * sp.inner(g2, sp.op_relative_entropy(2.0, g2))
        worst["ent_pair"] = max(worst["ent_pair"], abs(lhs - rhs) / (1 + abs(rhs)))

        # power operator properties
        v = abs(sp.lp_norm(3.0, sp.power_operator(3.0, 2.0, h)) ** 3
                - sp.lp_norm(2.0, h) ** 2)
        worst["power1"] = max(worst["power1"], v / (1 + sp.lp_norm(2.0, h) ** 2))
        v = max_abs(sp.power_operator(2.7, 2.7, f) - f)
        v = max(v, max_abs(sp.power_operator(3.0, 2.0, sp.power_operator(2.0, 1.5, f))
                           - sp.power_operator(3.0, 1.5, f)))
        worst["power2"] = max(worst["power2"], v)
        c = 1.7
        v = max_abs(sp.power_operator(2.0, 4.0, c * f)
                    - c ** 2 * sp.power_operator(2.0, 4.0, f))
        worst["power3"] = max(worst["power3"], v / (1 + max_abs(f) ** 2))

        # Hoelder, ordering, duality witness
        g3 = random_hermitian(3, rng)
        for pp in (1.5, 2.0, 3.0):
            qq = pp / (pp - 1.0)
            v = abs(sp.inner(h, g3)) - sp.lp_norm(pp, h) * sp.lp_norm(qq, g3)
            worst["hoelder"] = max(worst["hoelder"], v)
        v = max(sp.lp_norm(1.0, h) - sp.lp_norm(2.0, h),
                sp.lp_norm(2.0, h) - sp.lp_norm(4.0, h))
        worst["ordering"] = max(worst["ordering"], v)
        pp = 2.5
        qq = pp / (pp - 1.0)
        x = sp.gamma_power(1.0 / pp, h)
        y = matrix_function(x, lambda w: np.sign(w) * np.abs(w) ** (pp / qq),
                            eig_floor=-np.inf)
        gstar = sp.gamma_power(-1.0 / qq, y)
        gstar = gstar / sp.lp_norm(qq, gstar)
        v = abs(sp.inner(gstar, h) - sp.lp_norm(pp, h))
        worst["duality"] = max(worst["duality"], v / (1 + sp.lp_norm(pp, h)))

        # Thm 2.4 derivative identity
        lhs, rhs = sp.norm_derivative_check(f, lambda t: 1.0 + np.exp(2.0 * t), 0.3)
        worst["deriv"] = max(worst["deriv"], abs(lhs - rhs) / (1 + abs(rhs)))

    tight = {k: 1e-8 for k in worst}
    tight.update({"deriv": 1e-4, "duality": 1e-6, "power2": 1e-9})
    ok = all(worst[k] <= tight[k] for k in worst)
    wall = time.time() - t0
    assert report("criterion 7 (identity suite)", ok,
                  " ".join(f"{k}={worst[k]:.1e}" for k in worst)
                  + f"; wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 8. expander bounds for random-unitary lifts, D = 2, d in {4, 8, 16}
# ---------------------------------------------------------------------------

def test_criterion_8_expander():
    t0 = time.time()
    ok = True
    details = []
    for d in (4, 8, 16):
        g = build_random_unitary(d, 2, seed=100 + d)
        gap = spectral_gap(g, seed=0)
        rep = estimate_alpha(g, 2, budget=600, restarts=3, seed=0, gap=gap)
        upper = expander_alpha2_upper(2, d)
        lower = unital_alpha2_lower(g, gap.lam)
        est = rep.alpha_estimate
        this_ok = est <= upper and est >= lower * (1 - 1e-3)
        ok &= this_ok
        details.append(f"d={d}: {lower:.4f}<={est:.4f}<={upper:.4f}")
    wall = time.time() - t0
    assert report("criterion 8 (expander bounds)", ok,
                  "; ".join(details) + f"; wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 9. discrete vs continuous chi^2 for lazy reversible channels
# ---------------------------------------------------------------------------

def test_criterion_9_discrete_continuous():
    rng = np.random.default_rng(17)
    t0 = time.time()
    count = 0
    worst = np.inf
    while count < 20:
        u, v = haar_unitary(3, rng), haar_unitary(3, rng)
        s_kraus = [0.5 * u, 0.5 * u.conj().T, 0.5 * v, 0.5 * v.conj().T]
        lazy = [np.sqrt(0.5) * np.eye(3)] + [np.sqrt(0.5) * k for k in s_kraus]
        rho0 = random_density_matrix(3, rng)
        try:
            for n in range(1, 11):
                out = discrete_vs_continuous(lazy, n, rho0)
                worst = min(worst, out["chi2_continuous"] - out["chi2_discrete"])
        except ValueError:
            continue  # non-primitive draw; redraw
        count += 1
    wall = time.time() - t0
    ok = worst >= -1e-9
    assert report("criterion 9 (discrete/continuous chi2, 20 channels)", ok,
                  f"worst continuous-discrete = {worst:.3e}; wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 10. entropy production identities on a qubit Davies generator
# ---------------------------------------------------------------------------

def test_criterion_10_entropy_production():
    rng = np.random.default_rng(23)
    g = qubit_davies(omega0=1.0, beta=0.8)
    worst = 0.0
    for _ in range(50):
        rho = random_density_matrix(2, rng)
        out = entropy_production(g, rho)  # raises if Pi != 2*Ehat_1 beyond 1e-8
        worst = max(worst, abs(out["Pi"] - out["dS_dt"] - out["Phi"]))
        worst = max(worst, abs(out["Pi"] - 2.0 * dirichlet(
            hat_generator(g), 1.0, g.stationary.gamma_inv(rho))))
    ok = worst <= 1e-8
    assert report("criterion 10 (entropy production)", ok,
                  f"worst identity deviation {worst:.2e}")
