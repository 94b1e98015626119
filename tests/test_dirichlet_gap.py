import warnings

import numpy as np
import pytest
import scipy.linalg

from qmix import dirichlet_gap
from qmix.dirichlet_gap import dirichlet, spectral_gap
from qmix.generators import (
    NotPrimitiveError,
    build_depolarizing,
    build_lindblad,
    build_projection,
    hat_generator,
    lift_channel,
    random_davies,
    random_lindblad,
    stationary_state,
)
from qmix.lp_space import PositivityError
from qmix.operator_core import (
    haar_unitary,
    matrix_function,
    max_abs,
    random_density_matrix,
    random_hermitian,
)

from conftest import PAULI_Z, qubit_davies


def random_positive(d, rng):
    return matrix_function(random_hermitian(d, rng, 0.6), np.exp, eig_floor=-np.inf)


def test_dirichlet_vanishes_on_identity(rng):
    g = random_davies(3, rng)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert abs(dirichlet(g, p, np.eye(3))) < 1e-10


def test_dirichlet_rejects_p_below_one(rng):
    g = build_depolarizing(2, 1.0)
    with pytest.raises(ValueError):
        dirichlet(g, 0.5, np.eye(2))


def test_dirichlet_p1_requires_positive(rng):
    g = build_depolarizing(2, 1.0)
    with pytest.raises(PositivityError):
        dirichlet(g, 1.0, PAULI_Z)


def test_depolarizing_e2_equals_gamma_variance(rng):
    for d in (2, 3, 4):
        gamma = 1.0 + 0.3 * d
        g = build_depolarizing(d, gamma)
        sp = g.stationary
        for _ in range(50):
            f = random_hermitian(d, rng)
            assert abs(dirichlet(g, 2.0, f) - gamma * sp.variance(f)) < 1e-9 * (
                1 + sp.variance(f))


def test_dirichlet_p_to_one_continuity(rng):
    g = random_davies(3, rng)
    for _ in range(10):
        f = random_positive(3, rng)
        e1 = dirichlet(g, 1.0, f)
        e1p = dirichlet(g, 1.0 + 1e-4, f)
        assert abs(e1p - e1) <= 1e-3 * (1 + e1)


def test_hat_dirichlet_equals_plain_for_reversible(rng):
    g = random_davies(3, rng)
    for p in (1.0, 2.0, 3.0):
        f = random_positive(3, rng)
        assert abs(dirichlet(g, p, f) - dirichlet(hat_generator(g), p, f)) < 1e-9 * (
            1 + dirichlet(g, p, f))


def test_hat_dirichlet_p2_always_equal(rng):
    g = random_lindblad(3, rng)
    for _ in range(10):
        f = random_hermitian(3, rng)
        e2 = dirichlet(g, 2.0, f)
        assert abs(e2 - dirichlet(hat_generator(g), 2.0, f)) < 1e-9 * (1 + abs(e2))


def test_dirichlet_nonnegative_unital_nonreversible(rng):
    u1, u2 = haar_unitary(3, rng), haar_unitary(3, rng)
    g = lift_channel([u1 / np.sqrt(2), u2 / np.sqrt(2)])
    for _ in range(20):
        f = random_positive(3, rng)
        assert dirichlet(g, 1.0, f) >= 0.0
        assert dirichlet(hat_generator(g), 1.0, f) >= 0.0


def test_dirichlet_e2_shift_invariance(rng):
    g = random_davies(3, rng)
    f = random_hermitian(3, rng)
    assert abs(dirichlet(g, 2.0, f) - dirichlet(g, 2.0, f + 2.7 * np.eye(3))) < 1e-9


def test_e2_is_real_via_trace(rng):
    g = random_lindblad(3, rng)
    sp = g.stationary
    f = random_hermitian(3, rng)
    raw = np.trace(sp.gamma(f) @ g.apply(f))
    assert abs(raw.imag) < 1e-10 * (1 + abs(raw.real))


# ---------------------------------------------------------------------------
# spectral gap
# ---------------------------------------------------------------------------

def test_depolarizing_gap_exact():
    for d in (2, 3, 5):
        gamma = 0.5 + 0.25 * d
        rep = spectral_gap(build_depolarizing(d, gamma))
        assert abs(rep.lam - gamma) < 1e-10


def test_projection_gap_exact(rng):
    g = build_projection(random_density_matrix(3, rng), 0.8)
    rep = spectral_gap(g)
    assert abs(rep.lam - 0.8) < 1e-9


def test_davies_gap_matches_dense_eigensolve():
    g = qubit_davies(beta=1.0)
    rep = spectral_gap(g)
    ev = np.sort(scipy.linalg.eigvals(g.super_L).real)
    assert abs(rep.lam + ev[-2]) < 1e-9


def test_gap_witness_and_random_lower_bound(rng):
    g = random_davies(3, rng)
    rep = spectral_gap(g)
    sp = g.stationary
    assert rep.residual < 1e-6
    for _ in range(500):
        probe = random_hermitian(3, rng)
        var = sp.variance(probe)
        if var < 1e-12:
            continue
        assert rep.lam * var <= dirichlet(g, 2.0, probe) * (1 + 1e-8)


def test_gap_ratio_shift_invariance(rng):
    g = random_davies(3, rng)
    sp = g.stationary
    probe = random_hermitian(3, rng)
    r1 = dirichlet(g, 2.0, probe) / sp.variance(probe)
    shifted = probe + 1.4 * np.eye(3)
    r2 = dirichlet(g, 2.0, shifted) / sp.variance(shifted)
    assert abs(r1 - r2) < 1e-8 * (1 + abs(r1))


def test_gap_requires_primitive():
    g = build_lindblad(PAULI_Z, [])
    with pytest.raises(NotPrimitiveError):
        spectral_gap(g)


def test_gap_sparse_path_matches_dense(rng):
    # force the iterative path on a moderate-size depolarizing generator
    from qmix import dirichlet_gap as dg
    g = build_depolarizing(6, 1.1)
    dense = spectral_gap(g).lam
    old = dg.DENSE_GAP_DIM_LIMIT
    dg.DENSE_GAP_DIM_LIMIT = 4
    try:
        sparse = spectral_gap(g).lam
    finally:
        dg.DENSE_GAP_DIM_LIMIT = old
    assert abs(dense - sparse) < 1e-8


def test_sparse_gap_is_reproducible():
    # above d = 32 the gap comes from ARPACK, whose start vector is seeded
    reps = [spectral_gap(build_depolarizing(64, 1.0), n_witnesses=0, seed=1)
            for _ in range(2)]
    assert reps[0].lam == reps[1].lam
    assert np.array_equal(reps[0].witness, reps[1].witness)
    assert abs(reps[0].lam - 1.0) < 1e-10


def test_gap_probe_override_warns(monkeypatch, rng):
    g = random_davies(3, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = spectral_gap(g)
    assert exact.method == "eigen_symmetrization"
    eigensystem = dirichlet_gap._symmetrized_eigensystem_dense

    def too_large_gap(gen):
        sp, w, v = eigensystem(gen)
        w = w.copy()
        w[-2] = 1.5 * w[0]  # beyond the whole spectrum: every probe undercuts it
        return sp, w, v

    monkeypatch.setattr(dirichlet_gap, "_symmetrized_eigensystem_dense", too_large_gap)
    with pytest.warns(RuntimeWarning, match="undercut by the probe ratio"):
        rep = spectral_gap(g)
    assert rep.method == "variational_refine"
    assert rep.lam >= exact.lam * (1.0 - 1e-6)  # a probe ratio never undercuts the gap
