import tracemalloc
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
    random_reversible_unital,
    stationary_state,
)
from qmix.lp_space import PositivityError
from qmix.operator_core import (
    STACK_ENTRIES,
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


def _gap_one_probe_at_a_time(g, eigen, n_witnesses, seed, rng=None):
    """spectral_gap with its witnesses checked one at a time, as before they
    were stacked: random_hermitian, variance and the public dirichlet per
    probe, folded in draw order into eigen = spectral_gap(g, 0, seed)."""
    lam, witness, method, residual = eigen.lam, eigen.witness, eigen.method, eigen.residual
    sp = stationary_state(g)
    rng = np.random.default_rng(seed) if rng is None else rng
    for _ in range(n_witnesses):
        probe = random_hermitian(g.dim, rng)
        var = sp.variance(probe)
        if var <= dirichlet_gap.VAR_FLOOR:
            continue
        ratio = dirichlet(g, 2.0, probe) / var
        if ratio < lam * (1.0 - 1e-6):
            lam, witness, method, residual = ratio, probe, "variational_refine", 0.0
    return dirichlet_gap.GapReport(lam=lam, witness=witness, method=method, residual=residual)


def _assert_same_gap(rep, ref):
    assert rep.lam == ref.lam
    assert rep.method == ref.method
    assert rep.residual == ref.residual
    assert np.array_equal(rep.witness, ref.witness)


_CHUNK_D64 = STACK_ENTRIES // 64 ** 2
_GAP_CASES = {
    "davies_d3": (lambda rng: random_davies(3, rng), (0, 1, 200)),
    "generic_d3": (lambda rng: random_lindblad(3, rng), (0, 1, 200)),
    "hat_generic_d3": (lambda rng: hat_generator(random_lindblad(3, rng)), (0, 1, 200)),
    "reversible_unital_d16": (lambda rng: random_reversible_unital(16, rng), (0, 1, 200)),
    "depolarizing_d64": (lambda rng: build_depolarizing(64, 1.0),
                         (0, 1, _CHUNK_D64 - 1, _CHUNK_D64, _CHUNK_D64 + 1)),
}


def _inflated(eigensystem):
    """An eigensystem whose gap lies beyond the whole spectrum, so that every
    witness undercuts it and each probe ratio reaches the fold."""
    def inflate(*args):
        sp, w, v = eigensystem(*args)
        w = w.copy()
        w[-2] = 1.5 * w[0]
        return sp, w, v
    return inflate


@pytest.mark.parametrize("inflate", [False, True])
@pytest.mark.parametrize("name", list(_GAP_CASES))
def test_stacked_witnesses_equal_one_probe_at_a_time(name, inflate, monkeypatch):
    build, counts = _GAP_CASES[name]
    g = build(np.random.default_rng(12))
    assert name != "hat_generic_d3" or not g.reversible
    if inflate:
        for kernel in ("_symmetrized_eigensystem_dense", "_gap_sparse"):
            monkeypatch.setattr(dirichlet_gap, kernel, _inflated(getattr(dirichlet_gap, kernel)))
    eigen = spectral_gap(g, n_witnesses=0, seed=7)
    for n in counts:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the inflated gap is undercut
            rep = spectral_gap(g, n_witnesses=n, seed=7)
        _assert_same_gap(rep, _gap_one_probe_at_a_time(g, eigen, n, seed=7))
        if inflate and n:
            assert rep.method == "variational_refine"


class _ReplayRng:
    """Serves standard_normal draws in order from a fixed buffer."""

    def __init__(self, values):
        self.values, self.pos = values, 0

    def standard_normal(self, shape):
        n = int(np.prod(shape))
        out = self.values[self.pos:self.pos + n].reshape(shape)
        self.pos += n
        return out


def test_zero_variance_witness_is_skipped_before_judging(monkeypatch):
    g = random_davies(3, np.random.default_rng(3))
    d, n, ident = 3, 6, 2.5 * np.eye(3)
    values = np.random.default_rng(5).standard_normal(n * 2 * d * d)
    block = values[2 * 2 * d * d:3 * 2 * d * d]  # witness 2 draws 2.5 * identity
    block[:d * d] = ident.ravel()
    block[d * d:] = 0.0
    assert stationary_state(g).variance(ident) <= dirichlet_gap.VAR_FLOOR
    judged, judge = [], dirichlet_gap._judge_negative

    def spy(val, gen, f):
        judged.extend(np.reshape(f, (-1, d, d)))
        return judge(val, gen, f)

    monkeypatch.setattr(dirichlet_gap, "_judge_negative", spy)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _ReplayRng(values))
    rep = spectral_gap(g, n_witnesses=n)
    assert len(judged) > n  # the eigen witness and the other five probes
    assert not any(np.array_equal(f, ident) for f in judged)
    ref = _gap_one_probe_at_a_time(g, spectral_gap(g, n_witnesses=0), n, seed=0,
                                   rng=_ReplayRng(values))
    _assert_same_gap(rep, ref)


def test_witness_memory_does_not_grow_with_the_jump_count():
    # Davies d = 8 has 57 jumps: the 200 witnesses with all jumps at once
    # would hold 200 * 57 * 64 entries (11.7 MB) in each of several arrays
    g = random_davies(8, np.random.default_rng(1))
    assert len(g.lindblad_ops) == 57
    spectral_gap(g)  # caches filled
    tracemalloc.start()
    try:
        spectral_gap(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
