import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix import lp_space
from qmix.dirichlet_gap import dirichlet
from qmix.generators import build_projection, random_davies
from qmix.lp_space import POSITIVITY_REL_TOL, RANK_TOL, PositivityError, WeightedSpace
from qmix.regularity import h_profile
from qmix.operator_core import (
    haar_unitary,
    hermitian_part,
    matrix_function,
    random_density_matrix,
    random_hermitian,
    random_psd,
)

from conftest import PAULI_Z, relative_entropy_oracle, same_bits


def random_space(d, rng):
    return WeightedSpace(random_density_matrix(d, rng))


def random_positive(d, rng, scale=0.7):
    return matrix_function(random_hermitian(d, rng, scale=scale), np.exp,
                           eig_floor=-np.inf)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_space_rejects_bad_sigma(rng):
    with pytest.raises(ValueError):
        WeightedSpace(np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(ValueError):
        WeightedSpace(np.diag([1.0, 0.0]))  # rank deficient


def test_sigma_min_on_both_sides_of_rank_tol(rng):
    u = haar_unitary(3, rng)
    for factor in (1.0 + 1e-3, 1.0 - 1e-3):
        m = RANK_TOL * factor
        sigma = hermitian_part((u * np.array([m, 0.3, 0.7 - m])) @ u.conj().T)
        if factor > 1.0:
            sp = WeightedSpace(sigma)
            assert sp.sigma_min == pytest.approx(m, rel=1e-5)
            g = build_projection(sp, 1.0)  # its stationary-state check passes too
            assert g.stationary is sp and g.primitive
        else:
            with pytest.raises(ValueError, match="sigma must be full rank"):
                WeightedSpace(sigma)


def test_sigma_power_cache_evicts_least_recently_used():
    sp = WeightedSpace(np.diag([0.5, 0.3, 0.2]))
    for i in range(70):
        sp.sigma_power(i / 8)
        if i == 60:
            sp.sigma_power(0.0)
    info = sp._powers.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (1, 70, 64, 64)
    sp.sigma_power(69 / 8)
    sp.sigma_power(0)  # refreshed at i = 60, so still held
    assert sp._powers.cache_info().hits == 3
    sp.sigma_power(1 / 8)  # evicted
    assert sp._powers.cache_info().misses == 71


def test_threads_asking_for_one_sigma_power_get_its_bits(monkeypatch):
    def slow(w, v, s):
        time.sleep(0.05)  # the other threads ask while this one builds
        return power(w, v, s)

    power = lp_space._sigma_power
    monkeypatch.setattr(lp_space, "_sigma_power", slow)
    sp = WeightedSpace(np.diag([0.5, 0.3, 0.2]))
    got = []
    threads = [threading.Thread(target=lambda: got.append(sp.sigma_power(0.3)))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and len(got) == 8
    assert all(same_bits(x, power(sp.eigvals, sp.eigvecs, 0.3)) for x in got)
    assert sp._powers.cache_info().currsize == 1


def test_gamma_power_examples(rng):
    sp = random_space(4, rng)
    f = random_hermitian(4, rng)
    assert np.allclose(sp.gamma_power(0.0, f), f)
    # inverse round trip
    back = sp.gamma_power(-1.0, sp.gamma_power(1.0, f))
    assert np.max(np.abs(back - f)) < 1e-10
    # sigma = 1/d: Gamma(f) = f/d
    uni = WeightedSpace(np.eye(3) / 3)
    assert np.allclose(uni.gamma(f[:3, :3] + f[:3, :3].conj().T),
                       (f[:3, :3] + f[:3, :3].conj().T) / 3)


# ---------------------------------------------------------------------------
# norms, inner product, variance
# ---------------------------------------------------------------------------

def test_norm_of_identity_is_one(rng):
    for d in (2, 3, 5):
        sp = random_space(d, rng)
        for p in (1.0, 1.5, 2.0, 4.0):
            assert abs(sp.lp_norm(p, np.eye(d)) - 1.0) < 1e-12


def test_norm_hand_example():
    sp = WeightedSpace(np.eye(2) / 2)
    f = np.diag([2.0, 0.0])
    assert abs(sp.lp_norm(2.0, f) - np.sqrt(2.0)) < 1e-12


def test_norm_rejects_p_below_one(rng):
    sp = random_space(2, rng)
    with pytest.raises(ValueError):
        sp.lp_norm(0.9, np.eye(2))


def test_norm_ordering(rng):
    for _ in range(100):
        sp = random_space(3, rng)
        f = random_hermitian(3, rng)
        n1 = sp.lp_norm(1.0, f)
        n2 = sp.lp_norm(2.0, f)
        n4 = sp.lp_norm(4.0, f)
        assert n1 <= n2 * (1 + 1e-12)
        assert n2 <= n4 * (1 + 1e-12)


def test_inner_product_examples(rng):
    sp = random_space(3, rng)
    assert abs(sp.inner(np.eye(3), np.eye(3)) - 1.0) < 1e-12
    f, g = random_hermitian(3, rng), random_hermitian(3, rng)
    assert abs(sp.inner(f, g) - sp.inner(g, f)) < 1e-12
    assert sp.inner(f, f) >= 0
    # two-route oracle
    direct = float(np.trace(sp.gamma(f) @ g).real)
    assert abs(sp.inner(f, g) - direct) < 1e-12 * (1 + abs(direct))


def test_hoelder_inequality(rng):
    for _ in range(100):
        sp = random_space(3, rng)
        f, g = random_hermitian(3, rng), random_hermitian(3, rng)
        for p in (1.5, 2.0, 3.0):
            q = p / (p - 1.0)
            assert abs(sp.inner(f, g)) <= sp.lp_norm(p, f) * sp.lp_norm(q, g) * (1 + 1e-10)


def test_duality_witnesses(rng):
    # sup over unit-q-norm witnesses of <g, f>: random witnesses never exceed
    # the norm; the analytic Hoelder-equality witness achieves it
    for _ in range(10):
        sp = random_space(3, rng)
        f = random_hermitian(3, rng)
        for p in (1.5, 2.0, 3.0):
            q = p / (p - 1.0)
            norm = sp.lp_norm(p, f)
            for _ in range(200):
                g = random_hermitian(3, rng)
                g = g / sp.lp_norm(q, g)
                assert sp.inner(g, f) <= norm * (1 + 1e-10)
            x = sp.gamma_power(1.0 / p, f)
            y = matrix_function(x, lambda w: np.sign(w) * np.abs(w) ** (p / q),
                                eig_floor=-np.inf)
            gstar = sp.gamma_power(-1.0 / q, y)
            gstar = gstar / sp.lp_norm(q, gstar)
            assert sp.inner(gstar, f) >= norm * (1 - 0.02)


def test_variance_examples(rng):
    sp = random_space(3, rng)
    assert sp.variance(2.3 * np.eye(3)) < 1e-12
    g = random_hermitian(3, rng)
    assert abs(sp.variance(g + 3.0 * np.eye(3)) - sp.variance(g)) < 1e-10
    half = WeightedSpace(np.eye(2) / 2)
    assert abs(half.variance(PAULI_Z) - 1.0) < 1e-14


def test_stacked_variance_matches_each_matrix_bit_for_bit(rng):
    # reference: the formula on Python floats, one matrix at a time, whose
    # square is libm's pow
    for d in (2, 3, 5):
        sp = random_space(d, rng)
        stack = np.array([random_hermitian(d, rng, scale=float(np.exp(rng.uniform(-4, 4))))
                          for _ in range(1000)])
        stack[::50] = 2.3 * np.eye(d)  # Var = 0 up to rounding, either sign
        stacked = sp._variance(stack)
        for f, var in zip(stack, stacked.tolist()):
            gf = sp.gamma(f)
            ref = max(float(np.trace(gf @ f).real) - float(np.trace(gf).real) ** 2, 0.0)
            assert repr(var) == repr(ref) == repr(sp.variance(f))


@settings(max_examples=25, deadline=None)
@given(entries=st.lists(st.floats(min_value=-3, max_value=3), min_size=3, max_size=3),
       shift=st.floats(min_value=-5, max_value=5))
def test_variance_shift_invariance_hypothesis(entries, shift):
    sp = WeightedSpace(np.diag([0.5, 0.3, 0.2]))
    g = np.diag(np.asarray(entries, dtype=float))
    assert abs(sp.variance(g + shift * np.eye(3)) - sp.variance(g)) < 1e-9 * (
        1 + sp.variance(g))


# ---------------------------------------------------------------------------
# power operator
# ---------------------------------------------------------------------------

def test_power_operator_identity(rng):
    # the defining formula carries an absolute value, so the identity and
    # composition properties live on the positive cone
    sp = random_space(3, rng)
    f = random_positive(3, rng)
    assert np.max(np.abs(sp.power_operator(2.7, 2.7, f) - f)) < 1e-10


def test_power_operator_uniform_reference(rng):
    uni = WeightedSpace(np.eye(3) / 3)
    f = random_positive(3, rng)
    expected = matrix_function(f, lambda w: w ** (1.0 / 2.0))
    assert np.max(np.abs(uni.power_operator(2.0, 1.0, f) - expected)) < 1e-10


def test_power_operator_scaling(rng):
    sp = random_space(3, rng)
    f = random_positive(3, rng)
    c = 1.7
    lhs = sp.power_operator(2.0, 4.0, c * f)
    rhs = c ** 2 * sp.power_operator(2.0, 4.0, f)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1 + np.max(np.abs(rhs)))


def test_power_operator_norm_identity(rng):
    for _ in range(20):
        sp = random_space(3, rng)
        f = random_hermitian(3, rng)
        for p, q in ((2.0, 1.0), (3.0, 2.0), (1.5, 4.0)):
            lhs = sp.lp_norm(p, sp.power_operator(p, q, f)) ** p
            rhs = sp.lp_norm(q, f) ** q
            assert abs(lhs - rhs) < 1e-9 * (1 + rhs)


def test_power_operator_composition(rng):
    sp = random_space(3, rng)
    f = random_positive(3, rng)
    lhs = sp.power_operator(3.0, 2.0, sp.power_operator(2.0, 1.5, f))
    rhs = sp.power_operator(3.0, 1.5, f)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1 + np.max(np.abs(rhs)))


# ---------------------------------------------------------------------------
# operator-valued relative entropy and Ent_p
# ---------------------------------------------------------------------------

def test_op_relative_entropy_difference_quotient(rng):
    sp = random_space(3, rng)
    f = random_positive(3, rng)
    p, s = 2.0, 1e-5
    fd = -p * (sp.power_operator(p + s, p, f) - f) / s
    sp_val = sp.op_relative_entropy(p, f)
    assert np.max(np.abs(fd - sp_val)) < 1e-4 * (1 + np.max(np.abs(sp_val)))


def test_op_relative_entropy_identity_input(rng):
    uni = WeightedSpace(np.eye(4) / 4)
    out = uni.op_relative_entropy(2.0, np.eye(4))
    assert np.max(np.abs(out)) < 1e-12


def test_op_relative_entropy_diagonal_reduction(rng):
    # for commuting diagonal sigma and f the entries reduce to f_i log f_i
    sp = WeightedSpace(np.diag([0.7, 0.3]))
    f = np.diag([0.9, 2.4])
    for p in (1.5, 2.0, 3.0):
        out = sp.op_relative_entropy(p, f)
        expected = np.diag([0.9 * np.log(0.9), 2.4 * np.log(2.4)])
        assert np.max(np.abs(out - expected)) < 1e-10


def test_op_relative_entropy_rejects_nonpositive(rng):
    sp = random_space(2, rng)
    with pytest.raises(PositivityError, match="A_d"):
        sp.op_relative_entropy(2.0, np.diag([1.0, -0.1]))


@pytest.mark.parametrize("projector", [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
def test_near_singular_probes_on_both_sides_of_the_positivity_gate(projector):
    # f = eps 1 + P has eigenvalues eps and 1 + eps, so eps = c (1 + eps) puts
    # the gate's ratio w_min / w_max at c; a diagonal f keeps eigh exact
    g = random_davies(3, np.random.default_rng(5))
    sp = g.stationary
    for factor in (1.0 - 1e-3, 1.0 + 1e-3):
        c = POSITIVITY_REL_TOL * factor
        f = c / (1.0 - c) * np.eye(3) + np.diag(projector)
        probes = (lambda: dirichlet(g, 1.0, f), lambda: sp.ent(1.0, f),
                  lambda: h_profile(g, f, 0.5, [0.0, 0.5, 1.0, 1.5, 2.0]))
        for probe in probes:
            if factor < 1.0:
                with pytest.raises(PositivityError, match="A_d"):
                    probe()
            else:
                val = np.asarray(probe())
                assert np.isfinite(val).all() and (val >= 0.0).all()


def test_ent_identity_is_zero(rng):
    sp = random_space(3, rng)
    for p in (1.0, 1.5, 2.0, 3.0):
        assert abs(sp.ent(p, np.eye(3))) < 1e-10


def test_ent_closed_forms_match_generic(rng):
    sp = random_space(3, rng)
    f = random_positive(3, rng)
    # generic route evaluated just off the dispatch thresholds
    assert abs(sp.ent1(f) - sp.ent(1.0 + 2e-6, f)) < 2e-5 * (1 + sp.ent1(f))
    assert abs(sp.ent2(f) - sp.ent(2.0 + 1e-8, f)) < 1e-6 * (1 + sp.ent2(f))


def test_ent_scaling(rng):
    sp = random_space(3, rng)
    f = random_positive(3, rng)
    c = 1.9
    for p in (1.0, 2.0):
        assert abs(sp.ent(p, c * f) - c ** p * sp.ent(p, f)) < 1e-9 * (
            1 + c ** p * sp.ent(p, f))


def test_ent2_of_power_half_is_half_ent1(rng):
    # Ent_2(I_{2,1}(f)) = Ent_1(f)/2
    for _ in range(50):
        sp = random_space(3, rng)
        f = random_positive(3, rng)
        lhs = sp.ent2(sp.power_operator(2.0, 1.0, f))
        rhs = 0.5 * sp.ent1(f)
        assert abs(lhs - rhs) < 1e-8 * (1 + abs(rhs))


def test_ent2_of_sqrt_state_relative_density(rng):
    # Ent_2(Gamma^{-1/2}(sqrt(rho))) = D(rho||sigma)/2
    for _ in range(20):
        sp = random_space(3, rng)
        rho = random_density_matrix(3, rng)
        lhs = sp.ent2(sp.gamma_power(-0.5, matrix_function(rho, np.sqrt)))
        rhs = 0.5 * relative_entropy_oracle(rho, sp.sigma)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


def test_ent1_of_relative_density_is_relative_entropy(rng):
    # Ent_1(Gamma^{-1}(rho)) = D(rho||sigma)
    for _ in range(50):
        sp = random_space(3, rng)
        rho = random_density_matrix(3, rng)
        lhs = sp.ent1(sp.gamma_inv(rho))
        rhs = relative_entropy_oracle(rho, sp.sigma)
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


def test_entropy_pairing_reduces_to_p2(rng):
    # <I_{q,p}(f), S_p(f)> = (2/p) <I_{2,p}(f), S_2(I_{2,p}(f))>
    for p in (1.5, 2.0, 3.0, 4.0):
        q = p / (p - 1.0)
        for _ in range(12):
            sp = random_space(3, rng)
            f = random_positive(3, rng)
            lhs = sp.inner(sp.power_operator(q, p, f), sp.op_relative_entropy(p, f))
            g = sp.power_operator(2.0, p, f)
            rhs = (2.0 / p) * sp.inner(g, sp.op_relative_entropy(2.0, g))
            assert abs(lhs - rhs) < 1e-8 * (1 + abs(rhs))


# ---------------------------------------------------------------------------
# norm derivative identity
# ---------------------------------------------------------------------------

def test_norm_derivative_constant_path(rng):
    sp = random_space(2, rng)
    f = random_positive(2, rng)
    lhs, rhs = sp.norm_derivative_check(f, lambda t: 2.0, 0.5)
    assert abs(lhs) < 1e-8 and rhs == 0.0


def test_norm_derivative_exponential_path(rng):
    for _ in range(10):
        sp = random_space(2, rng)
        f = random_positive(2, rng)
        lhs, rhs = sp.norm_derivative_check(f, lambda t: 1.0 + np.exp(2.0 * t), 0.3)
        assert abs(lhs - rhs) <= 1e-5 * (1 + abs(rhs))


def test_norm_derivative_classical_reduction(rng):
    # uniform sigma, diagonal f: d/dt ||f||_p^p = pdot * sum f_i^p log(f_i) / d
    d = 3
    uni = WeightedSpace(np.eye(d) / d)
    fvals = np.array([0.5, 1.2, 2.0])
    f = np.diag(fvals)
    p_path = lambda t: 1.0 + np.exp(2.0 * t)
    t0 = 0.3
    lhs, rhs = uni.norm_derivative_check(f, p_path, t0)
    p = p_path(t0)
    pdot = 2.0 * np.exp(2.0 * t0)
    # ||f||_{p,sigma}^p = sum_i f_i^p / d, so the derivative is
    # pdot * sum_i f_i^p log(f_i) / d
    classical = pdot * float(np.sum(fvals ** p * np.log(fvals))) / d
    assert abs(rhs - classical) < 1e-6 * (1 + abs(classical))
    assert abs(lhs - classical) < 1e-4 * (1 + abs(classical))


# ---------------------------------------------------------------------------
# unitary covariance
# ---------------------------------------------------------------------------

def test_functionals_unitary_invariance(rng):
    sp = random_space(3, rng)
    f = random_positive(3, rng)
    g = random_hermitian(3, rng)
    u = haar_unitary(3, rng)
    spu = WeightedSpace(u @ sp.sigma @ u.conj().T)
    fu = u @ f @ u.conj().T
    gu = u @ g @ u.conj().T
    for p in (1.7, 2.0):
        assert abs(sp.lp_norm(p, f) - spu.lp_norm(p, fu)) < 1e-10
    for p in (1.0, 2.0):
        assert abs(sp.ent(p, f) - spu.ent(p, fu)) < 1e-10 * (1 + sp.ent(p, f))
    assert abs(sp.inner(f, g) - spu.inner(fu, gu)) < 1e-10
    assert abs(sp.variance(g) - spu.variance(gu)) < 1e-10


# ---------------------------------------------------------------------------
# public methods against their composition from checked parts
# ---------------------------------------------------------------------------

def test_functionals_equal_their_checked_composition(rng):
    # each method once composed its intermediates through the checking
    # gamma_power, matrix_function and inner; the kernels give the same bits
    g = random_davies(3, rng)
    sp = g.stationary
    f = random_positive(3, rng)

    def lp_norm(p, x):
        w = np.linalg.eigvalsh(sp.gamma_power(1.0 / p, x))
        return float(np.sum(np.abs(w) ** p) ** (1.0 / p))

    def power_operator(p, q, x):
        ax = matrix_function(sp.gamma_power(1.0 / q, x),
                             lambda w: np.float_power(np.abs(w), q / p), eig_floor=-np.inf)
        return sp.gamma_power(-1.0 / p, ax)

    def op_relative_entropy(p, x):
        xlogx = matrix_function(sp.gamma_power(1.0 / p, x), lambda w: w * np.log(w))
        term2 = (x @ sp.log_sigma + sp.log_sigma @ x) / (2.0 * p)
        return hermitian_part(sp.gamma_power(-1.0 / p, xlogx) - term2)

    for p in (1.5, 3.0):
        q = p / (p - 1.0)
        assert sp.lp_norm(p, f) == lp_norm(p, f)
        assert np.array_equal(sp.power_operator(q, p, f), power_operator(q, p, f))
        assert np.array_equal(sp.op_relative_entropy(p, f), op_relative_entropy(p, f))
        norm = lp_norm(p, f)
        ent = sp.inner(power_operator(q, p, f), op_relative_entropy(p, f)) \
            - norm ** p * np.log(norm)
        assert ent > 0.0 and sp.ent(p, f) == ent
        form = -p / (2.0 * (p - 1.0)) * sp.inner(power_operator(q, p, f), g.apply(f))
        assert form > 0.0 and dirichlet(g, p, f) == form


def test_ent_decomposes_f_three_times(rng, monkeypatch):
    # the positivity gate, Gamma^{1/p}(f) for I_{q,p} and for X log X; the
    # public power_operator and op_relative_entropy would check f again
    sp = random_space(3, rng)
    f = random_positive(3, rng)
    expected = sp.ent(1.5, f)
    eigh, calls = np.linalg.eigh, []

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert sp.ent(1.5, f) == expected
    assert calls == [(3, 3)] * 3
