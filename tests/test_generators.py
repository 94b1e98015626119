import weakref

import numpy as np
import pytest

from qmix.generators import (
    DaviesSpec,
    GeneratorError,
    NotPrimitiveError,
    build_davies,
    build_depolarizing,
    build_lindblad,
    build_projection,
    build_random_unitary,
    davies_jump_operators,
    gibbs_state,
    hat_generator,
    kraus_rank,
    lift_channel,
    random_davies,
    random_lindblad,
    random_reversible_unital,
    stationary_state,
)
from qmix.operator_core import (
    choi_from_super,
    expm_superop,
    haar_unitary,
    left_right_super,
    max_abs,
    random_density_matrix,
    random_hermitian,
)

from conftest import (
    PAULI_X,
    PAULI_Z,
    depolarizing_lindblad_ops,
    projection_lindblad_ops,
    qubit_davies,
)


# ---------------------------------------------------------------------------
# generic construction and classification
# ---------------------------------------------------------------------------

def test_zero_generator_not_primitive():
    g = build_lindblad(np.zeros((2, 2)), [])
    assert max_abs(g.super_L) == 0.0
    assert g.primitive is False


def test_pure_hamiltonian_unital_not_primitive():
    g = build_lindblad(PAULI_Z, [])
    f = random_hermitian(2, np.random.default_rng(0))
    expected = 1j * (PAULI_Z @ f - f @ PAULI_Z)
    assert max_abs(g.apply(f) - expected) < 1e-14
    assert g.unital is True
    assert g.primitive is False


def test_build_rejects_non_hermitian_hamiltonian():
    with pytest.raises(ValueError):
        build_lindblad(np.array([[0, 1], [0, 0]], dtype=complex), [])


def test_build_rejects_dimension_mismatch():
    with pytest.raises(GeneratorError):
        build_lindblad(np.eye(2), [np.eye(3)])


def test_trace_preservation_invariant(rng):
    for gen in (random_lindblad(3, rng), random_reversible_unital(3, rng),
                random_davies(3, rng), build_depolarizing(4, 0.8)):
        assert max_abs(gen.apply(np.eye(gen.dim))) < 1e-10


def test_super_adjoint_consistency(rng):
    g = random_lindblad(3, rng)
    assert max_abs(g.super_Lstar - g.super_L.conj().T) < 1e-10


def test_semigroup_complete_positivity(rng):
    for gen in (random_lindblad(3, rng), qubit_davies(beta=0.7)):
        for t in (0.1, 1.0, 10.0):
            prop = expm_superop(gen.super_Lstar, t)
            j = choi_from_super(prop, gen.dim)
            w = np.linalg.eigvalsh(0.5 * (j + j.conj().T))
            assert w[0] > -1e-9


def test_reversible_implies_real_spectrum(rng):
    for gen in (random_davies(3, rng), random_reversible_unital(3, rng)):
        assert gen.reversible
        ev = np.linalg.eigvals(gen.super_L)
        assert np.max(np.abs(ev.imag)) < 1e-8


# ---------------------------------------------------------------------------
# depolarizing
# ---------------------------------------------------------------------------

def test_depolarizing_matches_lindblad_realization(rng):
    d, gamma = 3, 1.0
    fam = build_depolarizing(d, gamma)
    gen = build_lindblad(None, depolarizing_lindblad_ops(d, gamma))
    assert max_abs(fam.super_L - gen.super_L) < 1e-10
    assert gen.unital and gen.reversible and gen.primitive


def test_depolarizing_semigroup_closed_form(rng):
    d, gamma, t = 3, 1.3, 0.37
    g = build_depolarizing(d, gamma)
    f = random_hermitian(d, rng)
    eps = np.exp(-gamma * t)
    expected = (1 - eps) * np.trace(f) / d * np.eye(d) + eps * f
    assert max_abs(g.evolve_heisenberg(f, t) - expected) < 1e-9
    # generic expm route agrees
    gen = build_lindblad(None, depolarizing_lindblad_ops(d, gamma))
    assert max_abs(gen.evolve_heisenberg(f, t) - expected) < 1e-9
    # unitality and Pauli-x action on the qubit case
    g2 = build_depolarizing(2, gamma)
    for tt in (0.1, 1.0, 4.0):
        assert max_abs(g2.evolve_heisenberg(np.eye(2), tt) - np.eye(2)) < 1e-12
        assert max_abs(g2.evolve_heisenberg(PAULI_X, tt)
                       - np.exp(-gamma * tt) * PAULI_X) < 1e-12


def test_depolarizing_rejects_small_d():
    with pytest.raises(GeneratorError):
        build_depolarizing(1, 1.0)


def test_depolarizing_stationary():
    g = build_depolarizing(3, 1.0)
    assert max_abs(stationary_state(g).sigma - np.eye(3) / 3) < 1e-12


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_projection_reduces_to_depolarizing(rng):
    d = 3
    gp = build_projection(np.eye(d) / d, 0.9)
    gd = build_depolarizing(d, 0.9)
    f = random_hermitian(d, rng)
    assert max_abs(gp.apply(f) - gd.apply(f)) < 1e-12
    assert gp.unital


def test_projection_flags_and_semigroup(rng):
    sigma = random_density_matrix(4, rng)
    g = build_projection(sigma, 0.7)
    assert g.primitive and g.reversible and not g.unital
    assert max_abs(g.apply(np.eye(4))) < 1e-12
    f = random_hermitian(4, rng)
    t = 0.6
    eps = np.exp(-0.7 * t)
    expected = (1 - eps) * np.trace(sigma @ f) * np.eye(4) + eps * f
    assert max_abs(g.evolve_heisenberg(f, t) - expected) < 1e-10


def test_projection_stationary_state_null_space_oracle(rng):
    # rebuild via jump operators and recover sigma from the null space
    sigma = random_density_matrix(4, rng)
    gen = build_lindblad(None, projection_lindblad_ops(sigma, 0.8))
    assert gen.primitive
    assert max_abs(gen.stationary.sigma - sigma) < 1e-10
    assert gen.reversible


def test_projection_rejects_rank_deficient():
    with pytest.raises(ValueError):
        build_projection(np.diag([1.0, 0.0]), 1.0)


# ---------------------------------------------------------------------------
# Davies thermal generators
# ---------------------------------------------------------------------------

def test_davies_infinite_temperature_unital(rng):
    h = random_hermitian(3, rng)
    g = build_davies(DaviesSpec(hamiltonian=h, coupling_ops=[random_hermitian(3, rng)],
                                beta=0.0))
    assert g.unital
    assert max_abs(g.stationary.sigma - np.eye(3) / 3) < 1e-10


def test_davies_qubit_stationary_populations():
    omega0, beta = 1.0, 1.2
    g = qubit_davies(omega0=omega0, beta=beta)
    pops = np.diag(g.stationary.sigma).real
    expected = np.exp(np.array([-beta * omega0 / 2, beta * omega0 / 2]))
    expected /= expected.sum()
    assert np.max(np.abs(pops - expected)) < 1e-12


def test_davies_kms_operator_relation(rng):
    h = random_hermitian(3, rng)
    beta = 0.8
    spec = DaviesSpec(hamiltonian=h, coupling_ops=[random_hermitian(3, rng)], beta=beta)
    sigma = gibbs_state(h, beta)
    for _, omega, eta, s_op in davies_jump_operators(spec):
        # sigma S(omega) = e^{beta omega} S(omega) sigma
        assert max_abs(sigma @ s_op - np.exp(beta * omega) * s_op @ sigma) < 1e-10
        # KMS rate relation eta(-omega) = e^{-beta omega} eta(omega)
        eta_neg = 1.0 if -omega >= 0 else np.exp(-beta * omega)
        assert abs(eta_neg - np.exp(-beta * omega) * eta) < 1e-12


def test_davies_detailed_balance_superoperator(rng):
    g = qubit_davies(beta=0.9)
    sp = g.stationary
    gam = left_right_super(sp.sigma_power(0.5), sp.sigma_power(0.5))
    assert max_abs(gam @ g.super_L - g.super_Lstar @ gam) < 1e-8


def test_davies_gibbs_stationary_residual(rng):
    g = random_davies(3, rng)
    assert max_abs(g.apply_adjoint(g.stationary.sigma)) < 1e-9


def test_davies_commuting_coupling_not_primitive():
    h = np.diag([0.0, 0.4, 1.1]).astype(complex)
    with pytest.raises(NotPrimitiveError):
        build_davies(DaviesSpec(hamiltonian=h, coupling_ops=[h.copy()], beta=1.0))


# ---------------------------------------------------------------------------
# channel lifts
# ---------------------------------------------------------------------------

def test_lift_identity_channel_is_zero():
    g = lift_channel([np.eye(3)])
    assert max_abs(g.super_L) < 1e-14
    assert g.primitive is False


def test_lift_rejects_non_trace_preserving():
    with pytest.raises(GeneratorError):
        lift_channel([0.9 * np.eye(2)])


def test_lazy_channel_spectrum_shift(rng):
    # lazy channel T = (id + S)/2: lifted generator spectrum = spec(T) - 1,
    # real and contained in [-1, 0]
    d = 3
    u = haar_unitary(d, rng)
    v = haar_unitary(d, rng)
    s_kraus = [0.5 * u, 0.5 * u.conj().T, 0.5 * v, 0.5 * v.conj().T]
    lazy = [np.sqrt(0.5) * np.eye(d)] + [np.sqrt(0.5) * k for k in s_kraus]
    g = lift_channel(lazy)
    assert g.reversible and g.unital and g.primitive
    ev = np.linalg.eigvals(g.super_L)
    assert np.max(np.abs(ev.imag)) < 1e-8
    assert np.min(ev.real) > -1.0 - 1e-10
    assert np.max(ev.real) < 1e-10


def test_random_unitary_lift_flags_and_rank(rng):
    g = build_random_unitary(4, 2, seed=11)
    assert g.unital and g.reversible and g.primitive
    # symmetrized D=2 construction has 4 linearly independent Kraus operators
    assert g.params["kraus_rank"] == 4
    assert kraus_rank([np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)]) == 1


# ---------------------------------------------------------------------------
# stationary state and hat generator
# ---------------------------------------------------------------------------

def test_stationary_state_residual(rng):
    g = random_lindblad(3, rng)
    sp = stationary_state(g)
    assert max_abs(g.apply_adjoint(sp.sigma)) < 1e-10


def test_hat_equals_generator_for_reversible(rng):
    g = random_davies(3, rng)
    h = hat_generator(g)
    assert max_abs(g.super_L - h.super_L) < 1e-8


def test_hat_equals_adjoint_for_unital_nonreversible(rng):
    u1, u2 = haar_unitary(3, rng), haar_unitary(3, rng)
    g = lift_channel([u1 / np.sqrt(2), u2 / np.sqrt(2)])
    assert g.unital and not g.reversible
    assert max_abs(hat_generator(g).super_L - g.super_Lstar) < 1e-10


def test_hat_generator_is_built_once(rng):
    g = random_lindblad(3, rng)
    assert hat_generator(g) is hat_generator(g)


def test_hat_generator_is_freed_with_its_last_holder(rng):
    g = random_lindblad(3, rng)
    h = hat_generator(g)
    h.evolve_heisenberg(np.eye(3), 0.5)  # fills the hat's caches
    ref = weakref.ref(h)
    del h
    assert ref() is None


def test_hat_fixed_points(rng):
    g = random_lindblad(3, rng)
    h = hat_generator(g)
    assert max_abs(h.apply(np.eye(3))) < 1e-9
    assert max_abs(h.apply_adjoint(g.stationary.sigma)) < 1e-9


def test_hat_involution(rng):
    g = random_lindblad(3, rng)
    hh = hat_generator(hat_generator(g))
    f = random_hermitian(3, rng)
    assert max_abs(hh.apply(f) - g.apply(f)) < 1e-9


def test_hat_requires_primitive():
    g = build_lindblad(PAULI_Z, [])
    with pytest.raises(NotPrimitiveError):
        hat_generator(g)


def test_davies_unknown_rate_model():
    h = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(GeneratorError):
        davies_jump_operators(DaviesSpec(hamiltonian=h, coupling_ops=[PAULI_X],
                                         beta=1.0, rate_model="ohmic"))
