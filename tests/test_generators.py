import weakref

import numpy as np
import pytest

from qmix.generators import (
    SUPEROP_DIM_LIMIT,
    DaviesSpec,
    GeneratorError,
    NotPrimitiveError,
    build_davies,
    build_depolarizing,
    build_lindblad,
    build_projection,
    build_random_unitary,
    build_tensor_qubit_depolarizing,
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
    STACK_ENTRIES,
    choi_from_super,
    expm_superop,
    haar_unitary,
    left_right_super,
    max_abs,
    random_density_matrix,
    random_hermitian,
    unvec,
    vec,
)

from conftest import (
    PAULI_X,
    PAULI_Z,
    depolarizing_lindblad_ops,
    projection_lindblad_ops,
    qubit_davies,
    same_bits,
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


def test_classify_lets_a_bug_raise(monkeypatch):
    import qmix.generators as generators

    def planted_bug(g):
        raise ValueError("planted bug")

    monkeypatch.setattr(generators, "_null_space_state", planted_bug)
    with pytest.raises(ValueError, match="planted bug"):
        build_lindblad(None, [PAULI_X])


@pytest.mark.parametrize("failure", [
    lambda g: np.diag([1.0, 0.0]),  # WeightedSpace refuses a rank-deficient sigma
    lambda g: np.linalg.svd(np.full((2, 2), np.nan)),  # a failed SVD
])
def test_classify_turns_numerical_failures_into_a_verdict(failure, monkeypatch):
    import qmix.generators as generators

    monkeypatch.setattr(generators, "_null_space_state", failure)
    g = build_lindblad(None, [PAULI_X])
    assert g.primitive is False and g.stationary is None


def test_stationary_state_reads_the_verdict_of_classify(monkeypatch):
    import qmix.generators as generators

    calls = []
    original = generators._null_space_state

    def counting(g):
        calls.append(g)
        return original(g)

    g = build_lindblad(PAULI_Z, [])
    monkeypatch.setattr(generators, "_null_space_state", counting)
    with pytest.raises(NotPrimitiveError, match=r"^null space of L\* has dimension 2$"):
        stationary_state(g)
    assert calls == []
    assert g.primitive is False and g.stationary is None


def test_failed_svd_makes_stationary_state_raise_not_primitive(monkeypatch):
    import qmix.generators as generators

    monkeypatch.setattr(generators, "_null_space_state",
                        lambda g: np.linalg.svd(np.full((2, 2), np.nan)))
    g = build_lindblad(None, [PAULI_X])
    with pytest.raises(NotPrimitiveError):
        stationary_state(g)


def _evolution_cases(rng):
    """Dense generators at d = 3 and 8, a dense hat, and the closed forms."""
    dense3 = random_lindblad(3, rng)
    return [dense3, random_lindblad(8, rng), hat_generator(dense3),
            build_depolarizing(5, 0.9), build_projection(random_density_matrix(4, rng), 1.2)]


def test_stacked_evolution_equals_each_matrix_on_its_own(rng):
    for g in _evolution_cases(rng):
        d = g.dim
        stack = rng.standard_normal((7, d, d)) + 1j * rng.standard_normal((7, d, d))
        for t in (0.0, 0.3, 2.5):
            assert np.array_equal(g._evolution(t, heis=True)(stack),
                                  np.array([g.evolve_heisenberg(x, t) for x in stack]))
            assert np.array_equal(g._evolution(t, heis=False)(stack),
                                  np.array([g.evolve_schrodinger(x, t) for x in stack]))
            if g._closed is None and t > 0.0:  # one matrix-vector product each
                x = stack[0]
                assert np.array_equal(g.evolve_heisenberg(x, t),
                                      unvec(g.heisenberg_propagator(t) @ vec(x), d))
                assert np.array_equal(g.evolve_schrodinger(x, t),
                                      unvec(g.schrodinger_propagator(t) @ vec(x), d))


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


def _per_jump_actions(g, f):
    """The Heisenberg and Schrodinger actions as one loop over the jumps."""
    heis, schro = np.zeros_like(f), np.zeros_like(f)
    if g.hamiltonian is not None:
        heis = heis + 1j * (g.hamiltonian @ f - f @ g.hamiltonian)
        schro = schro - 1j * (g.hamiltonian @ f - f @ g.hamiltonian)
    for k in g.lindblad_ops:
        kd = k.conj().T
        kk = kd @ k
        heis = heis + kd @ f @ k - 0.5 * (kk @ f + f @ kk)
        schro = schro + k @ f @ kd - 0.5 * (kk @ f + f @ kk)
    return heis, schro


def test_stacked_jump_action_equals_per_jump_loop(rng):
    gens = [random_davies(d, rng) for d in (2, 3, 4)]
    gens += [random_lindblad(3, rng), random_lindblad(3, rng, with_hamiltonian=False),
             random_lindblad(2, rng, n_ops=1),
             build_random_unitary(4, 2, seed=5),
             build_random_unitary(3, 3, seed=6, reversible=False)]
    assert len(gens[2].lindblad_ops) > 10  # Davies d = 4: one jump per Bohr frequency
    for g in gens:
        for _ in range(20):
            f = random_hermitian(g.dim, rng)
            heis, schro = _per_jump_actions(g, f)
            assert np.array_equal(g._apply(f), heis)
            assert np.array_equal(g._apply_adjoint(f), schro)


def test_stacked_action_equals_each_matrix_on_its_own(rng):
    base = random_lindblad(3, rng)
    assert not base.reversible
    lindblad = random_lindblad(3, rng)
    assert lindblad.hamiltonian is not None and len(lindblad.lindblad_ops) == 2
    gens = [lindblad, random_davies(3, rng), build_depolarizing(4, 1.0),
            build_projection(random_density_matrix(3, rng), 0.9), hat_generator(base)]
    for g in gens:
        for n in (1, 7):
            stack = (rng.standard_normal((n, g.dim, g.dim))
                     + 1j * rng.standard_normal((n, g.dim, g.dim)))
            assert np.array_equal(g._apply(stack), np.array([g._apply(x) for x in stack]))
            assert np.array_equal(g._apply_adjoint(stack),
                                  np.array([g._apply_adjoint(x) for x in stack]))


def _kron_lindblad_super(hamiltonian, ops):
    """Reference Heisenberg superoperator: the Lindblad form summed from
    np.kron products, vec(A X B) = kron(B.T, A) vec(X)."""
    d = ops[0].shape[0]
    h = np.zeros((d, d), dtype=complex) if hamiltonian is None else hamiltonian
    eye = np.eye(d, dtype=complex)
    heis = 1j * (np.kron(eye.T, h) - np.kron(h.T, eye))
    for k in ops:
        k = np.asarray(k, dtype=complex)
        kk = k.conj().T @ k
        heis += np.kron(k.T, k.conj().T)
        heis -= 0.5 * (np.kron(eye.T, kk) + np.kron(kk.T, eye))
    return heis


def test_jump_superoperators_match_kron_reference_bit_for_bit(rng):
    gens = [random_lindblad(d, rng) for d in (2, 3, 5)]
    gens += [random_lindblad(4, rng, with_hamiltonian=False), random_reversible_unital(6, rng),
             random_davies(3, rng), random_davies(4, rng),
             build_tensor_qubit_depolarizing(2), build_random_unitary(4, 2, seed=3)]
    for g in gens:
        ref = _kron_lindblad_super(g.hamiltonian, g.lindblad_ops)
        assert same_bits(g.super_L, ref)
        assert same_bits(g.super_Lstar, ref.conj().T)


def _column_super(action, d):
    """Reference dense superoperator: column j is vec(action(E_j)), vec(E_j) = e_j."""
    s = np.empty((d * d, d * d), dtype=complex)
    for j in range(d * d):
        basis = np.zeros((d, d), dtype=complex)
        basis[j % d, j // d] = 1.0
        s[:, j] = vec(action(basis))
    return s


def test_closure_superoperators_match_column_reference_bit_for_bit(rng):
    depolarizing_d20 = build_depolarizing(20, 0.6)
    assert (20 * 20) ** 2 > STACK_ENTRIES  # the basis stack takes several chunks
    gens = [build_depolarizing(3, 1.3), depolarizing_d20,
            build_projection(random_density_matrix(4, rng), 0.9),
            hat_generator(random_lindblad(3, rng)), hat_generator(build_depolarizing(3, 1.0)),
            hat_generator(random_davies(3, rng))]
    for g in gens:
        assert g.lindblad_ops is None
        assert same_bits(g.super_L, _column_super(g.apply, g.dim))
        assert same_bits(g.super_Lstar, _column_super(g.apply_adjoint, g.dim))


def test_dense_superoperator_refused_above_the_dimension_limit():
    g = build_depolarizing(SUPEROP_DIM_LIMIT + 1, 1.0)
    with pytest.raises(GeneratorError, match="dense superoperator"):
        g.super_L


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


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_every_family_rejects_a_nonfinite_time(rng, t):
    gens = [build_depolarizing(3, 1.0), build_projection(random_density_matrix(3, rng), 0.8),
            random_davies(3, rng)]
    x = random_hermitian(3, rng)
    for g in gens:
        for evolve in (g.evolve_heisenberg, g.evolve_schrodinger):
            with pytest.raises(ValueError, match="time must be finite"):
                evolve(x, t)


def test_depolarizing_rejects_small_d():
    with pytest.raises(GeneratorError):
        build_depolarizing(1, 1.0)


def test_every_builder_rejects_d1():
    one = np.ones((1, 1), dtype=complex)
    builders = {
        "generic": lambda: build_lindblad(None, [one]),
        "generic hamiltonian": lambda: build_lindblad(one, [one]),
        "davies": lambda: build_davies(DaviesSpec(hamiltonian=one, coupling_ops=[one], beta=1.0)),
        "channel": lambda: lift_channel([one]),
        "depolarizing": lambda: build_depolarizing(1, 1.0),
    }
    for name, build in builders.items():
        with pytest.raises(GeneratorError, match="d >= 2, got d = 1"):
            build()


@pytest.mark.parametrize("gamma", [np.nan, np.inf])
def test_closed_forms_reject_a_nonfinite_gamma(rng, gamma):
    for build in (lambda: build_depolarizing(3, gamma),
                  lambda: build_projection(random_density_matrix(3, rng), gamma)):
        with pytest.raises(GeneratorError, match="gamma must be positive and finite"):
            build()


def test_empty_channels_are_rejected():
    with pytest.raises(GeneratorError, match="at least one Kraus operator"):
        lift_channel([])
    for n in (0, -1):
        with pytest.raises(GeneratorError, match=f"needs D >= 1, got D = {n}"):
            build_random_unitary(4, n, seed=1)


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


def test_davies_rejects_a_bad_bohr_tol_or_beta():
    h = np.diag([0.0, 1.0, 1.0]).astype(complex)
    ones = [np.ones((3, 3), dtype=complex)]
    with pytest.raises(GeneratorError, match="not primitive"):  # the default tolerance
        build_davies(DaviesSpec(hamiltonian=h, coupling_ops=ones, beta=1.0))
    for tol in (-1.0, -1e-12, np.nan, np.inf):
        spec = DaviesSpec(hamiltonian=h, coupling_ops=ones, beta=1.0, bohr_tol=tol)
        for build in (davies_jump_operators, build_davies):
            with pytest.raises(GeneratorError, match="bohr_tol must be finite and >= 0"):
                build(spec)
    for beta in (np.nan, np.inf, -1.0):
        spec = DaviesSpec(hamiltonian=h, coupling_ops=ones, beta=beta)
        for build in (davies_jump_operators, build_davies):
            with pytest.raises(GeneratorError, match="beta must be finite and >= 0"):
                build(spec)


def test_davies_energies_split_near_bohr_tol(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    coupling = [a + a.conj().T]  # every matrix element nonzero
    for tol in (None, 1e-6):  # None: 1e-9 times the spread of the energies, about 1e-9
        for split, n_jumps in ((0.99, 3), (1.01, 7)):
            delta = split * (1e-9 if tol is None else tol)
            h = np.diag([0.0, 1.0, 1.0 + delta]).astype(complex)
            spec = DaviesSpec(hamiltonian=h, coupling_ops=coupling, beta=1.0, bohr_tol=tol)
            omegas = sorted(omega for _, omega, _, _ in davies_jump_operators(spec))
            assert len(omegas) == n_jumps
            if n_jumps == 3:  # 1 and 1 + delta lower to 0 by one jump, at their mean
                assert omegas[-1] == pytest.approx(1.0 + delta / 2, abs=1e-13)
    # at the default tolerance both sides build; a merged split of 1e-6 breaks
    # the Gibbs state's stationarity by about beta * delta, and the build says so
    for split, n_jumps in ((0.99, 3), (1.01, 7)):
        h = np.diag([0.0, 1.0, 1.0 + split * 1e-9]).astype(complex)
        g = build_davies(DaviesSpec(hamiltonian=h, coupling_ops=coupling, beta=1.0))
        assert g.primitive and g.reversible and g.params["n_jumps"] == n_jumps
    h = np.diag([0.0, 1.0, 1.0 + 0.99e-6]).astype(complex)
    with pytest.raises(GeneratorError, match="Gibbs state is not stationary"):
        build_davies(DaviesSpec(hamiltonian=h, coupling_ops=coupling, beta=1.0, bohr_tol=1e-6))


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
    h.evolve_heisenberg(np.eye(3), 0.5)  # builds the hat's dense superoperator
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


def test_large_stacked_action_equals_each_matrix_on_its_own(rng):
    # stacks on both sides of the size where the jumps are taken one at a time:
    # a hat's are its base's, and a closed form, which has none, acts by
    # broadcast at any size (its boundary stack holds STACK_ENTRIES entries)
    base = random_lindblad(3, rng)
    kraus = [haar_unitary(3, rng) / np.sqrt(2.0), haar_unitary(3, rng) / np.sqrt(2.0)]
    cases = [(g, len(g._kk)) for g in (
        random_davies(3, rng), random_davies(4, rng), random_lindblad(3, rng), lift_channel(kraus),
        build_random_unitary(4, 2, 7), build_tensor_qubit_depolarizing(2))]
    cases += [(hat_generator(base), len(base._kk)), (build_depolarizing(3, 0.9), 1),
              (build_projection(random_density_matrix(3, rng), 0.8), 1)]
    for g, jumps in cases:
        largest_batched = STACK_ENTRIES // (jumps * g.dim ** 2)
        for n in (largest_batched, largest_batched + 1):
            stack = (rng.standard_normal((n, g.dim, g.dim))
                     + 1j * rng.standard_normal((n, g.dim, g.dim)))
            assert np.array_equal(g._apply(stack), np.array([g._apply(x) for x in stack]))
            assert np.array_equal(g._apply_adjoint(stack),
                                  np.array([g._apply_adjoint(x) for x in stack]))
