import numpy as np
import pytest

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def same_bits(a, b):
    """Equal arrays with equal signs of every zero, real and imaginary parts."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float))))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def depolarizing_lindblad_ops(d, gamma):
    """Jump-operator realization of the depolarizing generator."""
    ops = []
    for k in range(d):
        for l in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = 1.0
            ops.append(np.sqrt(gamma / d) * e)
    return ops


def projection_lindblad_ops(sigma, gamma):
    """Jump-operator realization of the projection generator onto sigma."""
    w, v = np.linalg.eigh(sigma)
    d = sigma.shape[0]
    ops = []
    for i in range(d):
        for j in range(d):
            ops.append(np.sqrt(gamma * w[i]) *
                       np.outer(v[:, i], v[:, j].conj()))
    return ops


def qubit_davies(omega0=1.0, beta=1.0, coupling=None):
    from qmix.generators import DaviesSpec, build_davies
    if coupling is None:
        coupling = PAULI_X
    h = 0.5 * omega0 * PAULI_Z
    return build_davies(DaviesSpec(hamiltonian=h, coupling_ops=[coupling], beta=beta))


def relative_entropy_oracle(rho, sigma):
    """Independent D(rho||sigma) evaluation (plain eigendecompositions)."""
    wr, vr = np.linalg.eigh(rho)
    ws, vs = np.linalg.eigh(sigma)
    wr = np.clip(wr, 0.0, None)
    plogp = float(np.sum(wr[wr > 1e-300] * np.log(wr[wr > 1e-300])))
    log_sigma = (vs * np.log(ws)) @ vs.conj().T
    return plogp - float(np.trace(rho @ log_sigma).real)
