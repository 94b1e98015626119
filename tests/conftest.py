import numpy as np
import pytest

from qmix.generators import (
    build_depolarizing,
    build_projection,
    build_random_unitary,
    build_tensor_qubit_depolarizing,
    lift_channel,
    random_davies,
    random_lindblad,
    random_unitary_kraus,
)
from qmix.operator_core import random_density_matrix

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


def _tensor_qubit(d, rng):
    return build_tensor_qubit_depolarizing(1 if d < 4 else 2)


# every builder as family -> (d, rng) -> generator, for property tests over drawn
# generators (tensor_qubit gives d = 2 below d = 4 and d = 4 from there)
BUILDERS = {
    "generic": lambda d, rng: random_lindblad(d, rng),
    "davies": lambda d, rng: random_davies(d, rng),
    "channel": lambda d, rng: lift_channel(random_unitary_kraus(d, 2, rng, reversible=False)),
    "random_unitary": lambda d, rng: build_random_unitary(d, 2, int(rng.integers(2 ** 16))),
    "tensor_qubit": _tensor_qubit,
    "depolarizing": lambda d, rng: build_depolarizing(d, float(rng.uniform(0.2, 2.0))),
    "projection": lambda d, rng: build_projection(random_density_matrix(d, rng),
                                                  float(rng.uniform(0.2, 2.0))),
}


def relative_entropy_oracle(rho, sigma):
    """Independent D(rho||sigma) evaluation (plain eigendecompositions)."""
    wr, vr = np.linalg.eigh(rho)
    ws, vs = np.linalg.eigh(sigma)
    wr = np.clip(wr, 0.0, None)
    plogp = float(np.sum(wr[wr > 1e-300] * np.log(wr[wr > 1e-300])))
    log_sigma = (vs * np.log(ws)) @ vs.conj().T
    return plogp - float(np.trace(rho @ log_sigma).real)
