"""Construction and classification of Liouvillians.

A Generator holds a Lindblad-form Liouvillian in the Heisenberg picture
(L(f) = i[H,f] + sum_i L_i^dag f L_i - (1/2){L_i^dag L_i, f}), its
Schrodinger adjoint, and classification flags (unital, reversible,
primitive) together with the stationary state when one exists.

Built-in families: depolarizing, projection onto a state, Davies thermal
generators, discrete-channel lifts L = T - id, random-unitary channel
lifts and tensor sums of qubit depolarizing generators.  Family builders
know their flags and stationary states in closed form and also provide
closed-form semigroup actions, which keeps large dimensions (the
depolarizing d = 64 runs) out of the dense-superoperator path; everything
is cross-checked against the generic path in the tests.  The sigma-adjoint
generator is built only by `hat_generator`, and shared by all its holders.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .lp_space import WeightedSpace
from .operator_core import (
    as_matrix,
    eig_hermitian,
    expm_superop,
    haar_unitary,
    hermitian_part,
    left_right_super,
    lindblad_super,
    max_abs,
    require_hermitian,
    unvec,
    vec,
)

__all__ = [
    "Generator",
    "GeneratorError",
    "NotPrimitiveError",
    "DaviesSpec",
    "build_lindblad",
    "build_depolarizing",
    "build_projection",
    "build_davies",
    "lift_channel",
    "stationary_state",
    "hat_generator",
    "gibbs_state",
    "random_unitary_kraus",
    "build_random_unitary",
    "build_tensor_qubit_depolarizing",
    "random_lindblad",
    "random_reversible_unital",
    "random_davies",
    "kraus_rank",
]

TRACE_PRESERVING_TOL = 1e-10
REVERSIBILITY_TOL = 1e-8
STATIONARY_TOL = 1e-9
NULLSPACE_TOL = 1e-10
SUPEROP_DIM_LIMIT = 32  # dense d^2 x d^2 objects are capped at d = 32


class GeneratorError(ValueError):
    pass


class NotPrimitiveError(GeneratorError):
    """The generator does not have a unique full-rank stationary state."""


class Generator:
    """A Liouvillian with cached superoperator matrices and flags.

    Instances are immutable in intent: all mutation happens during
    construction/classification inside the builders.  `apply` and
    `apply_adjoint` act through the Lindblad data (or through wrapped
    callables for derived generators such as the hat generator), so they
    stay cheap even when the dense superoperator would be large.
    """

    def __init__(self, dim, hamiltonian=None, lindblad_ops=None, family="generic",
                 params=None, apply_heis=None, apply_schro=None):
        self.dim = int(dim)
        self.hamiltonian = None if hamiltonian is None else require_hermitian(hamiltonian)
        self.lindblad_ops = None if lindblad_ops is None else [as_matrix(k) for k in lindblad_ops]
        # (K, K^dag, K^dag K) per jump, shared by apply and apply_adjoint
        self._jumps = [(k, k.conj().T, k.conj().T @ k) for k in self.lindblad_ops or ()]
        self.family = family
        self.params = dict(params or {})
        self._apply_heis = apply_heis
        self._apply_schro = apply_schro
        self.unital = None
        self.reversible = None
        self.primitive = None
        self.stationary: WeightedSpace | None = None
        self._super_cache: dict[str, np.ndarray] = {}
        self._prop_cache: dict[tuple, np.ndarray] = {}
        self._hat: weakref.ref | None = None  # see hat_generator
        self._eye = np.eye(self.dim)

    # -- actions ---------------------------------------------------------------

    def apply(self, f) -> np.ndarray:
        """Heisenberg action L(f)."""
        return self._apply(as_matrix(f))

    def _apply(self, f) -> np.ndarray:
        """`apply` without the input check, for a complex matrix the library built."""
        if self._apply_heis is not None:
            return self._apply_heis(f)
        if self.family == "depolarizing":
            g = self.params["gamma"]
            return g * (np.trace(f) / self.dim * self._eye - f)
        if self.family == "projection":
            g = self.params["gamma"]
            sig = self.stationary.sigma
            return g * (np.trace(sig @ f) * self._eye - f)
        out = np.zeros_like(f)
        if self.hamiltonian is not None:
            out = out + 1j * (self.hamiltonian @ f - f @ self.hamiltonian)
        for k, kd, kk in self._jumps:
            out = out + kd @ f @ k - 0.5 * (kk @ f + f @ kk)
        return out

    def apply_adjoint(self, rho) -> np.ndarray:
        """Schrodinger action L*(rho)."""
        return self._apply_adjoint(as_matrix(rho))

    def _apply_adjoint(self, rho) -> np.ndarray:
        """`apply_adjoint` without the input check, for a complex matrix the
        library built."""
        if self._apply_schro is not None:
            return self._apply_schro(rho)
        if self.family == "depolarizing":
            g = self.params["gamma"]
            return g * (np.trace(rho) / self.dim * self._eye - rho)
        if self.family == "projection":
            g = self.params["gamma"]
            sig = self.stationary.sigma
            return g * (np.trace(rho) * sig - rho)
        out = np.zeros_like(rho)
        if self.hamiltonian is not None:
            out = out - 1j * (self.hamiltonian @ rho - rho @ self.hamiltonian)
        for k, kd, kk in self._jumps:
            out = out + k @ rho @ kd - 0.5 * (kk @ rho + rho @ kk)
        return out

    def _require_stationary(self) -> WeightedSpace:
        if self.stationary is None:
            raise NotPrimitiveError(
                f"{self.family} generator has no stationary WeightedSpace; "
                "hat/Dirichlet machinery requires a primitive generator")
        return self.stationary

    # -- dense superoperators ----------------------------------------------------

    def _check_super_dim(self):
        if self.dim > SUPEROP_DIM_LIMIT:
            raise GeneratorError(
                f"dense superoperator requested at d={self.dim} > {SUPEROP_DIM_LIMIT} "
                "(design ceiling); use the action methods instead")

    def _super_from_action(self, action) -> np.ndarray:
        d = self.dim
        s = np.empty((d * d, d * d), dtype=complex)
        basis = np.zeros((d, d), dtype=complex)
        for j in range(d * d):
            basis.flat[:] = 0.0
            # column-stacking: j-th basis vector is E[j % d, j // d]
            basis[j % d, j // d] = 1.0
            s[:, j] = vec(action(basis))
        return s

    @property
    def super_L(self) -> np.ndarray:
        s = self._super_cache.get("L")
        if s is None:
            self._check_super_dim()
            if self.lindblad_ops is not None:
                s, _ = lindblad_super(self.hamiltonian, self.lindblad_ops)
            else:
                s = self._super_from_action(self.apply)
            self._super_cache["L"] = s
        return s

    @property
    def super_Lstar(self) -> np.ndarray:
        s = self._super_cache.get("Lstar")
        if s is None:
            self._check_super_dim()
            if self.lindblad_ops is not None:
                s = self.super_L.conj().T
            else:
                s = self._super_from_action(self.apply_adjoint)
            self._super_cache["Lstar"] = s
        return s

    # -- semigroup actions --------------------------------------------------------

    def evolve_heisenberg(self, f, t: float) -> np.ndarray:
        f = as_matrix(f)
        if t == 0.0:
            return f.copy()
        eps = self._family_decay(t)
        if eps is not None:
            if self.family == "depolarizing":
                return (1.0 - eps) * np.trace(f) / self.dim * self._eye + eps * f
            return (1.0 - eps) * np.trace(self.stationary.sigma @ f) * self._eye + eps * f
        return unvec(self.heisenberg_propagator(t) @ vec(f), self.dim)

    def evolve_schrodinger(self, rho, t: float) -> np.ndarray:
        return self._evolve_schrodinger(as_matrix(rho)[None], t)[0]

    def _evolve_schrodinger(self, rho, t: float) -> np.ndarray:
        """exp(t L*) on each matrix of an (n, d, d) stack the library built.

        Each matrix gets the same arithmetic as on its own: the closed forms
        are elementwise, and the dense path is one matrix-vector product per
        matrix (a single gemm over the stack rounds differently)."""
        if t == 0.0:
            return rho.copy()
        eps = self._family_decay(t)
        if eps is not None:
            tr = np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
            if self.family == "depolarizing":
                return (1.0 - eps) * tr / self.dim * self._eye + eps * rho
            return (1.0 - eps) * tr * self.stationary.sigma + eps * rho
        n, d = rho.shape[0], self.dim
        cols = rho.transpose(0, 2, 1).reshape(n, d * d, 1)  # vec of each matrix
        out = np.matmul(self.schrodinger_propagator(t), cols)
        return out.reshape(n, d, d).transpose(0, 2, 1)

    def _family_decay(self, t: float):
        if self.family in ("depolarizing", "projection"):
            return float(np.exp(-t * self.params["gamma"]))
        return None

    def heisenberg_propagator(self, t: float) -> np.ndarray:
        key = ("H", float(t))
        p = self._prop_cache.get(key)
        if p is None:
            p = expm_superop(self.super_L, t)
            if len(self._prop_cache) < 64:
                self._prop_cache[key] = p
        return p

    def schrodinger_propagator(self, t: float) -> np.ndarray:
        key = ("S", float(t))
        p = self._prop_cache.get(key)
        if p is None:
            p = expm_superop(self.super_Lstar, t)
            if len(self._prop_cache) < 64:
                self._prop_cache[key] = p
        return p

    def describe(self) -> dict:
        return {
            "family": self.family,
            "dim": self.dim,
            "unital": self.unital,
            "reversible": self.reversible,
            "primitive": self.primitive,
            "n_lindblad_ops": len(self.lindblad_ops) if self.lindblad_ops else 0,
            "sigma_min": self.stationary.sigma_min if self.stationary else None,
        }


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def _scale(g: Generator) -> float:
    s = 0.0
    if g.hamiltonian is not None:
        s += max_abs(g.hamiltonian)
    for k in g.lindblad_ops or ():
        s += max_abs(k) ** 2
    return max(s, 1.0)


def _check_trace_preserving(g: Generator):
    res = max_abs(g.apply(np.eye(g.dim)))
    if res > TRACE_PRESERVING_TOL * _scale(g):
        raise GeneratorError(f"L(1) != 0: residual {res:.3e}; not trace preserving")


def _null_space_state(g: Generator):
    """Null space of L*; returns the unique full-rank stationary state or
    raises NotPrimitiveError."""
    s = g.super_Lstar
    u, sv, vh = np.linalg.svd(s)
    smax = max(sv[0], 1.0)
    null_idx = np.nonzero(sv <= NULLSPACE_TOL * smax)[0]
    if len(null_idx) == 0:
        raise NotPrimitiveError("L* has no null space to numerical precision")
    if len(null_idx) > 1:
        raise NotPrimitiveError(f"null space of L* has dimension {len(null_idx)}")
    m = unvec(vh[null_idx[0]].conj(), g.dim)
    tr = np.trace(m)
    if abs(tr) < 1e-14:
        raise NotPrimitiveError("stationary candidate is traceless")
    m = hermitian_part(m / tr)
    w = np.linalg.eigvalsh(m)
    if w[0] <= 1e-10:
        raise NotPrimitiveError(
            f"stationary candidate is not full-rank positive (min eig {w[0]:.3e})")
    return m / np.trace(m).real


def _detailed_balance_residual(g: Generator, space: WeightedSpace) -> float:
    gam = left_right_super(space.sigma_power(0.5), space.sigma_power(0.5))
    lhs = gam @ g.super_L
    rhs = g.super_Lstar @ gam
    return max_abs(lhs - rhs) / _scale(g)


def classify(g: Generator, check_reversible: bool = True) -> Generator:
    """Fill the unital/primitive/reversible flags and the stationary state."""
    _check_trace_preserving(g)
    g.unital = max_abs(g.apply_adjoint(np.eye(g.dim))) <= TRACE_PRESERVING_TOL * _scale(g)
    try:
        sigma = _null_space_state(g)
        g.stationary = WeightedSpace(sigma)
        g.primitive = True
    except (NotPrimitiveError, ValueError):
        g.primitive = False
        g.stationary = None
        g.reversible = False
        return g
    if check_reversible:
        g.reversible = _detailed_balance_residual(g, g.stationary) <= REVERSIBILITY_TOL
    return g


def stationary_state(g: Generator) -> WeightedSpace:
    """Unique full-rank stationary state of a primitive generator.

    Computes the null space of L*; raises NotPrimitiveError when it is not
    one-dimensional or its representative is not full-rank positive.
    """
    if g.stationary is not None:
        return g.stationary
    sigma = _null_space_state(g)
    g.stationary = WeightedSpace(sigma)
    g.primitive = True
    res = max_abs(g.apply_adjoint(sigma))
    if res > STATIONARY_TOL * _scale(g):
        raise GeneratorError(f"stationary state residual {res:.3e} too large")
    return g.stationary


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_lindblad(hamiltonian, ops, family: str = "generic", params=None,
                   check_reversible: bool = True) -> Generator:
    """Generic Lindblad generator from a Hamiltonian and jump operators."""
    ops = [as_matrix(k) for k in (ops or [])]
    if hamiltonian is not None:
        h = require_hermitian(hamiltonian, name="hamiltonian")
        d = h.shape[0]
    elif ops:
        h = None
        d = ops[0].shape[0]
    else:
        raise GeneratorError("need a Hamiltonian or at least one Lindblad operator")
    for k in ops:
        if k.shape[0] != d:
            raise GeneratorError("Lindblad operator dimension mismatch")
    g = Generator(d, hamiltonian=h, lindblad_ops=ops, family=family, params=params)
    return classify(g, check_reversible=check_reversible)


def build_depolarizing(d: int, gamma: float) -> Generator:
    """L(f) = gamma*(tr(f)/d * 1 - f); unital, reversible, primitive with
    stationary state 1/d."""
    if d < 2:
        raise GeneratorError("depolarizing generator needs d >= 2")
    if gamma <= 0:
        raise GeneratorError("gamma must be positive")
    g = Generator(d, family="depolarizing", params={"gamma": float(gamma)})
    g.unital = True
    g.reversible = True
    g.primitive = True
    g.stationary = WeightedSpace(np.eye(d) / d)
    if max_abs(g.apply_adjoint(g.stationary.sigma)) > STATIONARY_TOL:
        raise GeneratorError("depolarizing stationary-state residual check failed")
    return g


def build_projection(sigma, gamma: float) -> Generator:
    """L(f) = gamma*(tr[f sigma] 1 - f): the semigroup projects onto sigma."""
    if gamma <= 0:
        raise GeneratorError("gamma must be positive")
    space = sigma if isinstance(sigma, WeightedSpace) else WeightedSpace(sigma)
    g = Generator(space.dim, family="projection", params={"gamma": float(gamma)})
    g.stationary = space
    g.primitive = True
    g.reversible = True
    g.unital = bool(max_abs(space.sigma - np.eye(space.dim) / space.dim) < 1e-12)
    if max_abs(g.apply_adjoint(space.sigma)) > STATIONARY_TOL:
        raise GeneratorError("projection stationary-state residual check failed")
    return g


def gibbs_state(hamiltonian, beta: float) -> np.ndarray:
    h = require_hermitian(hamiltonian, name="hamiltonian")
    w, v = eig_hermitian(h)
    # shift by the ground energy for a stable exponential
    ew = np.exp(-beta * (w - w[0]))
    ew /= ew.sum()
    return hermitian_part((v * ew) @ v.conj().T)


@dataclass
class DaviesSpec:
    """Inputs for a thermal (Davies) generator.

    coupling_ops are the Hermitian system operators whose decomposition over
    the Hamiltonian eigenprojectors yields the jump operators; beta is the
    inverse temperature.  rate_model fixes the KMS-compatible rate function
    eta(omega); `flat_kms` uses eta(omega) = 1 for omega >= 0 and
    e^{beta*omega} for omega < 0, which satisfies
    eta(-omega) = e^{-beta*omega} eta(omega) exactly.
    """
    hamiltonian: np.ndarray
    coupling_ops: list = field(default_factory=list)
    beta: float = 1.0
    bohr_tol: float | None = None
    rate_model: str = "flat_kms"


def _bohr_groups(energies: np.ndarray, tol: float):
    """All energy differences E_b - E_a clustered within tol.

    Returns a list of (omega, [(a, b), ...]) with omega the group mean and
    (a, b) index pairs such that the jump lowers the energy by omega
    (it maps the E_b eigenspace to the E_a = E_b - omega eigenspace)."""
    d = len(energies)
    diffs = []
    for a in range(d):
        for b in range(d):
            diffs.append((energies[b] - energies[a], a, b))
    diffs.sort(key=lambda x: x[0])
    groups = []
    for val, a, b in diffs:
        if groups and abs(val - groups[-1][0][-1]) <= tol:
            groups[-1][0].append(val)
            groups[-1][1].append((a, b))
        else:
            groups.append(([val], [(a, b)]))
    return [(float(np.mean(vals)), pairs) for vals, pairs in groups]


def davies_jump_operators(spec: DaviesSpec):
    """Fourier components S_k(omega) of each coupling operator, with their
    KMS rates.  Returns a list of (k, omega, eta, S_k(omega))."""
    h = require_hermitian(spec.hamiltonian, name="hamiltonian")
    d = h.shape[0]
    if spec.rate_model != "flat_kms":
        raise GeneratorError(f"unknown rate model {spec.rate_model!r}")
    energies, v = eig_hermitian(h)
    tol = spec.bohr_tol
    if tol is None:
        tol = 1e-9 * max(float(energies[-1] - energies[0]), 1.0)
    groups = _bohr_groups(energies, tol)
    out = []
    for k, coupling in enumerate(spec.coupling_ops):
        c = require_hermitian(coupling, name=f"coupling_ops[{k}]")
        if c.shape[0] != d:
            raise GeneratorError("coupling operator dimension mismatch")
        c_eig = v.conj().T @ c @ v
        for omega, pairs in groups:
            m = np.zeros((d, d), dtype=complex)
            for a, b in pairs:
                m[a, b] = c_eig[a, b]
            norm = max_abs(m)
            if norm <= 1e-12 * max(max_abs(c), 1.0):
                continue
            eta = 1.0 if omega >= 0 else float(np.exp(spec.beta * omega))
            out.append((k, omega, eta, v @ m @ v.conj().T))
    return out


def build_davies(spec: DaviesSpec) -> Generator:
    """Thermal generator: sum over Bohr frequencies of the KMS-weighted
    dissipators built from the Fourier components of the coupling operators.

    The coherent commutator term i[H, .] is omitted from the dynamics: it
    commutes with the dissipative part and with every Gamma_sigma power
    (since [H, sigma] = 0) and contributes nothing to the weighted norms,
    Dirichlet forms or entropies, while including it would break the strict
    superoperator identity Gamma o L = L* o Gamma and the real-spectrum
    property that the reversible machinery relies on.  The Hamiltonian is
    kept in params for the Bohr decomposition and the Gibbs state.

    The stationary state is the Gibbs state of H at inverse temperature
    beta; detailed balance and primitivity are verified numerically, and a
    non-primitive result (e.g. a coupling that commutes with H) raises.
    """
    h = require_hermitian(spec.hamiltonian, name="hamiltonian")
    if spec.beta < 0:
        raise GeneratorError("beta must be >= 0")
    jumps = davies_jump_operators(spec)
    ops = [np.sqrt(eta) * s for (_, _, eta, s) in jumps]
    if not ops:
        raise NotPrimitiveError("no jump operators survive; generator is purely Hamiltonian")
    g = Generator(h.shape[0], lindblad_ops=ops, family="davies",
                  params={"beta": spec.beta, "n_jumps": len(ops), "hamiltonian": h})
    _check_trace_preserving(g)
    sigma = gibbs_state(h, spec.beta)
    res = max_abs(g.apply_adjoint(sigma))
    if res > STATIONARY_TOL * _scale(g):
        raise GeneratorError(f"Gibbs state is not stationary: residual {res:.3e}")
    try:
        g.stationary = WeightedSpace(sigma)
    except ValueError as exc:
        raise NotPrimitiveError(f"Gibbs state is numerically rank-deficient: {exc}")
    # primitivity: the null space of L* must be exactly the Gibbs state
    try:
        _null_space_state(g)
    except NotPrimitiveError as exc:
        raise NotPrimitiveError(f"Davies generator is not primitive: {exc}")
    g.primitive = True
    g.unital = spec.beta == 0.0 or max_abs(
        g.apply_adjoint(np.eye(g.dim))) <= TRACE_PRESERVING_TOL * _scale(g)
    db = _detailed_balance_residual(g, g.stationary)
    if db > REVERSIBILITY_TOL:
        raise GeneratorError(f"detailed balance violated: residual {db:.3e}")
    g.reversible = True
    return g


def kraus_rank(kraus, rel_tol: float = 1e-8) -> int:
    """Number of linearly independent Kraus operators (numerical rank of the
    stacked vectorizations at rel_tol * largest singular value)."""
    m = np.stack([vec(k) for k in kraus])
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > rel_tol * sv[0]))


def lift_channel(kraus, check_reversible: bool = True) -> Generator:
    """Lift a quantum channel T (Kraus form) to the Liouvillian L = T - id.

    With the channel's Kraus operators taken as Lindblad operators the
    Lindblad form reduces exactly to T_heis - id because
    sum K^dag K = 1.  The count of linearly independent Kraus operators is
    recorded in params["kraus_rank"].
    """
    kraus = [as_matrix(k) for k in kraus]
    d = kraus[0].shape[0]
    closure = sum(k.conj().T @ k for k in kraus)
    if max_abs(closure - np.eye(d)) > TRACE_PRESERVING_TOL:
        raise GeneratorError("Kraus set is not trace preserving: sum K^dag K != 1")
    g = build_lindblad(None, kraus, family="channel",
                       params={"kraus_rank": kraus_rank(kraus)},
                       check_reversible=check_reversible)
    g.params["kraus"] = kraus
    return g


def build_tensor_qubit_depolarizing(n_qubits: int) -> Generator:
    """Sum over n qubits of single-qubit depolarizing generators, in the
    Pauli jump form L_i(f) = (1/4) sum_P (P_i f P_i - f), P in {X, Y, Z}."""
    paulis = (np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex))
    ops = []
    for i in range(n_qubits):
        for pauli in paulis:
            factors = [np.eye(2, dtype=complex)] * n_qubits
            factors[i] = pauli
            m = factors[0]
            for q in factors[1:]:
                m = np.kron(m, q)
            ops.append(0.5 * m)
    return build_lindblad(None, ops)


def random_unitary_kraus(dim: int, n_unitaries: int, rng, reversible: bool = True):
    """Kraus set of a uniform random-unitary channel.

    With reversible=True the channel is symmetrized with its Hilbert-Schmidt
    adjoint, i.e. the Kraus set becomes {U_i, U_i^dag} with halved weights,
    which is unital and reversible with respect to 1/d.
    """
    us = [haar_unitary(dim, rng) for _ in range(n_unitaries)]
    if reversible:
        w = 1.0 / np.sqrt(2 * n_unitaries)
        return [w * u for u in us] + [w * u.conj().T for u in us]
    w = 1.0 / np.sqrt(n_unitaries)
    return [w * u for u in us]


def build_random_unitary(dim: int, n_unitaries: int, seed: int,
                         reversible: bool = True) -> Generator:
    """Lifted generator of a random-unitary channel (seed always explicit)."""
    rng = np.random.default_rng(seed)
    kraus = random_unitary_kraus(dim, n_unitaries, rng, reversible=reversible)
    g = lift_channel(kraus)
    g.family = "random_unitary"
    g.params.update({"D": n_unitaries, "seed": seed, "symmetrized": reversible})
    return g


def hat_generator(g: Generator) -> Generator:
    """The sigma-adjoint generator Lhat = Gamma^{-1} o L* o Gamma.

    Lhat generates the evolution of relative densities; it shares the
    stationary state of L, satisfies Lhat(1) = 0 and Lhat*(sigma) = 0, and
    equals L itself when L is reversible.  Every hat action (Dirichlet
    forms, the gap, the LS search, relative-density evolution) goes through
    this one object: while any caller holds the hat, hat_generator(g)
    returns it.  g keeps only a weak reference, so the hat's dense
    superoperators and cached propagators are freed with its last holder
    rather than kept for g's lifetime.
    """
    h = None if g._hat is None else g._hat()
    if h is not None:
        return h
    sp = g._require_stationary()
    half = sp.sigma_power(0.5)
    half_inv = sp.sigma_power(-0.5)

    def heis(f):
        return half_inv @ g._apply_adjoint(half @ f @ half) @ half_inv

    def schro(rho):
        return half @ g._apply(half_inv @ rho @ half_inv) @ half

    h = Generator(g.dim, family="hat", params={"base_family": g.family},
                  apply_heis=heis, apply_schro=schro)
    h.stationary = sp
    h.primitive = True
    h.reversible = g.reversible
    h.unital = max_abs(h.apply_adjoint(np.eye(g.dim))) <= TRACE_PRESERVING_TOL * 10.0
    g._hat = weakref.ref(h)
    return h


# ---------------------------------------------------------------------------
# Random families for scans and tests
# ---------------------------------------------------------------------------

def random_lindblad(dim: int, rng, n_ops: int = 2, with_hamiltonian: bool = True,
                    max_tries: int = 20) -> Generator:
    """Random primitive generic Lindblad generator."""
    from .operator_core import random_hermitian
    for _ in range(max_tries):
        h = random_hermitian(dim, rng) if with_hamiltonian else None
        ops = [(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
               / np.sqrt(2 * dim) for _ in range(n_ops)]
        g = build_lindblad(h, ops)
        if g.primitive:
            return g
    raise GeneratorError("failed to draw a primitive random Lindblad generator")


def random_reversible_unital(dim: int, rng, n_pairs: int = 1,
                             max_tries: int = 20) -> Generator:
    """Random reversible unital generator with jump pairs {A, A^dag}."""
    for _ in range(max_tries):
        ops = []
        for _ in range(n_pairs):
            a = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) \
                / np.sqrt(2 * dim)
            ops += [a, a.conj().T]
        g = build_lindblad(None, ops)
        if g.primitive and g.reversible and g.unital:
            return g
    raise GeneratorError("failed to draw a primitive reversible unital generator")


def random_davies(dim: int, rng, beta: float | None = None,
                  n_couplings: int = 1, max_tries: int = 20) -> Generator:
    """Random thermal generator: random nondegenerate H, random Hermitian
    couplings, Gibbs stationary state."""
    from .operator_core import random_hermitian
    for _ in range(max_tries):
        b = float(rng.uniform(0.2, 1.5)) if beta is None else beta
        energies = np.sort(rng.uniform(0.0, 2.0, size=dim))
        u = haar_unitary(dim, rng)
        h = hermitian_part(u @ np.diag(energies) @ u.conj().T)
        couplings = [random_hermitian(dim, rng) for _ in range(n_couplings)]
        try:
            return build_davies(DaviesSpec(hamiltonian=h, coupling_ops=couplings, beta=b))
        except GeneratorError:
            continue
    raise GeneratorError("failed to draw a primitive random Davies generator")
