"""Construction and classification of Liouvillians.

A Generator holds a Lindblad-form Liouvillian in the Heisenberg picture
(L(f) = i[H,f] + sum_i L_i^dag f L_i - (1/2){L_i^dag L_i, f}), its
Schrodinger adjoint, and classification flags (unital, reversible,
primitive) together with the stationary state when one exists.  Whether a
generator is primitive, and its sigma, are decided once, when it is built:
`stationary_state` only reads that verdict.  Both pictures of the semigroup
evolve through one stacked map, `Generator._evolution`, held by its caller.

Built-in families: depolarizing, projection onto a state, Davies thermal
generators, discrete-channel lifts L = T - id, random-unitary channel
lifts and tensor sums of qubit depolarizing generators.  Depolarizing and
projection share one builder, `_closed_form_generator`, whose closures
give both their actions and their closed-form semigroups, which keeps
large dimensions (the depolarizing d = 64 runs) out of the dense-superoperator
path; `Generator.family` is only a label.  Everything is cross-checked
against the generic path in the tests.  The sigma-adjoint generator is
built only by `hat_generator`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._blas import blas_threads_for
from .lp_space import WeightedSpace
from .operator_core import (
    STACK_ENTRIES,
    _ginibre,
    _re_trace,
    as_matrix,
    expm_superop,
    haar_unitary,
    hermitian_part,
    left_right_super,
    max_abs,
    random_hermitian,
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
RANDOM_TRIES = 20  # draws before a random_* family gives up


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
    stay cheap even when the dense superoperator would be large.  The dense
    `super_L` and `super_Lstar` are built one way, by `_dense`, and cached.

    The m jumps are held as three (m, d, d) stacks, K, K^dag and K^dag K,
    so an action makes one stacked matmul per product over all jumps (a
    large (n, d, d) stack takes them one jump at a time).  The
    terms A_k = K_k^dag f K_k and C_k = (1/2){K_k^dag K_k, f} are then added
    one by one, in jump order, as out + A_k - C_k: summing the stack, or
    adding (A_k - C_k), rounds differently.

    A closed-form generator carries `closed_form` = (gamma, heis, schro), see
    `_closed_form_generator`; `family` is a label that no method branches on.
    """

    def __init__(self, dim, hamiltonian=None, lindblad_ops=None, family="generic",
                 params=None, apply_heis=None, apply_schro=None, closed_form=None):
        self.dim = int(dim)
        if self.dim < 2:
            raise GeneratorError(f"a generator needs d >= 2, got d = {self.dim}")
        self.hamiltonian = None if hamiltonian is None else require_hermitian(hamiltonian)
        self.lindblad_ops = None if lindblad_ops is None else [as_matrix(k) for k in lindblad_ops]
        self._k = np.array(self.lindblad_ops or (), dtype=complex).reshape(-1, self.dim, self.dim)
        self._kd = self._k.conj().transpose(0, 2, 1)
        self._kk = self._kd @ self._k
        self.family = family
        self.params = dict(params or {})
        self._apply_heis = apply_heis
        self._apply_schro = apply_schro
        self._closed = closed_form
        self.unital = None
        self.reversible = None
        self.primitive = None
        self.stationary: WeightedSpace | None = None
        self._no_stationary = f"{family} generator has no stationary state"  # see classify

    # -- actions ---------------------------------------------------------------

    def apply(self, f) -> np.ndarray:
        """Heisenberg action L(f)."""
        return self._apply(as_matrix(f))

    def _apply(self, f) -> np.ndarray:
        """`apply` without the input check, for a complex matrix the library
        built or for each matrix of an (n, d, d) stack.  Each matrix gets the
        arithmetic it gets on its own: the jump terms of every matrix are
        added in jump order by `_add_jumps`, and the closed-form and hat
        closures act elementwise or by broadcast matmul."""
        if self._apply_heis is not None:
            return self._apply_heis(f)
        out = np.zeros_like(f)
        if self.hamiltonian is not None:
            out = out + 1j * (self.hamiltonian @ f - f @ self.hamiltonian)
        return self._add_jumps(out, self._kd, f, self._k)

    def apply_adjoint(self, rho) -> np.ndarray:
        """Schrodinger action L*(rho)."""
        return self._apply_adjoint(as_matrix(rho))

    def _apply_adjoint(self, rho) -> np.ndarray:
        """`apply_adjoint` without the input check, for a complex matrix the
        library built or an (n, d, d) stack, as `_apply`."""
        if self._apply_schro is not None:
            return self._apply_schro(rho)
        out = np.zeros_like(rho)
        if self.hamiltonian is not None:
            out = out - 1j * (self.hamiltonian @ rho - rho @ self.hamiltonian)
        return self._add_jumps(out, self._k, rho, self._kd)

    def _add_jumps(self, out, left, x, right):
        """out + sum_k (left_k x right_k - 0.5 {K_k^dag K_k, x}), added in jump
        order.  One matrix, or a stack whose (n, m, d, d) sandwiches fit in
        STACK_ENTRIES, forms all m sandwiches and anticommutators with one
        stacked matmul each; a larger stack takes the jumps one at a time, so
        memory stays O(n d^2) at any jump count (a Davies generator has up to
        d^2 - d + 1 jumps).  Either way each matrix gets the same products."""
        if x.ndim == 3 and x.size * len(self._kk) > STACK_ENTRIES:
            for lk, rk, kk in zip(left, right, self._kk):
                out = out + lk @ x @ rk - 0.5 * (kk @ x + x @ kk)
            return out
        x = x[..., None, :, :]  # broadcasts over the jump axis
        anti = 0.5 * (self._kk @ x + x @ self._kk)
        # the jump axis first: iterating it is cheaper than indexing it
        for a, c in zip((left @ x @ right).swapaxes(0, -3), anti.swapaxes(0, -3)):
            out = out + a - c
        return out

    # -- dense superoperators ----------------------------------------------------

    def _dense(self, heis: bool) -> np.ndarray:
        """The dense superoperator of L (heis) or L*.  With jumps, L is the sum
        of `left_right_super` terms i[H, .], then K^dag . K and -(1/2){K^dag K, .}
        jump by jump, from the held stacks, and L* is its conjugate transpose.
        A closure generator acts once on the stack of basis matrices E_j,
        vec(E_j) = e_j, in chunks of at most STACK_ENTRIES entries."""
        d = self.dim
        if d > SUPEROP_DIM_LIMIT:
            raise GeneratorError(
                f"dense superoperator requested at d={d} > {SUPEROP_DIM_LIMIT} "
                "(design ceiling); use the action methods instead")
        n = d * d
        if self.lindblad_ops is not None:
            if not heis:
                return self.super_L.conj().T
            eye = np.eye(d)
            h = self.hamiltonian
            s = (np.zeros((n, n), dtype=complex) if h is None
                 else 1j * (left_right_super(h, eye) - left_right_super(eye, h)))
            for kd, k, kk in zip(self._kd, self._k, self._kk):
                s += left_right_super(kd, k)
                s -= 0.5 * (left_right_super(kk, eye) + left_right_super(eye, kk))
            return s
        action = self._apply if heis else self._apply_adjoint
        s = np.empty((n, n), dtype=complex)
        chunk = max(1, STACK_ENTRIES // n)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            basis = unvec(np.eye(stop - start, n, k=start), d)  # E_j for j in [start, stop)
            s[:, start:stop] = vec(action(basis)).T
        return s

    @functools.cached_property
    def super_L(self) -> np.ndarray:
        return self._dense(heis=True)

    @functools.cached_property
    def super_Lstar(self) -> np.ndarray:
        return self._dense(heis=False)

    # -- semigroup actions --------------------------------------------------------

    def evolve_heisenberg(self, f, t: float) -> np.ndarray:
        """T_t(f) = exp(tL)(f)."""
        f = as_matrix(f)  # checked before any propagator is built
        return self._evolution(t, heis=True)(f[None])[0]

    def evolve_schrodinger(self, rho, t: float) -> np.ndarray:
        """T_t*(rho) = exp(tL*)(rho)."""
        rho = as_matrix(rho)
        return self._evolution(t, heis=False)(rho[None])[0]

    def _evolution(self, t: float, heis: bool):
        """The map x -> exp(tL)x (heis) or exp(tL*)x on each matrix of an
        (n, d, d) stack the library built; a caller that reuses t holds it,
        and g keeps nothing.  Each matrix gets the arithmetic it gets on its
        own: the closed form (1 - eps) E + eps id, eps = e^{-gamma t}, is
        elementwise, and the dense path is one matrix-vector product per
        matrix against the propagator (a gemm over the stack rounds
        differently).  A NaN or infinite t is rejected."""
        if not math.isfinite(t):
            raise ValueError("time must be finite")
        if t == 0.0:
            return lambda x: x.copy()
        if self._closed is not None:
            e = self._closed[1 if heis else 2]
            eps = float(np.exp(-t * self._closed[0]))
            return lambda x: e(x, 1.0 - eps) + eps * x
        prop = self.heisenberg_propagator(t) if heis else self.schrodinger_propagator(t)
        return lambda x: unvec(np.matmul(prop, vec(x)[..., None])[..., 0], self.dim)

    def heisenberg_propagator(self, t: float) -> np.ndarray:
        return expm_superop(self.super_L, t)

    def schrodinger_propagator(self, t: float) -> np.ndarray:
        return expm_superop(self.super_Lstar, t)

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
    with blas_threads_for(s.shape[0]):
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
    return m / _re_trace(m)


def _detailed_balance_residual(g: Generator, space: WeightedSpace) -> float:
    gam = left_right_super(space.sigma_power(0.5), space.sigma_power(0.5))
    with blas_threads_for(gam.shape[0]):
        lhs = gam @ g.super_L
        rhs = g.super_Lstar @ gam
    return max_abs(lhs - rhs) / _scale(g)


def _full_rank_space(sigma, what: str) -> WeightedSpace:
    """WeightedSpace(sigma), its ValueError raised as NotPrimitiveError."""
    try:
        return WeightedSpace(sigma)
    except ValueError as exc:
        raise NotPrimitiveError(f"{what} is numerically rank-deficient: {exc}")


def classify(g: Generator) -> Generator:
    """Fill the unital/primitive/reversible flags and the stationary state;
    a non-primitive g keeps the reason for `stationary_state` to raise."""
    _check_trace_preserving(g)
    g.unital = max_abs(g.apply_adjoint(np.eye(g.dim))) <= TRACE_PRESERVING_TOL * _scale(g)
    try:
        g.stationary = _full_rank_space(_null_space_state(g), "stationary state")
        g.primitive = True
    except (NotPrimitiveError, np.linalg.LinAlgError) as exc:  # a failed SVD is a verdict
        g.primitive = False
        g.stationary = None
        g.reversible = False
        g._no_stationary = str(exc)
        return g
    g.reversible = _detailed_balance_residual(g, g.stationary) <= REVERSIBILITY_TOL
    return g


def stationary_state(g: Generator) -> WeightedSpace:
    """Unique full-rank stationary state of a primitive generator.

    Only reads the verdict made when g was built: returns g.stationary, or
    raises NotPrimitiveError with the reason `classify` recorded (say, the
    null space of L* is not one-dimensional).  Nothing is recomputed.
    """
    if g.stationary is None:
        raise NotPrimitiveError(g._no_stationary)
    return g.stationary


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_lindblad(hamiltonian, ops, family: str = "generic", params=None) -> Generator:
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
    return classify(g)


def _trace(x):
    """tr x as a scalar, or the traces of an (n, d, d) stack shaped (n, 1, 1)."""
    tr = np.trace(x, axis1=-2, axis2=-1)
    return tr if x.ndim == 2 else tr[:, None, None]


def _closed_form_generator(space: WeightedSpace, family: str, gamma: float,
                           heis, schro) -> Generator:
    """L = gamma (E - id), E the projection onto `space`'s sigma, from
    heis(x, c) = c E(x) and schro(x, c) = c E*(x) on a matrix or a stack.
    The actions take c = 1.0 (exact), the semigroup c = 1 - e^{-gamma t}: c
    is an argument because (1 - eps) * tr(f) / d and (1 - eps) * (tr(f) / d)
    round differently.  Reversible and primitive by construction."""
    if not (gamma > 0 and math.isfinite(gamma)):
        raise GeneratorError("gamma must be positive and finite")
    gamma = float(gamma)
    g = Generator(space.dim, family=family, params={"gamma": gamma},
                  apply_heis=lambda f: gamma * (heis(f, 1.0) - f),
                  apply_schro=lambda rho: gamma * (schro(rho, 1.0) - rho),
                  closed_form=(gamma, heis, schro))
    g.stationary = space
    g.primitive = g.reversible = True
    g.unital = bool(max_abs(space.sigma - np.eye(space.dim) / space.dim) < 1e-12)
    if max_abs(g.apply_adjoint(space.sigma)) > STATIONARY_TOL:
        raise GeneratorError(f"{family} stationary-state residual check failed")
    return g


def build_depolarizing(d: int, gamma: float) -> Generator:
    """L(f) = gamma*(tr(f)/d * 1 - f); unital, reversible, primitive with
    stationary state 1/d."""
    eye = np.eye(d)

    def e(x, c):  # E = E*: x -> tr(x)/d 1
        return c * _trace(x) / d * eye

    return _closed_form_generator(WeightedSpace(eye / d), "depolarizing", gamma, e, e)


def build_projection(sigma, gamma: float) -> Generator:
    """L(f) = gamma*(tr[f sigma] 1 - f): the semigroup projects onto sigma."""
    space = sigma if isinstance(sigma, WeightedSpace) else WeightedSpace(sigma)
    sig, eye = space.sigma, np.eye(space.dim)
    return _closed_form_generator(space, "projection", gamma,
                                  lambda x, c: c * _trace(sig @ x) * eye,
                                  lambda x, c: c * _trace(x) * sig)


def gibbs_state(hamiltonian, beta: float) -> np.ndarray:
    h = require_hermitian(hamiltonian, name="hamiltonian")
    w, v = np.linalg.eigh(h)
    # shift by the ground energy for a stable exponential
    ew = np.exp(-beta * (w - w[0]))
    ew /= ew.sum()
    return hermitian_part((v * ew) @ v.conj().T)


@dataclass
class DaviesSpec:
    """Inputs for a thermal (Davies) generator.

    coupling_ops are the Hermitian system operators whose decomposition over
    the Hamiltonian eigenprojectors yields the jump operators; beta is the
    inverse temperature.  The KMS-compatible rate function is eta(omega) = 1
    for omega >= 0 and e^{beta*omega} for omega < 0, which satisfies
    eta(-omega) = e^{-beta*omega} eta(omega) exactly.
    """
    hamiltonian: np.ndarray
    coupling_ops: list = field(default_factory=list)
    beta: float = 1.0
    bohr_tol: float | None = None


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
    if not (spec.beta >= 0 and math.isfinite(spec.beta)):
        raise GeneratorError(f"beta must be finite and >= 0, got {spec.beta}")
    tol = spec.bohr_tol
    if tol is not None and not (tol >= 0 and math.isfinite(tol)):
        raise GeneratorError(f"bohr_tol must be finite and >= 0, got {tol}")
    energies, v = np.linalg.eigh(h)
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
    jumps = davies_jump_operators(spec)  # checks beta and bohr_tol
    ops = [np.sqrt(eta) * s for (_, _, eta, s) in jumps]
    if not ops:
        raise NotPrimitiveError("no jump operators survive; generator is purely Hamiltonian")
    g = Generator(h.shape[0], lindblad_ops=ops, family="davies",
                  params={"beta": spec.beta, "n_jumps": len(ops), "hamiltonian": h})
    _check_trace_preserving(g)
    sigma = gibbs_state(h, spec.beta)
    res = max_abs(g.apply_adjoint(sigma))
    if res > STATIONARY_TOL * _scale(g):
        hint = ("" if spec.bohr_tol is None else
                f" (bohr_tol {spec.bohr_tol!r} may merge split Bohr frequencies)")
        raise GeneratorError(f"Gibbs state is not stationary: residual {res:.3e}{hint}")
    g.stationary = _full_rank_space(sigma, "Gibbs state")
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


def kraus_rank(kraus) -> int:
    """Number of linearly independent Kraus operators (numerical rank of the
    stacked vectorizations at 1e-8 * largest singular value)."""
    m = np.stack([vec(k) for k in kraus])
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > 1e-8 * sv[0]))


def lift_channel(kraus) -> Generator:
    """Lift a quantum channel T (Kraus form) to the Liouvillian L = T - id.

    With the channel's Kraus operators taken as Lindblad operators the
    Lindblad form reduces exactly to T_heis - id because
    sum K^dag K = 1.  The count of linearly independent Kraus operators is
    recorded in params["kraus_rank"].
    """
    kraus = [as_matrix(k) for k in kraus]
    if not kraus:
        raise GeneratorError("a channel needs at least one Kraus operator")
    d = kraus[0].shape[0]
    closure = sum(k.conj().T @ k for k in kraus)
    if max_abs(closure - np.eye(d)) > TRACE_PRESERVING_TOL:
        raise GeneratorError("Kraus set is not trace preserving: sum K^dag K != 1")
    g = build_lindblad(None, kraus, family="channel",
                       params={"kraus_rank": kraus_rank(kraus)})
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
    if n_unitaries < 1:
        raise GeneratorError(f"a random-unitary channel needs D >= 1, got D = {n_unitaries}")
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
    a hat built here.  g keeps no reference to it, so the hat's dense
    superoperators are freed with its last holder.
    """
    sp = stationary_state(g)
    half = sp.sigma_power(0.5)
    half_inv = sp.sigma_power(-0.5)

    def heis(f):
        return half_inv @ g._apply_adjoint(half @ f @ half) @ half_inv

    def schro(rho):
        return half @ g._apply(half_inv @ rho @ half_inv) @ half

    # Closed-form families are reversible, so Lhat = L: past the dense limit
    # the hat evolves by L's closed form, below it by its dense propagator.
    closed = g._closed if g.dim > SUPEROP_DIM_LIMIT else None
    h = Generator(g.dim, family="hat", params={"base_family": g.family},
                  apply_heis=heis, apply_schro=schro, closed_form=closed)
    h.stationary = sp
    h.primitive = True
    h.reversible = g.reversible
    h.unital = max_abs(h.apply_adjoint(np.eye(g.dim))) <= TRACE_PRESERVING_TOL * 10.0
    return h


# ---------------------------------------------------------------------------
# Random families for scans and tests
# ---------------------------------------------------------------------------

def random_lindblad(dim: int, rng, n_ops: int = 2,
                    with_hamiltonian: bool = True) -> Generator:
    """Random primitive generic Lindblad generator."""
    for _ in range(RANDOM_TRIES):
        h = random_hermitian(dim, rng) if with_hamiltonian else None
        ops = [_ginibre((dim, dim), rng) / np.sqrt(2 * dim) for _ in range(n_ops)]
        g = build_lindblad(h, ops)
        if g.primitive:
            return g
    raise GeneratorError("failed to draw a primitive random Lindblad generator")


def random_reversible_unital(dim: int, rng) -> Generator:
    """Random reversible unital generator with the jump pair {A, A^dag}."""
    for _ in range(RANDOM_TRIES):
        a = _ginibre((dim, dim), rng) / np.sqrt(2 * dim)
        g = build_lindblad(None, [a, a.conj().T])
        if g.primitive and g.reversible and g.unital:
            return g
    raise GeneratorError("failed to draw a primitive reversible unital generator")


def random_davies(dim: int, rng, beta: float | None = None) -> Generator:
    """Random thermal generator: random nondegenerate H, one random Hermitian
    coupling, Gibbs stationary state."""
    for _ in range(RANDOM_TRIES):
        b = float(rng.uniform(0.2, 1.5)) if beta is None else beta
        energies = np.sort(rng.uniform(0.0, 2.0, size=dim))
        u = haar_unitary(dim, rng)
        h = hermitian_part(u @ np.diag(energies) @ u.conj().T)
        couplings = [random_hermitian(dim, rng)]
        try:
            return build_davies(DaviesSpec(hamiltonian=h, coupling_ops=couplings, beta=b))
        except GeneratorError:
            continue
    raise GeneratorError("failed to draw a primitive random Davies generator")
