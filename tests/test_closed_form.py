"""The closed-form families (depolarizing, projection) built as closures.

Both are L = gamma (E - id), with E the projection onto sigma, so
exp(tL) = (1 - e^{-gamma t}) E + e^{-gamma t} id.  The pin test keeps the
expressions these families were first written with, verbatim, as the
reference: the closures must reproduce them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix.generators import (
    SUPEROP_DIM_LIMIT,
    build_depolarizing,
    build_projection,
    hat_generator,
)
from qmix.mixing import RelativeDensity, entropy_decay_check, pq_norm
from qmix.operator_core import (
    expm_superop,
    max_abs,
    random_density_matrix,
    random_pure_state,
    unvec,
    vec,
)

GAMMAS = (0.7, 1.3)
TIMES = (0.013, 0.5, 1.7, 9.0)


def _inputs(d, rng):
    """Complex, Hermitian, negated zero-diagonal (signed zeros) and tiny inputs."""
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (x + x.conj().T)
    return [x, h, -(x - np.diag(np.diag(x))), -1e-300 * h]


def _reference(family, d, gamma, sig):
    """The families' original closed-form expressions, one matrix at a time."""
    eye = np.eye(d)
    if family == "depolarizing":
        return {
            "heis": lambda f: gamma * (np.trace(f) / d * eye - f),
            "schro": lambda rho: gamma * (np.trace(rho) / d * eye - rho),
            "evolve_heis": lambda f, eps: (1.0 - eps) * np.trace(f) / d * eye + eps * f,
        }
    return {
        "heis": lambda f: gamma * (np.trace(sig @ f) * eye - f),
        "schro": lambda rho: gamma * (np.trace(rho) * sig - rho),
        "evolve_heis": lambda f, eps: (1.0 - eps) * np.trace(sig @ f) * eye + eps * f,
    }


def _reference_schro_stack(family, d, sig, rho, eps):
    """The original stacked Schrodinger closed form."""
    tr = np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
    if family == "depolarizing":
        return (1.0 - eps) * tr / d * np.eye(d) + eps * rho
    return (1.0 - eps) * tr * sig + eps * rho


def _cases():
    for d in list(range(2, 9)) + [64]:
        yield "depolarizing", d
    for d in range(2, 9):
        yield "projection", d


def _build(family, d, gamma, rng):
    if family == "depolarizing":
        return build_depolarizing(d, gamma)
    return build_projection(random_density_matrix(d, rng), gamma)


@pytest.mark.parametrize("family,d", list(_cases()))
def test_closures_reproduce_the_original_expressions_bit_for_bit(family, d, rng):
    for gamma in GAMMAS:
        g = _build(family, d, gamma, rng)
        ref = _reference(family, d, gamma, g.stationary.sigma)
        xs = _inputs(d, rng)
        stack = np.array(xs)
        for x in xs:
            assert np.array_equal(g.apply(x), ref["heis"](x))
            assert np.array_equal(g._apply(x), ref["heis"](x))
            assert np.array_equal(g.apply_adjoint(x), ref["schro"](x))
            assert np.array_equal(g._apply_adjoint(x), ref["schro"](x))
        # the actions on a stack give each matrix its own arithmetic
        assert np.array_equal(g._apply(stack), np.array([ref["heis"](x) for x in xs]))
        assert np.array_equal(g._apply_adjoint(stack),
                              np.array([ref["schro"](x) for x in xs]))
        heis = g._closed[1]
        for t in TIMES:
            eps = float(np.exp(-t * gamma))
            for x in xs:
                assert np.array_equal(g.evolve_heisenberg(x, t), ref["evolve_heis"](x, eps))
                assert np.array_equal(g.evolve_schrodinger(x, t),
                                      _reference_schro_stack(family, d, g.stationary.sigma,
                                                             x[None], eps)[0])
            assert np.array_equal(g._evolve(stack, t, heis=False),
                                  _reference_schro_stack(family, d, g.stationary.sigma,
                                                         stack, eps))
            assert np.array_equal(g._closed_evolve(heis, stack, t),
                                  np.array([ref["evolve_heis"](x, eps) for x in xs]))


def test_depolarizing_d64_hat_evolves_in_closed_form(rng):
    g = build_depolarizing(64, 1.0)
    h = hat_generator(g)
    f = _inputs(64, rng)[1]
    for t in (0.3, 1.5):
        assert np.array_equal(h.evolve_heisenberg(f, t), g.evolve_heisenberg(f, t))
    # the bounds of test_entropy_decay_depolarizing_projector, at d = 64
    rho0 = 0.9 * random_pure_state(64, rng) + 0.1 * np.eye(64) / 64
    f0 = RelativeDensity.from_state(rho0, g.stationary)
    res = entropy_decay_check(g, alpha1=0.5, f0=f0, t_grid=[0.3, 0.8, 1.5], lam=1.0)
    assert res["var_margin"] >= -1e-7
    assert res["ent_margin"] >= -1e-7
    assert res["deriv_rel_err"] <= 1e-4
    hat_norm = pq_norm(h, 2.0, 4.0, 0.5, restarts=2, budget=1)
    assert hat_norm == pq_norm(g, 2.0, 4.0, 0.5, restarts=2, budget=1)


@pytest.mark.parametrize("family", ["depolarizing", "projection"])
def test_closed_form_hat_keeps_its_dense_propagator_up_to_the_limit(family, rng):
    assert 8 <= SUPEROP_DIM_LIMIT
    g = _build(family, 8, 1.3, rng)
    h = hat_generator(g)
    f = _inputs(8, rng)[1]
    for t in (0.2, 1.1):
        assert np.array_equal(h.evolve_heisenberg(f, t),
                              unvec(expm_superop(h.super_L, t) @ vec(f), 8))


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from(["depolarizing", "projection"]),
       d=st.integers(min_value=2, max_value=6),
       gamma=st.floats(min_value=0.05, max_value=5.0),
       s=st.floats(min_value=0.0, max_value=3.0),
       t=st.floats(min_value=0.0, max_value=3.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_closed_form_invariants(family, d, gamma, s, t, seed):
    rng = np.random.default_rng(seed)
    g = _build(family, d, gamma, rng)
    sigma = g.stationary.sigma
    eye = np.eye(d)
    scale = 1.0 + gamma
    assert max_abs(g.apply(eye)) <= 1e-12 * scale
    assert max_abs(g.apply_adjoint(sigma)) <= 1e-12 * scale
    f = _inputs(d, rng)[1]
    hh = hat_generator(hat_generator(g))
    assert max_abs(hh.apply(f) - g.apply(f)) <= 1e-9 * scale * (1.0 + max_abs(f))
    composed = g.evolve_heisenberg(g.evolve_heisenberg(f, t), s)
    assert max_abs(composed - g.evolve_heisenberg(f, s + t)) <= 1e-12 * (1.0 + max_abs(f))
    dense = unvec(expm_superop(g.super_L, t) @ vec(f), d)
    assert max_abs(g.evolve_heisenberg(f, t) - dense) <= 1e-10 * (1.0 + max_abs(f))
