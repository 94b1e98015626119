"""Weighted non-commutative L_p toolkit for quantum Markov semigroups.

Computes spectral gaps, log-Sobolev constants, L_p-regularity evidence and
mixing-time bounds for finite-dimensional Lindblad generators.
"""

from . import _blas  # noqa: F401  (the BLAS thread policy, set before any kernel runs)
from .lp_space import WeightedSpace, PositivityError
from .generators import (
    Generator,
    GeneratorError,
    NotPrimitiveError,
    DaviesSpec,
    build_lindblad,
    build_depolarizing,
    build_projection,
    build_davies,
    lift_channel,
    build_random_unitary,
    stationary_state,
    hat_generator,
    gibbs_state,
)
from .dirichlet_gap import GapReport, dirichlet, spectral_gap

__version__ = "0.1.0"
