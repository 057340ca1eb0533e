"""Pairing of cavity-coupled electrons, resolved by the photon's quantum state.

The package solves the on-shell ladder equations for the electron pairing
vertex when the mediating cavity photon starts in the vacuum, a pure number
state, an equilibrium thermal state, or a diagonal mixture; verifies the
sector recursion against an exact rational-series oracle; and extracts the
critical temperature, the susceptibility exponent, and the pair correlation
length with its exponent.  See the README for the command-line interface.
"""

from .ladder import (
    CriticalityError,
    KernelScalars,
    bare_vertex,
    intermediate_vertex_closed_form,
    oracle_check,
    solve_fock_hierarchy,
    thermal_resummation_check,
    vertex_for_state,
)
from .model import (
    ConstantLifetime,
    DiagonalMixture,
    FermiLiquidLifetime,
    Fock,
    ModelParams,
    Thermal,
    Vacuum,
)
from .useries import RationalFunction, f_factor, taylor

__version__ = "0.1.0"

__all__ = [
    "ConstantLifetime",
    "CriticalityError",
    "DiagonalMixture",
    "FermiLiquidLifetime",
    "Fock",
    "KernelScalars",
    "ModelParams",
    "RationalFunction",
    "Thermal",
    "Vacuum",
    "bare_vertex",
    "f_factor",
    "intermediate_vertex_closed_form",
    "oracle_check",
    "solve_fock_hierarchy",
    "taylor",
    "thermal_resummation_check",
    "vertex_for_state",
    "__version__",
]
