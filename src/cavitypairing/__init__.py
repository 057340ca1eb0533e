"""Pairing of cavity-coupled electrons, resolved by the photon's quantum state.

The package solves the on-shell ladder equations for the electron pairing
vertex when the mediating cavity photon starts in the vacuum, a pure number
state, an equilibrium thermal state, or a diagonal mixture; verifies the
sector recursion against an exact rational-series oracle; and extracts the
critical temperature, the susceptibility exponent, and the pair correlation
length with its exponent.  See the README for the command-line interface.
"""

__version__ = "0.1.0"
