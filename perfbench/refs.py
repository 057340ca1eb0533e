"""Independent reference formulas the benchmark checks program outputs against.

Nothing here imports ``cavitypairing``: every formula is written out again
from the model's definitions, so a check never compares the program with
itself.

* Kernel normalisation: a_bcs = f_a * gtilde * delta_c / T and
  c2 = f_c * (gtilde * delta_c / tau_inv(T))**2, gtilde = g0**2/(4 pi delta_c)**2.
* Kernel masses: M_vac = a_bcs + 2 c2, M_th = a_bcs + 2 c2 * stat**2 with
  stat = coth(delta_c / 2T) (equilibrium) or coth(beta delta_c / 2) (fixed beta).
* Constant lifetime: M_vac = A/T + B exactly, so T_c = f_a gtilde delta_c / (1 - 2 c2).
* Intermediate vertex: Gamma(u) = gamma0 (1-u)^2 / ((1-a)(1-u)^2 - 2 c2 (1+u)^2).
"""

from __future__ import annotations

import math
from fractions import Fraction

#: (f_a, f_c) per kernel convention, as defined for the published variants.
CONVENTION_FACTORS = {
    "canonical": (1, 1),
    "eq-bs-u-freq": (2, 1),
    "subsec-tc": (2, 16),
}

# Tolerances of the physics checks, as pinned in tests/test_acceptance.py.
GAMMA_TOL_NUMBER = 0.05
GAMMA_TOL_GAUSSIAN = 0.02
NU_TOL = 0.02
XI_RATIO_TOL = 0.02
# A T_c from a 1e-12 relative bisection leaves |M - 1| far below this.
ROOT_RESIDUAL_TOL = 1e-8
TC_REL_TOL = 1e-9
MASS_REL_TOL = 1e-12


def gtilde(g0: float, delta_c: float) -> float:
    return g0 * g0 / (4.0 * math.pi * delta_c) ** 2


def tau_inv(lifetime: str, temperature: float, e_f: float) -> float:
    """Quasiparticle decay rate for a config's ``model.lifetime`` string."""
    if lifetime == "fermi-liquid":
        return math.pi * temperature**2 / (8.0 * e_f) * math.log(e_f / temperature)
    return float(lifetime.split(":", 1)[1])


class Model:
    """One parameter point, in the config's own terms."""

    def __init__(self, g0, delta_c, e_f, lifetime, convention):
        self.delta_c = delta_c
        self.e_f = e_f
        self.lifetime = lifetime
        self.fa, self.fc = CONVENTION_FACTORS[convention]
        self.g = gtilde(g0, delta_c)

    def a_bcs(self, T: float) -> float:
        return self.fa * self.g * self.delta_c / T

    def c2(self, T: float) -> float:
        return self.fc * (self.g * self.delta_c / tau_inv(self.lifetime, T, self.e_f)) ** 2

    def m_vac(self, T: float) -> float:
        return self.a_bcs(T) + 2.0 * self.c2(T)

    def m_th(self, T: float, beta: float | None = None) -> float:
        x = self.delta_c / (2.0 * T) if beta is None else beta * self.delta_c / 2.0
        return self.a_bcs(T) + 2.0 * self.c2(T) / math.tanh(x) ** 2

    def tc_closed_form(self) -> float | None:
        """Exact vacuum T_c for a constant lifetime; None for Fermi-liquid."""
        if self.lifetime == "fermi-liquid":
            return None
        c2 = self.c2(1.0)  # temperature-independent here
        return self.fa * self.g * self.delta_c / (1.0 - 2.0 * c2)

    def vacuum_root(self) -> float:
        """Vacuum T_c: closed form, or bisection of M_vac = 1 (Fermi-liquid)."""
        closed = self.tc_closed_form()
        if closed is not None:
            return closed
        return self._bisect_down(self.m_vac)

    def _grid(self) -> list[float]:
        """Log grid from 1e-8 E_F to just below E_F."""
        return [self.e_f * 10.0 ** (-8 + 8 * i / 400) for i in range(400)
                if 10.0 ** (-8 + 8 * i / 400) < 0.99]

    def thermal_root_exists(self, beta: float | None = None) -> bool:
        """M_th dips clearly below 1 somewhere below E_F, so a thermal T_c exists."""
        return any(self.m_th(T, beta) < 0.95 for T in self._grid())

    def _bisect_down(self, mass) -> float:
        # Largest downward crossing of mass(T) = 1 on the grid, bisected.
        ts = self._grid()
        lo = hi = None
        for a, b in zip(ts, ts[1:]):
            if mass(a) > 1.0 >= mass(b):
                lo, hi = a, b
        if lo is None:
            raise ValueError("reference kernel mass has no downward crossing")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mass(mid) > 1.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def intermediate_vertex(gamma0: Fraction, a: Fraction, c2: Fraction, u: Fraction) -> Fraction:
    """Exact closed-form Gamma(u) for an exact kernel."""
    return gamma0 * (1 - u) ** 2 / ((1 - a) * (1 - u) ** 2 - 2 * c2 * (1 + u) ** 2)


def rel_dev(x: float, ref: float) -> float:
    return abs(x / ref - 1.0)
