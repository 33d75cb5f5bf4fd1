"""Junction diode model.

The DC characteristic is the ideal diode equation with an emission
coefficient and a parallel ``gmin`` conductance supplied by the analysis
context (used for convergence aid)::

    Id = IS * (exp(Vd / (N * Vt)) - 1) + gmin * Vd

The small-signal capacitance combines the depletion capacitance (graded
junction, linearised above ``FC * VJ`` as in SPICE) and the diffusion
capacitance ``TT * gd``.

Series resistance is not modelled (it would require an internal node); the
circuits in :mod:`repro.circuits` add explicit resistors where bulk
resistance matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict

from repro.circuit.elements.nonlinear import (
    CONDUCTION_THERMAL_VOLTAGES,
    NonlinearDevice,
    cstep_derivative,
    limexp,
    pnjlim,
)
from repro.circuit.units import thermal_voltage
from repro.exceptions import ModelError

__all__ = ["DiodeModel", "Diode"]


@dataclass
class DiodeModel:
    """Parameter set for :class:`Diode` (SPICE ``.model D`` card subset)."""

    name: str = "D"
    IS: float = 1e-14      #: saturation current [A]
    N: float = 1.0         #: emission coefficient
    CJO: float = 0.0       #: zero-bias depletion capacitance [F]
    VJ: float = 1.0        #: junction potential [V]
    M: float = 0.5         #: grading coefficient
    FC: float = 0.5        #: forward-bias depletion-cap linearisation point
    TT: float = 0.0        #: transit time [s]
    EG: float = 1.11       #: bandgap energy [eV] (temperature scaling)
    XTI: float = 3.0       #: IS temperature exponent
    TNOM: float = 27.0     #: parameter measurement temperature [C]

    def __post_init__(self):
        if self.IS <= 0:
            raise ModelError(f"diode model {self.name!r}: IS must be positive")
        if self.N <= 0:
            raise ModelError(f"diode model {self.name!r}: N must be positive")
        if not 0 < self.FC < 1:
            raise ModelError(f"diode model {self.name!r}: FC must be in (0, 1)")

    def with_updates(self, **kwargs) -> "DiodeModel":
        """Return a copy of the model with the given parameters replaced."""
        return replace(self, **kwargs)

    def saturation_current(self, temp_c: float) -> float:
        """IS scaled to the simulation temperature (SPICE formula)."""
        t = temp_c + 273.15
        tnom = self.TNOM + 273.15
        vt = thermal_voltage(temp_c)
        ratio = t / tnom
        return self.IS * ratio ** (self.XTI / self.N) * math.exp(
            (self.EG / (self.N * vt)) * (ratio - 1.0))


class Diode(NonlinearDevice):
    """Two-terminal junction diode (anode, cathode)."""

    prefix = "D"

    def __init__(self, name: str, anode: str, cathode: str,
                 model: DiodeModel | None = None, area: float = 1.0):
        super().__init__(name, (anode, cathode))
        self.model = model or DiodeModel()
        self.area = float(area)
        if self.area <= 0:
            raise ModelError(f"diode {name!r}: area must be positive")

    anode = property(lambda self: self.nodes[0])
    cathode = property(lambda self: self.nodes[1])

    def terminals(self) -> Dict[str, str]:
        return {"anode": self.anode, "cathode": self.cathode}

    # ------------------------------------------------------------------
    def _isat(self, ctx) -> float:
        return self.area * self.model.saturation_current(ctx.temperature)

    def _vt(self, ctx) -> float:
        return self.model.N * thermal_voltage(ctx.temperature)

    def _vcrit(self, ctx) -> float:
        vt = self._vt(ctx)
        return vt * math.log(vt / (math.sqrt(2.0) * self._isat(ctx)))

    def _limit_voltage(self, vd: float, ctx) -> float:
        state = self.device_state(ctx)
        vold = state.get("vd", 0.0)
        vnew = pnjlim(vd, vold, self._vt(ctx), self._vcrit(ctx))
        state["vd"] = vnew
        return vnew

    def _current(self, vd, ctx):
        """Diode current for (possibly complex) junction voltage."""
        isat = self._isat(ctx)
        vt = self._vt(ctx)
        return isat * (limexp(vd / vt) - 1.0) + ctx.gmin * vd

    def _charge(self, vd, ctx):
        """Stored charge (depletion + diffusion) for complex-step use."""
        m = self.model
        isat = self._isat(ctx)
        vt = self._vt(ctx)
        cj0 = m.CJO * self.area
        # Diffusion charge
        q = m.TT * isat * (limexp(vd / vt) - 1.0)
        if cj0 > 0.0:
            vdr = vd.real if isinstance(vd, complex) else vd
            fcv = m.FC * m.VJ
            if vdr < fcv:
                q = q + cj0 * m.VJ / (1.0 - m.M) * (
                    1.0 - (1.0 - vd / m.VJ) ** (1.0 - m.M))
            else:
                # Linearised depletion capacitance above FC*VJ (SPICE style)
                f1 = cj0 * m.VJ / (1.0 - m.M) * (1.0 - (1.0 - m.FC) ** (1.0 - m.M))
                f2 = (1.0 - m.FC) ** (1.0 + m.M)
                q = q + f1 + cj0 / f2 * (
                    (1.0 - m.FC * (1.0 + m.M)) * (vd - fcv)
                    + 0.5 * m.M / m.VJ * (vd * vd - fcv * fcv))
        return q

    # ------------------------------------------------------------------
    def stamp_nonlinear(self, stamper, x, ctx) -> None:
        va = x.voltage(self.anode)
        vc = x.voltage(self.cathode)
        vd = self._limit_voltage(va - vc, ctx)
        current = self._current(vd, ctx)
        gd = cstep_derivative(lambda v: self._current(v, ctx), vd)
        # Currents out of (anode, cathode) into the device, Jacobian wrt
        # the *limited* junction voltage mapped to node voltages.
        nodes = (self.anode, self.cathode)
        currents = (current, -current)
        jac = ((gd, -gd), (-gd, gd))
        # Companion uses the limited junction voltage as the linearisation
        # point: reconstruct effective terminal voltages consistent with it.
        self.stamp_companion(stamper, nodes, currents, jac, (vd, 0.0))

    def stamp_dynamic_nonlinear(self, stamper, x, ctx) -> None:
        vd = x.voltage(self.anode) - x.voltage(self.cathode)
        cd = cstep_derivative(lambda v: self._charge(v, ctx), vd)
        nodes = (self.anode, self.cathode)
        self.stamp_capacitance_matrix(stamper, nodes, ((cd, -cd), (-cd, cd)))

    def conducting(self, x, ctx) -> bool:
        """Whether the junction is forward-biased."""
        vd = x.voltage(self.anode) - x.voltage(self.cathode)
        return vd > CONDUCTION_THERMAL_VOLTAGES * self._vt(ctx)

    def operating_point_info(self, x, ctx) -> Dict[str, float]:
        """Small dictionary of OP quantities (used by reports/tests)."""
        vd = x.voltage(self.anode) - x.voltage(self.cathode)
        current = self._current(vd, ctx)
        gd = cstep_derivative(lambda v: self._current(v, ctx), vd)
        cd = cstep_derivative(lambda v: self._charge(v, ctx), vd)
        return {"vd": vd, "id": current, "gd": gd, "cd": cd}
