"""Junction diode model.

The DC characteristic is the ideal diode equation with an emission
coefficient and a parallel ``gmin`` conductance supplied by the analysis
context (used for convergence aid)::

    Id = IS * (exp(Vd / (N * Vt)) - 1) + gmin * Vd

The small-signal capacitance combines the depletion capacitance (graded
junction, linearised above ``FC * VJ`` as in SPICE) and the diffusion
capacitance ``TT * gd``.

The current, conductance and capacitance are evaluated in closed form from
temperature-dependent parameters cached per model value and temperature.

Series resistance is not modelled (it would require an internal node); the
circuits in :mod:`repro.circuits` add explicit resistors where bulk
resistance matters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Dict, NamedTuple

from repro.circuit.elements.nonlinear import (
    CONDUCTION_THERMAL_VOLTAGES,
    NonlinearDevice,
    depletion_capacitance,
    limexp,
    pnjlim,
)
from repro.circuit.units import thermal_voltage
from repro.exceptions import ModelError

__all__ = ["DiodeModel", "Diode"]


@dataclass(frozen=True)
class DiodeModel:
    """Parameter set for :class:`Diode` (SPICE ``.model D`` card subset).

    Immutable: :meth:`with_updates` derives a changed copy, and the
    per-temperature parameter cache is keyed by the model's value.
    """

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


class _Parameters(NamedTuple):
    """Temperature-dependent diode parameters (area-scaled ``isat``)."""

    isat: float
    vt: float        #: N * thermal voltage
    vcrit: float


@functools.lru_cache(maxsize=256)
def _parameters(model: DiodeModel, area: float, temp_c: float) -> _Parameters:
    """The parameters of ``model`` scaled to ``area`` and ``temp_c``,
    computed once per (model value, area, temperature)."""
    isat = area * model.saturation_current(temp_c)
    vt = model.N * thermal_voltage(temp_c)
    return _Parameters(isat=isat, vt=vt,
                       vcrit=vt * math.log(vt / (math.sqrt(2.0) * isat)))


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
    def _parameters(self, ctx) -> _Parameters:
        return _parameters(self.model, self.area, ctx.temperature)

    def _evaluate(self, vd, ctx, prm: _Parameters):
        """Diode current and conductance ``(id, gd)`` at junction voltage
        ``vd``, gmin included.  Scalar or ``(A,)`` array ``vd``."""
        value, slope = limexp(vd / prm.vt)
        return (prm.isat * (value - 1.0) + ctx.gmin * vd,
                prm.isat * slope / prm.vt + ctx.gmin)

    def _capacitance(self, vd, prm: _Parameters):
        """Incremental capacitance: diffusion ``TT * dI/dV`` plus depletion."""
        m = self.model
        _, slope = limexp(vd / prm.vt)
        return m.TT * (prm.isat * slope / prm.vt) + depletion_capacitance(
            vd, m.CJO * self.area, m.VJ, m.M, m.FC)

    # ------------------------------------------------------------------
    def stamp_nonlinear(self, stamper, x, ctx) -> None:
        prm = self._parameters(ctx)
        state = self.device_state(ctx)
        vd = pnjlim(x.voltage(self.anode) - x.voltage(self.cathode),
                    state.get("vd", 0.0), prm.vt, prm.vcrit)
        state["vd"] = vd
        current, gd = self._evaluate(vd, ctx, prm)
        # Currents out of (anode, cathode) into the device, linearised at
        # the *limited* junction voltage: the effective terminal voltages
        # (vd, 0) are consistent with it.
        self.stamp_companion(stamper, (self.anode, self.cathode),
                             (current, -current), ((gd, -gd), (-gd, gd)),
                             (vd, 0.0))

    def stamp_dynamic_nonlinear(self, stamper, x, ctx) -> None:
        vd = x.voltage(self.anode) - x.voltage(self.cathode)
        cd = self._capacitance(vd, self._parameters(ctx))
        nodes = (self.anode, self.cathode)
        self.stamp_capacitance_matrix(stamper, nodes, ((cd, -cd), (-cd, cd)))

    def conducting(self, x, ctx) -> bool:
        """Whether the junction is forward-biased."""
        vd = x.voltage(self.anode) - x.voltage(self.cathode)
        return vd > CONDUCTION_THERMAL_VOLTAGES * self._parameters(ctx).vt

    def currents(self, x, ctx) -> Dict[str, float]:
        """Diode current (gmin included)."""
        vd = x.voltage(self.anode) - x.voltage(self.cathode)
        return {"id": self._evaluate(vd, ctx, self._parameters(ctx))[0]}

    def operating_point_info(self, x, ctx) -> Dict[str, float]:
        """Small dictionary of OP quantities (used by reports/tests)."""
        prm = self._parameters(ctx)
        vd = x.voltage(self.anode) - x.voltage(self.cathode)
        current, gd = self._evaluate(vd, ctx, prm)
        return {"vd": vd, "id": current, "gd": gd,
                "cd": self._capacitance(vd, prm)}
