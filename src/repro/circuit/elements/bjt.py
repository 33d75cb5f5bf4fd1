"""Bipolar junction transistor (simplified Gummel-Poon model).

The model implements the features that matter for bias-point and
small-signal stability work on precision linear circuits:

* forward and reverse transport currents with emission coefficients,
* forward and reverse Early effect through the ``qb`` charge factor,
* junction (depletion) capacitances at both junctions,
* diffusion capacitances through the forward/reverse transit times,
* NPN and PNP polarities,
* temperature scaling of the saturation current and thermal voltage.

High-injection roll-off (IKF/IKR), leakage saturation currents (ISE/ISC)
and the parasitic terminal resistances (RB/RC/RE) are not modelled; the
reference circuits add explicit resistors where base resistance matters to
a loop.  Derivatives are obtained by complex-step differentiation so the
stamped conductances are exactly consistent with the current equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

import numpy as np

from repro.circuit.elements.nonlinear import (
    CONDUCTION_THERMAL_VOLTAGES,
    NonlinearDevice,
    cstep_derivative,
    cstep_gradient,
    limexp,
    pnjlim,
)
from repro.circuit.units import thermal_voltage
from repro.exceptions import ModelError

__all__ = ["BJTModel", "BJT"]


@dataclass
class BJTModel:
    """Parameter set for :class:`BJT` (subset of the SPICE Gummel-Poon card)."""

    name: str = "Q"
    polarity: str = "npn"   #: "npn" or "pnp"
    IS: float = 1e-16       #: transport saturation current [A]
    BF: float = 100.0       #: forward beta
    BR: float = 1.0         #: reverse beta
    NF: float = 1.0         #: forward emission coefficient
    NR: float = 1.0         #: reverse emission coefficient
    VAF: float = 100.0      #: forward Early voltage [V] (``inf`` disables)
    VAR: float = math.inf   #: reverse Early voltage [V]
    CJE: float = 0.0        #: B-E zero-bias depletion capacitance [F]
    VJE: float = 0.75       #: B-E junction potential [V]
    MJE: float = 0.33       #: B-E grading coefficient
    CJC: float = 0.0        #: B-C zero-bias depletion capacitance [F]
    VJC: float = 0.75       #: B-C junction potential [V]
    MJC: float = 0.33       #: B-C grading coefficient
    FC: float = 0.5         #: depletion-cap linearisation point
    TF: float = 0.0         #: forward transit time [s]
    TR: float = 0.0         #: reverse transit time [s]
    EG: float = 1.11        #: bandgap [eV]
    XTI: float = 3.0        #: IS temperature exponent
    XTB: float = 0.0        #: beta temperature exponent
    TNOM: float = 27.0      #: nominal temperature [C]

    def __post_init__(self):
        if self.polarity.lower() not in ("npn", "pnp"):
            raise ModelError(f"BJT model {self.name!r}: polarity must be 'npn' or 'pnp'")
        self.polarity = self.polarity.lower()
        if self.IS <= 0:
            raise ModelError(f"BJT model {self.name!r}: IS must be positive")
        if self.BF <= 0 or self.BR <= 0:
            raise ModelError(f"BJT model {self.name!r}: BF and BR must be positive")
        if self.VAF <= 0 or self.VAR <= 0:
            raise ModelError(f"BJT model {self.name!r}: Early voltages must be positive")

    @property
    def sign(self) -> float:
        return 1.0 if self.polarity == "npn" else -1.0

    def with_updates(self, **kwargs) -> "BJTModel":
        return replace(self, **kwargs)

    def saturation_current(self, temp_c: float) -> float:
        t = temp_c + 273.15
        tnom = self.TNOM + 273.15
        vt = thermal_voltage(temp_c)
        ratio = t / tnom
        return self.IS * ratio ** self.XTI * math.exp((self.EG / vt) * (ratio - 1.0))

    def beta_forward(self, temp_c: float) -> float:
        ratio = (temp_c + 273.15) / (self.TNOM + 273.15)
        return self.BF * ratio ** self.XTB

    def beta_reverse(self, temp_c: float) -> float:
        ratio = (temp_c + 273.15) / (self.TNOM + 273.15)
        return self.BR * ratio ** self.XTB


def _depletion_charge(v, cj0: float, vj: float, mj: float, fc: float):
    """Depletion charge of a graded junction, SPICE-style linearisation
    above ``fc * vj``.  Accepts real or complex ``v``."""
    if cj0 <= 0.0:
        return 0.0 * v
    vr = v.real if isinstance(v, complex) else v
    fcv = fc * vj
    if vr < fcv:
        return cj0 * vj / (1.0 - mj) * (1.0 - (1.0 - v / vj) ** (1.0 - mj))
    f1 = cj0 * vj / (1.0 - mj) * (1.0 - (1.0 - fc) ** (1.0 - mj))
    f2 = (1.0 - fc) ** (1.0 + mj)
    return f1 + cj0 / f2 * ((1.0 - fc * (1.0 + mj)) * (v - fcv)
                            + 0.5 * mj / vj * (v * v - fcv * fcv))


class BJT(NonlinearDevice):
    """Three-terminal bipolar transistor (collector, base, emitter)."""

    prefix = "Q"

    def __init__(self, name: str, collector: str, base: str, emitter: str,
                 model: BJTModel | None = None, area: float = 1.0):
        super().__init__(name, (collector, base, emitter))
        self.model = model or BJTModel()
        self.area = float(area)
        if self.area <= 0:
            raise ModelError(f"BJT {name!r}: area must be positive")

    collector = property(lambda self: self.nodes[0])
    base = property(lambda self: self.nodes[1])
    emitter = property(lambda self: self.nodes[2])

    def terminals(self) -> Dict[str, str]:
        return {"collector": self.collector, "base": self.base, "emitter": self.emitter}

    # ------------------------------------------------------------------
    # Current equations (NPN-referred junction voltages)
    # ------------------------------------------------------------------
    def _npn_currents(self, vbe, vbc, ctx):
        """Return (ic, ib) of the NPN-referred transistor, gmin excluded."""
        m = self.model
        isat = self.area * m.saturation_current(ctx.temperature)
        vt = thermal_voltage(ctx.temperature)
        bf = m.beta_forward(ctx.temperature)
        br = m.beta_reverse(ctx.temperature)

        i_f = isat * (limexp(vbe / (m.NF * vt)) - 1.0)
        i_r = isat * (limexp(vbc / (m.NR * vt)) - 1.0)

        # Base charge factor (Early effect only; no high-injection term).
        qb_inv = 1.0 - vbc / m.VAF - (vbe / m.VAR if math.isfinite(m.VAR) else 0.0)
        qb_real = qb_inv.real if isinstance(qb_inv, (complex, np.ndarray)) else qb_inv
        if isinstance(qb_real, np.ndarray):
            # Keep qb positive to avoid sign flips far from the solution.
            qb_inv = np.where(qb_real < 0.1, qb_inv - (qb_real - 0.1), qb_inv)
        elif qb_real < 0.1:
            # Keep qb positive to avoid sign flips far from the solution.
            qb_inv = qb_inv - (qb_real - 0.1)
        ict = (i_f - i_r) * qb_inv

        ibe = i_f / bf
        ibc = i_r / br
        ic = ict - ibc
        ib = ibe + ibc
        return ic, ib

    def _terminal_currents(self, vc, vb, ve, ctx):
        """Currents flowing out of (collector, base, emitter) nodes into the
        device, including the gmin junction conductances."""
        p = self.model.sign
        vbe = p * (vb - ve)
        vbc = p * (vb - vc)
        ic_npn, ib_npn = self._npn_currents(vbe, vbc, ctx)
        g = ctx.gmin
        i_gmin_bc = g * (vb - vc)
        i_gmin_be = g * (vb - ve)
        ic = p * ic_npn - i_gmin_bc
        ib = p * ib_npn + i_gmin_bc + i_gmin_be
        ie = -(ic + ib)
        return ic, ib, ie

    # ------------------------------------------------------------------
    # Charge equations (NPN-referred)
    # ------------------------------------------------------------------
    def _charge_be(self, vbe, ctx):
        m = self.model
        isat = self.area * m.saturation_current(ctx.temperature)
        vt = thermal_voltage(ctx.temperature)
        q = m.TF * isat * (limexp(vbe / (m.NF * vt)) - 1.0)
        q = q + _depletion_charge(vbe, self.area * m.CJE, m.VJE, m.MJE, m.FC)
        return q

    def _charge_bc(self, vbc, ctx):
        m = self.model
        isat = self.area * m.saturation_current(ctx.temperature)
        vt = thermal_voltage(ctx.temperature)
        q = m.TR * isat * (limexp(vbc / (m.NR * vt)) - 1.0)
        q = q + _depletion_charge(vbc, self.area * m.CJC, m.VJC, m.MJC, m.FC)
        return q

    # ------------------------------------------------------------------
    # Limiting
    # ------------------------------------------------------------------
    def _limit(self, x, ctx):
        """Junction-voltage limited node voltages (collector, base, emitter)."""
        m = self.model
        p = m.sign
        vt = thermal_voltage(ctx.temperature)
        isat = self.area * m.saturation_current(ctx.temperature)
        vcrit = vt * math.log(vt / (math.sqrt(2.0) * isat))

        vc = x.voltage(self.collector)
        vb = x.voltage(self.base)
        ve = x.voltage(self.emitter)
        vbe = p * (vb - ve)
        vbc = p * (vb - vc)

        state = self.device_state(ctx)
        vbe_old = state.get("vbe", 0.0)
        vbc_old = state.get("vbc", 0.0)
        vbe_lim = pnjlim(vbe, vbe_old, m.NF * vt, vcrit)
        vbc_lim = pnjlim(vbc, vbc_old, m.NR * vt, vcrit)
        state["vbe"] = vbe_lim
        state["vbc"] = vbc_lim
        return vbe_lim, vbc_lim

    # ------------------------------------------------------------------
    # Stamping
    # ------------------------------------------------------------------
    def stamp_nonlinear(self, stamper, x, ctx) -> None:
        p = self.model.sign
        vbe, vbc = self._limit(x, ctx)
        # Reconstruct consistent terminal voltages with the emitter as the
        # reference so that the companion linearisation point matches the
        # limited junction voltages.
        ve = 0.0
        vb = ve + p * vbe
        vc = vb - p * vbc

        def currents(vc_, vb_, ve_):
            return self._terminal_currents(vc_, vb_, ve_, ctx)

        ic, ib, ie = currents(vc, vb, ve)
        nodes = (self.collector, self.base, self.emitter)
        volts = (vc, vb, ve)
        jac = [cstep_gradient(lambda a, b, c, k=k: currents(a, b, c)[k], volts)
               for k in range(3)]
        self.stamp_companion(stamper, nodes, (ic, ib, ie), jac, volts)

    def stamp_dynamic_nonlinear(self, stamper, x, ctx) -> None:
        p = self.model.sign
        vc = x.voltage(self.collector)
        vb = x.voltage(self.base)
        ve = x.voltage(self.emitter)
        vbe = p * (vb - ve)
        vbc = p * (vb - vc)
        cbe = cstep_derivative(lambda v: self._charge_be(v, ctx), vbe)
        cbc = cstep_derivative(lambda v: self._charge_bc(v, ctx), vbc)
        stamper.capacitance_op(self.base, self.emitter, cbe)
        stamper.capacitance_op(self.base, self.collector, cbc)

    # ------------------------------------------------------------------
    def conducting(self, x, ctx) -> bool:
        """Whether the base-emitter junction is forward-biased."""
        vbe = self.model.sign * (x.voltage(self.base) - x.voltage(self.emitter))
        return vbe > (CONDUCTION_THERMAL_VOLTAGES * self.model.NF
                      * thermal_voltage(ctx.temperature))

    def operating_point_info(self, x, ctx) -> Dict[str, float]:
        """Operating-point summary: currents, gm, rpi, ro, capacitances."""
        p = self.model.sign
        vc = x.voltage(self.collector)
        vb = x.voltage(self.base)
        ve = x.voltage(self.emitter)
        vbe = p * (vb - ve)
        vbc = p * (vb - vc)
        ic, ib = self._npn_currents(vbe, vbc, ctx)
        gm = cstep_derivative(lambda v: self._npn_currents(v, vbc, ctx)[0], vbe)
        gpi = cstep_derivative(lambda v: self._npn_currents(v, vbc, ctx)[1], vbe)
        go = -cstep_derivative(lambda v: self._npn_currents(vbe, v, ctx)[0], vbc)
        cbe = cstep_derivative(lambda v: self._charge_be(v, ctx), vbe)
        cbc = cstep_derivative(lambda v: self._charge_bc(v, ctx), vbc)
        return {
            "vbe": vbe, "vbc": vbc, "vce": vbe - vbc,
            "ic": ic, "ib": ib, "gm": gm,
            "gpi": gpi, "rpi": (1.0 / gpi if gpi > 0 else math.inf),
            "go": go, "ro": (1.0 / go if go > 0 else math.inf),
            "cbe": cbe, "cbc": cbc,
        }
