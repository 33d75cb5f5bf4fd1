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
a loop.  The currents and their partial derivatives with respect to the
junction voltages are evaluated together in closed form (SPICE's BJT load)
from temperature-dependent parameters cached per model value and
temperature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Dict, NamedTuple

import numpy as np

from repro.circuit.elements.nonlinear import (
    CONDUCTION_THERMAL_VOLTAGES,
    NonlinearDevice,
    depletion_capacitance,
    limexp,
    pnjlim,
)
from repro.circuit.units import thermal_voltage
from repro.exceptions import ModelError

__all__ = ["BJTModel", "BJT"]


@dataclass(frozen=True)
class BJTModel:
    """Parameter set for :class:`BJT` (subset of the SPICE Gummel-Poon card).

    Immutable: :meth:`with_updates` derives a changed copy, and the
    per-temperature parameter cache is keyed by the model's value.
    """

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
        object.__setattr__(self, "polarity", self.polarity.lower())
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


class _Parameters(NamedTuple):
    """Temperature-dependent BJT parameters (area-scaled ``isat``)."""

    isat: float
    vt: float
    nfvt: float      #: NF * vt
    nrvt: float      #: NR * vt
    bf: float
    br: float
    vcrit: float
    inv_vaf: float   #: 1 / VAF (0 when VAF is infinite)
    inv_var: float   #: 1 / VAR (0 when VAR is infinite)


@functools.lru_cache(maxsize=256)
def _parameters(model: BJTModel, area: float, temp_c: float) -> _Parameters:
    """The parameters of ``model`` scaled to ``area`` and ``temp_c``,
    computed once per (model value, area, temperature)."""
    isat = area * model.saturation_current(temp_c)
    vt = thermal_voltage(temp_c)
    return _Parameters(
        isat=isat, vt=vt, nfvt=model.NF * vt, nrvt=model.NR * vt,
        bf=model.beta_forward(temp_c), br=model.beta_reverse(temp_c),
        vcrit=vt * math.log(vt / (math.sqrt(2.0) * isat)),
        inv_vaf=1.0 / model.VAF, inv_var=1.0 / model.VAR)


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
    # Closed-form evaluation (NPN-referred junction voltages)
    # ------------------------------------------------------------------
    def _parameters(self, ctx) -> _Parameters:
        return _parameters(self.model, self.area, ctx.temperature)

    def _evaluate(self, vbe, vbc, prm: _Parameters):
        """NPN-referred ``(ic, ib, dic/dvbe, dic/dvbc, dib/dvbe,
        dib/dvbc)``, gmin excluded.  Scalars or ``(A,)`` arrays."""
        ef, slope_f = limexp(vbe / prm.nfvt)
        er, slope_r = limexp(vbc / prm.nrvt)
        i_f = prm.isat * (ef - 1.0)
        i_r = prm.isat * (er - 1.0)
        g_f = prm.isat * slope_f / prm.nfvt
        g_r = prm.isat * slope_r / prm.nrvt

        # Base charge factor (Early effect only; no high-injection term),
        # floored at 0.1 to avoid sign flips far from the solution.  The
        # floor keeps the Early slopes -1/VAF and -1/VAR.
        qb_inv = 1.0 - vbc * prm.inv_vaf - vbe * prm.inv_var
        if isinstance(qb_inv, np.ndarray):
            qb_inv = np.maximum(qb_inv, 0.1)
        elif qb_inv < 0.1:
            qb_inv = 0.1
        i_t = i_f - i_r
        ic = i_t * qb_inv - i_r / prm.br
        ib = i_f / prm.bf + i_r / prm.br
        return (ic, ib,
                g_f * qb_inv - i_t * prm.inv_var,
                -g_r * qb_inv - i_t * prm.inv_vaf - g_r / prm.br,
                g_f / prm.bf,
                g_r / prm.br)

    def _capacitances(self, vbe, vbc, prm: _Parameters):
        """Incremental (cbe, cbc): diffusion plus depletion, NPN-referred."""
        m = self.model
        _, slope_f = limexp(vbe / prm.nfvt)
        _, slope_r = limexp(vbc / prm.nrvt)
        cbe = m.TF * (prm.isat * slope_f / prm.nfvt) + depletion_capacitance(
            vbe, self.area * m.CJE, m.VJE, m.MJE, m.FC)
        cbc = m.TR * (prm.isat * slope_r / prm.nrvt) + depletion_capacitance(
            vbc, self.area * m.CJC, m.VJC, m.MJC, m.FC)
        return cbe, cbc

    def _junction_voltages(self, x):
        p = self.model.sign
        vb = x.voltage(self.base)
        return p * (vb - x.voltage(self.emitter)), p * (vb - x.voltage(self.collector))

    # ------------------------------------------------------------------
    # Limiting
    # ------------------------------------------------------------------
    def _limit(self, x, ctx, prm: _Parameters):
        """Junction-voltage limited (vbe, vbc)."""
        vbe, vbc = self._junction_voltages(x)
        state = self.device_state(ctx)
        vbe_lim = pnjlim(vbe, state.get("vbe", 0.0), prm.nfvt, prm.vcrit)
        vbc_lim = pnjlim(vbc, state.get("vbc", 0.0), prm.nrvt, prm.vcrit)
        state["vbe"] = vbe_lim
        state["vbc"] = vbc_lim
        return vbe_lim, vbc_lim

    # ------------------------------------------------------------------
    # Stamping
    # ------------------------------------------------------------------
    def stamp_nonlinear(self, stamper, x, ctx) -> None:
        prm = self._parameters(ctx)
        vbe, vbc = self._limit(x, ctx, prm)
        ic, ib, dic_be, dic_bc, dib_be, dib_bc = self._evaluate(vbe, vbc, prm)
        p = self.model.sign
        g = ctx.gmin
        # Terminal voltages with the emitter as the reference, consistent
        # with the limited junction voltages: the companion linearisation
        # point.  Currents flow out of (collector, base, emitter) into the
        # device and include the gmin junction conductances.
        vb = p * vbe
        vc = vb - p * vbc
        i_gmin_bc = g * (vb - vc)
        i_c = p * ic - i_gmin_bc
        i_b = p * ib + i_gmin_bc + g * vb
        jc = (g - dic_bc, dic_be + dic_bc - g, -dic_be)
        jb = (-dib_bc - g, dib_be + dib_bc + 2.0 * g, -dib_be - g)
        je = (-(jc[0] + jb[0]), -(jc[1] + jb[1]), -(jc[2] + jb[2]))
        self.stamp_companion(stamper, (self.collector, self.base, self.emitter),
                             (i_c, i_b, -(i_c + i_b)), (jc, jb, je),
                             (vc, vb, 0.0))

    def stamp_dynamic_nonlinear(self, stamper, x, ctx) -> None:
        vbe, vbc = self._junction_voltages(x)
        cbe, cbc = self._capacitances(vbe, vbc, self._parameters(ctx))
        stamper.capacitance_op(self.base, self.emitter, cbe)
        stamper.capacitance_op(self.base, self.collector, cbc)

    # ------------------------------------------------------------------
    def conducting(self, x, ctx) -> bool:
        """Whether the base-emitter junction is forward-biased."""
        vbe, _ = self._junction_voltages(x)
        return vbe > (CONDUCTION_THERMAL_VOLTAGES * self.model.NF
                      * self._parameters(ctx).vt)

    def currents(self, x, ctx) -> Dict[str, float]:
        """NPN-referred collector and base currents (gmin excluded)."""
        vbe, vbc = self._junction_voltages(x)
        ic, ib = self._evaluate(vbe, vbc, self._parameters(ctx))[:2]
        return {"ic": ic, "ib": ib}

    def operating_point_info(self, x, ctx) -> Dict[str, float]:
        """Operating-point summary: currents, gm, rpi, ro, capacitances."""
        prm = self._parameters(ctx)
        vbe, vbc = self._junction_voltages(x)
        ic, ib, gm, dic_bc, gpi, _ = self._evaluate(vbe, vbc, prm)
        go = -dic_bc
        cbe, cbc = self._capacitances(vbe, vbc, prm)
        return {
            "vbe": vbe, "vbc": vbc, "vce": vbe - vbc,
            "ic": ic, "ib": ib, "gm": gm,
            "gpi": gpi, "rpi": (1.0 / gpi if gpi > 0 else math.inf),
            "go": go, "ro": (1.0 / go if go > 0 else math.inf),
            "cbe": cbe, "cbc": cbc,
        }
