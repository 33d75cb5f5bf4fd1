"""MOSFET model (SPICE level-1 / Shichman-Hodges).

The model covers what two-stage CMOS amplifier and mirror work needs:

* square-law drain current with channel-length modulation,
* body effect on the threshold voltage,
* automatic source/drain swap for negative ``vds`` (symmetric device),
* NMOS and PMOS polarities,
* Meyer gate capacitances (piecewise, region-dependent) plus constant
  overlap and junction capacitances,
* ``gmin`` junction conductances from drain/source to bulk.

Sub-threshold conduction is not modelled; the reference circuits bias
their devices in strong inversion.  Drain current derivatives are obtained
with complex-step differentiation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Dict

import numpy as np

from repro.circuit.elements.nonlinear import (
    NonlinearDevice,
    cstep_gradient,
    fetlim,
)
from repro.exceptions import ModelError

__all__ = ["MOSFETModel", "MOSFET"]


def _csqrt(x):
    """Square root valid for real, complex or ndarray arguments
    (complex-step and batch safe)."""
    if isinstance(x, np.ndarray):
        return np.sqrt(x)
    if isinstance(x, complex):
        return cmath.sqrt(x)
    return math.sqrt(x)


@dataclass
class MOSFETModel:
    """Parameter set for :class:`MOSFET` (SPICE level-1 card subset)."""

    name: str = "M"
    polarity: str = "nmos"   #: "nmos" or "pmos"
    VTO: float = 0.7         #: zero-bias threshold voltage [V] (positive for both polarities)
    KP: float = 100e-6       #: transconductance parameter [A/V^2]
    LAMBDA: float = 0.02     #: channel-length modulation [1/V]
    GAMMA: float = 0.0       #: body-effect coefficient [sqrt(V)]
    PHI: float = 0.6         #: surface potential [V]
    COX: float = 3.45e-3     #: gate-oxide capacitance per area [F/m^2]
    CGSO: float = 0.0        #: gate-source overlap capacitance per width [F/m]
    CGDO: float = 0.0        #: gate-drain overlap capacitance per width [F/m]
    CGBO: float = 0.0        #: gate-bulk overlap capacitance per length [F/m]
    CBD: float = 0.0         #: drain-bulk junction capacitance [F]
    CBS: float = 0.0         #: source-bulk junction capacitance [F]
    KPTC: float = 0.0        #: fractional KP change per Kelvin (corner/temperature hook)
    VTOTC: float = 0.0       #: VTO shift per Kelvin [V/K]
    TNOM: float = 27.0       #: nominal temperature [C]

    def __post_init__(self):
        if self.polarity.lower() not in ("nmos", "pmos"):
            raise ModelError(f"MOSFET model {self.name!r}: polarity must be 'nmos' or 'pmos'")
        self.polarity = self.polarity.lower()
        if self.KP <= 0:
            raise ModelError(f"MOSFET model {self.name!r}: KP must be positive")
        if self.PHI <= 0:
            raise ModelError(f"MOSFET model {self.name!r}: PHI must be positive")

    @property
    def sign(self) -> float:
        return 1.0 if self.polarity == "nmos" else -1.0

    def with_updates(self, **kwargs) -> "MOSFETModel":
        return replace(self, **kwargs)

    def kp_at(self, temp_c: float) -> float:
        return self.KP * (1.0 + self.KPTC * (temp_c - self.TNOM))

    def vto_at(self, temp_c: float) -> float:
        return self.VTO + self.VTOTC * (temp_c - self.TNOM)


class MOSFET(NonlinearDevice):
    """Four-terminal MOSFET (drain, gate, source, bulk)."""

    prefix = "M"

    def __init__(self, name: str, drain: str, gate: str, source: str, bulk: str,
                 model: MOSFETModel | None = None,
                 width: float = 10e-6, length: float = 1e-6, m: float = 1.0):
        super().__init__(name, (drain, gate, source, bulk))
        self.model = model or MOSFETModel()
        self.width = float(width)
        self.length = float(length)
        self.multiplier = float(m)
        if self.width <= 0 or self.length <= 0 or self.multiplier <= 0:
            raise ModelError(f"MOSFET {name!r}: W, L and m must be positive")

    drain = property(lambda self: self.nodes[0])
    gate = property(lambda self: self.nodes[1])
    source = property(lambda self: self.nodes[2])
    bulk = property(lambda self: self.nodes[3])

    def terminals(self) -> Dict[str, str]:
        return {"drain": self.drain, "gate": self.gate,
                "source": self.source, "bulk": self.bulk}

    # ------------------------------------------------------------------
    # Current equations
    # ------------------------------------------------------------------
    def _beta(self, ctx) -> float:
        return (self.model.kp_at(ctx.temperature) * self.multiplier
                * self.width / self.length)

    def _threshold(self, vbs, ctx):
        """Threshold voltage including the body effect (complex-step safe)."""
        m = self.model
        vto = m.vto_at(ctx.temperature)
        if m.GAMMA == 0.0:
            return vto
        phi = m.PHI
        if isinstance(vbs, np.ndarray):
            vbs_r = vbs.real
            sqrt_phi = math.sqrt(phi)
            reverse = (vbs_r <= 0.0)
            # Guard the masked-out lane: sqrt of a negative argument in
            # the forward-bias lanes would poison the whole batch.
            reverse_term = _csqrt(np.where(reverse, phi - vbs, phi))
            forward_term = sqrt_phi - 0.5 * vbs / sqrt_phi
            body = np.where(reverse, reverse_term, forward_term) - sqrt_phi
            return vto + m.GAMMA * body
        vbs_r = vbs.real if isinstance(vbs, complex) else vbs
        if vbs_r <= 0.0:
            return vto + m.GAMMA * (_csqrt(phi - vbs) - math.sqrt(phi))
        # Forward-biased bulk: linearise the sqrt to keep things smooth.
        return vto + m.GAMMA * (math.sqrt(phi) - 0.5 * vbs / math.sqrt(phi)
                                - math.sqrt(phi))

    def _ids(self, vgs, vds, vbs, ctx):
        """NMOS-referred drain-source current (vds >= 0 assumed by caller)."""
        m = self.model
        beta = self._beta(ctx)
        vth = self._threshold(vbs, ctx)
        vov = vgs - vth
        vov_r = vov.real if isinstance(vov, (complex, np.ndarray)) else vov
        vds_r = vds.real if isinstance(vds, (complex, np.ndarray)) else vds
        if isinstance(vov_r, np.ndarray) or isinstance(vds_r, np.ndarray):
            clm = 1.0 + m.LAMBDA * vds
            triode = beta * clm * vds * (vov - 0.5 * vds)
            saturation = 0.5 * beta * clm * vov * vov
            ids = np.where(np.asarray(vds_r) < vov_r, triode, saturation)
            return np.where(np.asarray(vov_r) <= 0.0, 0.0 * vgs, ids)
        if vov_r <= 0.0:
            return 0.0 * vgs
        clm = 1.0 + m.LAMBDA * vds
        if vds_r < vov_r:
            return beta * clm * vds * (vov - 0.5 * vds)
        return 0.5 * beta * clm * vov * vov

    def _terminal_currents(self, vd, vg, vs, vb, ctx):
        """Currents flowing out of (drain, gate, source, bulk) nodes into the
        device, including gmin junction conductances."""
        p = self.model.sign
        vgs = p * (vg - vs)
        vds = p * (vd - vs)
        vbs = p * (vb - vs)
        vds_r = vds.real if isinstance(vds, (complex, np.ndarray)) else vds
        if isinstance(vds_r, np.ndarray):
            forward = self._ids(vgs, vds, vbs, ctx)
            reverse = -self._ids(vgs - vds, -vds, vbs - vds, ctx)
            ids = np.where(vds_r >= 0.0, forward, reverse)
        elif vds_r >= 0.0:
            ids = self._ids(vgs, vds, vbs, ctx)
        else:
            # Source and drain swap roles for negative vds.
            vgd = vgs - vds
            vbd = vbs - vds
            ids = -self._ids(vgd, -vds, vbd, ctx)
        g = ctx.gmin
        i_db = g * (vd - vb)
        i_sb = g * (vs - vb)
        i_drain = p * ids + i_db
        i_gate = 0.0 * vgs
        i_source = -p * ids + i_sb
        i_bulk = -(i_db + i_sb)
        return i_drain, i_gate, i_source, i_bulk

    # ------------------------------------------------------------------
    # Limiting
    # ------------------------------------------------------------------
    def _limited_voltages(self, x, ctx):
        p = self.model.sign
        vd = x.voltage(self.drain)
        vg = x.voltage(self.gate)
        vs = x.voltage(self.source)
        vb = x.voltage(self.bulk)
        vgs = p * (vg - vs)
        vds = p * (vd - vs)
        vbs = p * (vb - vs)

        state = self.device_state(ctx)
        vto = self.model.vto_at(ctx.temperature)
        vgs_old = state.get("vgs", vto + 0.5)
        vds_old = state.get("vds", 0.0)
        vgs_lim = fetlim(vgs, vgs_old, vto)
        # Limit vds step to 2 V per iteration to avoid wild excursions.
        dvds = vds - vds_old
        if isinstance(dvds, np.ndarray):
            vds_lim = np.where(np.abs(dvds) > 2.0,
                               vds_old + np.copysign(2.0, dvds), vds)
        elif abs(dvds) > 2.0:
            vds_lim = vds_old + math.copysign(2.0, dvds)
        else:
            vds_lim = vds
        state["vgs"] = vgs_lim
        state["vds"] = vds_lim
        state["vbs"] = vbs
        return vgs_lim, vds_lim, vbs

    # ------------------------------------------------------------------
    # Stamping
    # ------------------------------------------------------------------
    def stamp_nonlinear(self, stamper, x, ctx) -> None:
        p = self.model.sign
        vgs, vds, vbs = self._limited_voltages(x, ctx)
        # Reconstruct terminal voltages with the source as reference.
        vs = 0.0
        vg = vs + p * vgs
        vd = vs + p * vds
        vb = vs + p * vbs

        def currents(vd_, vg_, vs_, vb_):
            return self._terminal_currents(vd_, vg_, vs_, vb_, ctx)

        volts = (vd, vg, vs, vb)
        vals = currents(*volts)
        nodes = (self.drain, self.gate, self.source, self.bulk)
        jac = [cstep_gradient(lambda a, b, c, d, k=k: currents(a, b, c, d)[k], volts)
               for k in range(4)]
        self.stamp_companion(stamper, nodes, vals, jac, volts)

    def _meyer_capacitances(self, vgs: float, vds: float, vbs: float, ctx):
        """Gate capacitances (cgs, cgd, cgb) from the Meyer model plus
        overlaps, evaluated at the operating point (NMOS-referred)."""
        m = self.model
        w, length = self.width * self.multiplier, self.length
        cox = m.COX * w * length
        c_ovl_gs = m.CGSO * w
        c_ovl_gd = m.CGDO * w
        c_ovl_gb = m.CGBO * length
        vth = self._threshold(vbs, ctx)
        vov = vgs - vth
        if vov <= 0.0:
            # Cutoff: channel charge sits on the bulk side.
            return c_ovl_gs, c_ovl_gd, cox + c_ovl_gb
        if vds >= vov:
            # Saturation.
            return (2.0 / 3.0) * cox + c_ovl_gs, c_ovl_gd, c_ovl_gb
        # Triode: Meyer partition of the channel charge between source and
        # drain, which tends to Cox/2 each as vds -> 0.
        denom = 2.0 * vov - vds
        cgs = (2.0 / 3.0) * cox * (1.0 - ((vov - vds) / denom) ** 2) + c_ovl_gs
        cgd = (2.0 / 3.0) * cox * (1.0 - (vov / denom) ** 2) + c_ovl_gd
        return cgs, cgd, c_ovl_gb

    def stamp_dynamic_nonlinear(self, stamper, x, ctx) -> None:
        p = self.model.sign
        vd = x.voltage(self.drain)
        vg = x.voltage(self.gate)
        vs = x.voltage(self.source)
        vb = x.voltage(self.bulk)
        vgs = p * (vg - vs)
        vds = p * (vd - vs)
        vbs = p * (vb - vs)
        if vds >= 0.0:
            cgs, cgd, cgb = self._meyer_capacitances(vgs, vds, vbs, ctx)
            d_node, s_node = self.drain, self.source
        else:
            cgd, cgs, cgb = self._meyer_capacitances(vgs - vds, -vds, vbs - vds, ctx)
            d_node, s_node = self.source, self.drain
        m = self.model
        stamper.capacitance_op(self.gate, s_node, cgs)
        stamper.capacitance_op(self.gate, d_node, cgd)
        stamper.capacitance_op(self.gate, self.bulk, cgb)
        if m.CBD > 0:
            stamper.capacitance_op(self.drain, self.bulk, m.CBD * self.multiplier)
        if m.CBS > 0:
            stamper.capacitance_op(self.source, self.bulk, m.CBS * self.multiplier)

    # ------------------------------------------------------------------
    def _oriented_voltages(self, x):
        """NMOS-referred ``(vgs, vds, vbs, swapped)`` at solution view
        ``x``, with source and drain swapped when ``vds < 0``."""
        p = self.model.sign
        vd = x.voltage(self.drain)
        vg = x.voltage(self.gate)
        vs = x.voltage(self.source)
        vb = x.voltage(self.bulk)
        vgs = p * (vg - vs)
        vds = p * (vd - vs)
        vbs = p * (vb - vs)
        swapped = vds < 0
        if swapped:
            vgs, vds, vbs = vgs - vds, -vds, vbs - vds
        return vgs, vds, vbs, swapped

    def conducting(self, x, ctx) -> bool:
        """Whether the channel is on (not in cutoff)."""
        vgs, _, vbs, _ = self._oriented_voltages(x)
        return vgs - self._threshold(vbs, ctx) > 0

    def operating_point_info(self, x, ctx) -> Dict[str, float]:
        """Operating-point summary: region, id, gm, gds, gmb, vth, vov."""
        vgs, vds, vbs, swapped = self._oriented_voltages(x)
        vth = self._threshold(vbs, ctx)
        vov = vgs - vth
        ids = self._ids(vgs, vds, vbs, ctx)
        grads = cstep_gradient(lambda a, b, c: self._ids(a, b, c, ctx), (vgs, vds, vbs))
        gm, gds, gmb = grads[0], grads[1], grads[2]
        if vov <= 0:
            region = "cutoff"
        elif vds < vov:
            region = "triode"
        else:
            region = "saturation"
        return {
            "region": region, "swapped": swapped,
            "vgs": vgs, "vds": vds, "vbs": vbs, "vth": vth, "vov": vov,
            "id": ids * (1.0 if not swapped else -1.0),
            "gm": gm, "gds": gds, "gmb": gmb,
        }
