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
their devices in strong inversion.  The drain current and its partial
derivatives with respect to (vgs, vds, vbs) are evaluated in closed form
from the temperature-scaled KP and VTO, cached per model value and
temperature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Dict, NamedTuple

import numpy as np

from repro.circuit.elements.nonlinear import NonlinearDevice, fetlim
from repro.exceptions import ModelError

__all__ = ["MOSFETModel", "MOSFET"]


@dataclass(frozen=True)
class MOSFETModel:
    """Parameter set for :class:`MOSFET` (SPICE level-1 card subset).

    Immutable: :meth:`with_updates` derives a changed copy, and the
    per-temperature parameter cache is keyed by the model's value.
    """

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
        object.__setattr__(self, "polarity", self.polarity.lower())
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


class _Parameters(NamedTuple):
    """Temperature-dependent MOSFET parameters."""

    kp: float
    vto: float
    sqrt_phi: float


@functools.lru_cache(maxsize=256)
def _parameters(model: MOSFETModel, temp_c: float) -> _Parameters:
    """KP and VTO of ``model`` at ``temp_c`` (and sqrt(PHI)), computed
    once per (model value, temperature)."""
    return _Parameters(kp=model.kp_at(temp_c), vto=model.vto_at(temp_c),
                       sqrt_phi=math.sqrt(model.PHI))


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
    # Closed-form evaluation
    # ------------------------------------------------------------------
    def _parameters(self, ctx) -> _Parameters:
        return _parameters(self.model, ctx.temperature)

    def _threshold(self, vbs, prm: _Parameters):
        """Threshold voltage including the body effect, and its slope
        ``dvth/dvbs``.  Scalar or ``(A,)`` array ``vbs``."""
        m = self.model
        if m.GAMMA == 0.0:
            return prm.vto, 0.0
        phi, sqrt_phi = m.PHI, prm.sqrt_phi
        # Forward-biased bulk (vbs > 0): the sqrt is linearised to keep
        # things smooth.
        if isinstance(vbs, np.ndarray):
            reverse = vbs <= 0.0
            # Guard the masked-out lane: sqrt of a negative argument in
            # the forward-bias lanes would poison the whole batch.
            root = np.sqrt(np.where(reverse, phi - vbs, phi))
            body = np.where(reverse, root,
                            sqrt_phi - 0.5 * vbs / sqrt_phi) - sqrt_phi
            return (prm.vto + m.GAMMA * body,
                    np.where(reverse, -0.5 * m.GAMMA / root,
                             -0.5 * m.GAMMA / sqrt_phi))
        if vbs <= 0.0:
            root = math.sqrt(phi - vbs)
            return prm.vto + m.GAMMA * (root - sqrt_phi), -0.5 * m.GAMMA / root
        return (prm.vto + m.GAMMA * (sqrt_phi - 0.5 * vbs / sqrt_phi - sqrt_phi),
                -0.5 * m.GAMMA / sqrt_phi)

    def _ids(self, vgs, vds, vbs, prm: _Parameters):
        """NMOS-referred drain-source current and its partials ``(ids,
        gm, gds, gmb)`` with respect to (vgs, vds, vbs); ``vds >= 0`` is
        assumed by the caller.  Scalars or ``(A,)`` arrays."""
        lam = self.model.LAMBDA
        beta = prm.kp * self.multiplier * self.width / self.length
        vth, dvth = self._threshold(vbs, prm)
        vov = vgs - vth
        if isinstance(vov, np.ndarray) or isinstance(vds, np.ndarray):
            clm = 1.0 + lam * vds
            triode = vds < vov
            off = vov <= 0.0
            ids = np.where(triode, beta * clm * vds * (vov - 0.5 * vds),
                           0.5 * beta * clm * vov * vov)
            gm = np.where(triode, beta * clm * vds, beta * clm * vov)
            gds = np.where(triode,
                           beta * (lam * vds * (vov - 0.5 * vds)
                                   + clm * (vov - vds)),
                           0.5 * beta * lam * vov * vov)
            gm = np.where(off, 0.0, gm)
            return (np.where(off, 0.0, ids), gm, np.where(off, 0.0, gds),
                    -gm * dvth)
        if vov <= 0.0:
            return 0.0, 0.0, 0.0, 0.0
        clm = 1.0 + lam * vds
        if vds < vov:
            gm = beta * clm * vds
            return (beta * clm * vds * (vov - 0.5 * vds), gm,
                    beta * (lam * vds * (vov - 0.5 * vds) + clm * (vov - vds)),
                    -gm * dvth)
        gm = beta * clm * vov
        return (0.5 * beta * clm * vov * vov, gm,
                0.5 * beta * lam * vov * vov, -gm * dvth)

    def _channel(self, vgs, vds, vbs, prm: _Parameters):
        """``(ids, dids/dvgs, dids/dvds, dids/dvbs)`` for either sign of
        ``vds``: source and drain swap roles when ``vds < 0``."""
        if isinstance(vds, np.ndarray):
            forward = vds >= 0.0
            ids, gm, gds, gmb = self._ids(
                np.where(forward, vgs, vgs - vds), np.abs(vds),
                np.where(forward, vbs, vbs - vds), prm)
            return (np.where(forward, ids, -ids),
                    np.where(forward, gm, -gm),
                    np.where(forward, gds, gm + gds + gmb),
                    np.where(forward, gmb, -gmb))
        if vds >= 0.0:
            return self._ids(vgs, vds, vbs, prm)
        ids, gm, gds, gmb = self._ids(vgs - vds, -vds, vbs - vds, prm)
        return -ids, -gm, gm + gds + gmb, -gmb

    # ------------------------------------------------------------------
    # Limiting
    # ------------------------------------------------------------------
    def _limited_voltages(self, x, ctx, prm: _Parameters):
        p = self.model.sign
        vs = x.voltage(self.source)
        vgs = p * (x.voltage(self.gate) - vs)
        vds = p * (x.voltage(self.drain) - vs)
        vbs = p * (x.voltage(self.bulk) - vs)

        state = self.device_state(ctx)
        vgs_old = state.get("vgs", prm.vto + 0.5)
        vds_old = state.get("vds", 0.0)
        vgs_lim = fetlim(vgs, vgs_old, prm.vto)
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
        prm = self._parameters(ctx)
        vgs, vds, vbs = self._limited_voltages(x, ctx, prm)
        ids, g_gs, g_ds, g_bs = self._channel(vgs, vds, vbs, prm)
        p = self.model.sign
        g = ctx.gmin
        # Terminal voltages with the source as the reference, consistent
        # with the limited voltages: the companion linearisation point.
        # Currents flow out of (drain, gate, source, bulk) into the device
        # and include the gmin drain-bulk and source-bulk conductances.
        vd = p * vds
        vb = p * vbs
        i_db = g * (vd - vb)
        i_sb = -g * vb
        g_sum = g_gs + g_ds + g_bs
        self.stamp_companion(
            stamper, (self.drain, self.gate, self.source, self.bulk),
            (p * ids + i_db, 0.0, -p * ids + i_sb, -(i_db + i_sb)),
            ((g_ds + g, g_gs, -g_sum, g_bs - g),
             (0.0, 0.0, 0.0, 0.0),
             (-g_ds, -g_gs, g_sum + g, -g_bs - g),
             (-g, 0.0, -g, 2.0 * g)),
            (vd, p * vgs, 0.0, vb))

    def _meyer_capacitances(self, vgs: float, vds: float, vbs: float,
                            prm: _Parameters, swapped: bool = False):
        """Gate capacitances (cgs, cgd, cgb) from the Meyer model plus
        overlaps, evaluated at the operating point (NMOS-referred).

        ``cgs``/``cgd`` are oriented like the voltages: when ``swapped``
        the oriented source is the physical drain, and it carries the
        drain's overlap capacitance."""
        m = self.model
        w, length = self.width * self.multiplier, self.length
        cox = m.COX * w * length
        c_ovl_gs, c_ovl_gd = m.CGSO * w, m.CGDO * w
        if swapped:
            c_ovl_gs, c_ovl_gd = c_ovl_gd, c_ovl_gs
        c_ovl_gb = m.CGBO * length
        vov = vgs - self._threshold(vbs, prm)[0]
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
        vgs, vds, vbs, swapped = self._oriented_voltages(x)
        cgs, cgd, cgb = self._meyer_capacitances(
            vgs, vds, vbs, self._parameters(ctx), swapped)
        # The oriented source is the physical drain when swapped: swap the
        # nodes once, not the capacitances as well.
        s_node, d_node = ((self.drain, self.source) if swapped
                          else (self.source, self.drain))
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
        return vgs - self._threshold(vbs, self._parameters(ctx))[0] > 0

    def currents(self, x, ctx) -> Dict[str, float]:
        """Drain current (NMOS-referred, negative when swapped)."""
        vgs, vds, vbs, swapped = self._oriented_voltages(x)
        ids = self._ids(vgs, vds, vbs, self._parameters(ctx))[0]
        return {"id": -ids if swapped else ids}

    def operating_point_info(self, x, ctx) -> Dict[str, float]:
        """Operating-point summary: region, id, gm, gds, gmb, vth, vov."""
        prm = self._parameters(ctx)
        vgs, vds, vbs, swapped = self._oriented_voltages(x)
        vth = self._threshold(vbs, prm)[0]
        vov = vgs - vth
        ids, gm, gds, gmb = self._ids(vgs, vds, vbs, prm)
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
