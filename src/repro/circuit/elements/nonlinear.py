"""Shared machinery for nonlinear devices (diode, BJT, MOSFET).

* **Safe exponential and junction-voltage limiting.**  Newton-Raphson on
  exponential device equations diverges unless candidate junction voltages
  are limited between iterations (the classic SPICE ``pnjlim``) and the
  exponential itself is linearised above a threshold (``limexp``).

* **Closed-form device evaluation.**  Each device evaluates its currents
  together with their analytic partial derivatives (SPICE's device load:
  Nagel, *SPICE2*, UCB/ERL M520, 1975) from temperature-dependent
  parameters computed once per (model value, temperature).  The helpers
  here take Python floats on the scalar Newton path and ``(A,)`` arrays
  on the batched refill; array branches are ``np.where`` selections whose
  masked-out lanes are guarded, so ``np.errstate(raise)`` never trips on
  a lane that is discarded.  The tests check every derivative against
  complex-step differentiation of the device equations.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

from repro.circuit.elements.base import Element

__all__ = [
    "limexp",
    "pnjlim",
    "fetlim",
    "depletion_capacitance",
    "NonlinearDevice",
]

#: Exponent above which ``exp`` is linearised to avoid overflow.
_EXP_LIMIT = 80.0
_EXP_AT_LIMIT = math.exp(_EXP_LIMIT)

#: A junction conducts (the devices' ``conducting`` method, the guard of
#: the anchored bias point in :mod:`repro.analysis.op`) once its
#: forward bias exceeds this many emission-scaled thermal voltages: its
#: forward current is then about 150 saturation currents, while a real
#: bias point sits at 11 or more on every bundled circuit from -40 to
#: 125 degC and a device held off sits near zero.
CONDUCTION_THERMAL_VOLTAGES = 5.0


def limexp(x):
    """Overflow-safe exponential and its derivative: ``(value, slope)``.

    ``exp(x)`` up to ``x = 80``, then the first-order continuation
    ``exp(80) * (1 + (x - 80))`` whose slope is ``exp(80)``.  Scalar or
    ndarray ``x`` (the batched Newton path evaluates one device over all
    samples at once).
    """
    if isinstance(x, np.ndarray):
        low = x <= _EXP_LIMIT
        # Guard the masked-out lane before np.exp: np.where evaluates
        # both branches, and exp of an unguarded large argument overflows.
        safe = np.exp(np.where(low, x, 0.0))
        return (np.where(low, safe, _EXP_AT_LIMIT * (1.0 + (x - _EXP_LIMIT))),
                np.where(low, safe, _EXP_AT_LIMIT))
    if x <= _EXP_LIMIT:
        value = math.exp(x)
        return value, value
    return _EXP_AT_LIMIT * (1.0 + (x - _EXP_LIMIT)), _EXP_AT_LIMIT


def depletion_capacitance(v, cj0: float, vj: float, mj: float, fc: float):
    """Incremental depletion capacitance ``dQ/dV`` of a graded junction,
    linearised above ``fc * vj`` as in SPICE.  Scalar or ndarray ``v``."""
    if cj0 <= 0.0:
        return 0.0
    fcv = fc * vj
    array = isinstance(v, np.ndarray)
    if not array and v < fcv:
        return cj0 * (1.0 - v / vj) ** (-mj)
    above = cj0 / (1.0 - fc) ** (1.0 + mj) * (1.0 - fc * (1.0 + mj)
                                              + mj / vj * v)
    if not array:
        return above
    below = v < fcv
    # Guard the linearised lanes: (1 - v/vj) may be negative there.
    return np.where(below,
                    cj0 * (1.0 - np.where(below, v, 0.0) / vj) ** (-mj),
                    above)


def pnjlim(vnew: float, vold: float, vt: float, vcrit: float) -> float:
    """SPICE p-n junction voltage limiting.

    Restricts the per-iteration change of a forward-biased junction voltage
    so that the exponential does not overshoot catastrophically.  Accepts
    scalars or per-sample ndarrays (the limiting decision is then taken
    lane by lane, mirroring the scalar branch structure exactly).
    """
    if isinstance(vnew, np.ndarray) or isinstance(vold, np.ndarray):
        vnew = np.asarray(vnew, dtype=float)
        limit = (vnew > vcrit) & (np.abs(vnew - vold) > 2.0 * vt)
        arg = 1.0 + (vnew - vold) / vt
        v_pos = np.where(arg > 0.0,
                         vold + vt * np.log(np.where(arg > 0.0, arg, 1.0)),
                         vcrit)
        v_neg = vt * np.log(np.maximum(vnew / vt, 1e-30))
        limited = np.where(np.asarray(vold) > 0.0, v_pos, v_neg)
        return np.where(limit, limited, vnew)
    if vnew > vcrit and abs(vnew - vold) > 2.0 * vt:
        if vold > 0.0:
            arg = 1.0 + (vnew - vold) / vt
            if arg > 0.0:
                vnew = vold + vt * math.log(arg)
            else:
                vnew = vcrit
        else:
            vnew = vt * math.log(max(vnew / vt, 1e-30))
    return vnew


def fetlim(vnew: float, vold: float, vto: float) -> float:
    """SPICE FET gate-voltage limiting (limits vgs excursions around vto).

    Scalar or per-sample ndarray arguments; the array form is a
    branch-free ``np.where`` tree mirroring the scalar decision tree.
    """
    if isinstance(vnew, np.ndarray) or isinstance(vold, np.ndarray):
        vnew = np.asarray(vnew, dtype=float)
        vold = np.asarray(vold, dtype=float)
        vtsthi = np.abs(2.0 * (vold - vto)) + 2.0
        vtstlo = vtsthi / 2.0 + 2.0
        vtox = vto + 3.5
        delv = vnew - vold
        hi_down = np.where(vnew >= vtox,
                           np.where(-delv > vtstlo, vold - vtstlo, vnew),
                           np.maximum(vnew, vto + 2.0))
        hi_up = np.where(delv > vtsthi, vold + vtsthi, vnew)
        above_high = np.where(delv <= 0.0, hi_down, hi_up)
        mid = np.where(delv <= 0.0,
                       np.maximum(vnew, vto - 0.5),
                       np.minimum(vnew, vtox + 0.5))
        lo_down = np.where(-delv > vtsthi, vold - vtsthi, vnew)
        lo_up = np.where(vnew <= vto + 0.5,
                         np.where(delv > vtstlo, vold + vtstlo, vnew),
                         vto + 0.5)
        below = np.where(delv <= 0.0, lo_down, lo_up)
        return np.where(vold >= vto,
                        np.where(vold >= vtox, above_high, mid),
                        below)
    vtsthi = abs(2.0 * (vold - vto)) + 2.0
    vtstlo = vtsthi / 2.0 + 2.0
    vtox = vto + 3.5
    delv = vnew - vold
    if vold >= vto:
        if vold >= vtox:
            if delv <= 0:
                if vnew >= vtox:
                    if -delv > vtstlo:
                        vnew = vold - vtstlo
                else:
                    vnew = max(vnew, vto + 2.0)
            else:
                if delv > vtsthi:
                    vnew = vold + vtsthi
        else:
            if delv <= 0:
                if vnew < vto - 0.5:
                    vnew = vto - 0.5
            else:
                if vnew > vtox + 0.5:
                    vnew = vtox + 0.5
    else:
        if delv <= 0:
            if -delv > vtsthi:
                vnew = vold - vtsthi
        else:
            vtemp = vto + 0.5
            if vnew <= vtemp:
                if delv > vtstlo:
                    vnew = vold + vtstlo
            else:
                vnew = vtemp
    return vnew


class NonlinearDevice(Element):
    """Base class for nonlinear devices.

    Provides the generic "stamp a multi-terminal companion model" helper
    used by the diode, BJT and MOSFET: given the terminal currents and the
    Jacobian with respect to the terminal voltages, it stamps the
    conductance matrix entries and the Newton equivalent current sources.
    """

    is_nonlinear = True

    # ------------------------------------------------------------------
    def device_state(self, ctx) -> Dict:
        """Per-solve mutable state (used for junction-voltage limiting)."""
        return ctx.device_state(self.name)

    def stamp_companion(self, stamper, nodes: Sequence[str],
                        currents: Sequence[float],
                        jacobian: Sequence[Sequence[float]],
                        voltages: Sequence[float]) -> None:
        """Stamp the linearised companion model.

        ``currents[i]`` is the current flowing *out of node i into the
        device* evaluated at ``voltages``; ``jacobian[i][j]`` is its
        derivative with respect to the voltage of node ``j``.

        Every ``(i, j)`` entry and every equivalent-current row is stamped
        unconditionally, even when the value happens to be zero this
        iteration: the compiled Newton path records the stamp-call
        structure once per topology and refills only the values, so the
        sequence of calls must not depend on the candidate solution.
        """
        n = len(nodes)
        for i in range(n):
            ieq = currents[i]
            for j in range(n):
                gij = jacobian[i][j]
                stamper.add_G_iter(nodes[i], nodes[j], gij)
                ieq -= gij * voltages[j]
            stamper.add_rhs_iter(nodes[i], -ieq)

    def stamp_capacitance_matrix(self, stamper, nodes: Sequence[str],
                                 cap_jacobian: Sequence[Sequence[float]]) -> None:
        """Stamp an incremental capacitance Jacobian dQ_i/dV_j into the
        operating-point capacitance matrix (``add_C_op`` target)."""
        n = len(nodes)
        for i in range(n):
            for j in range(n):
                cij = cap_jacobian[i][j]
                if cij:
                    stamper.add_C_op(nodes[i], nodes[j], cij)
