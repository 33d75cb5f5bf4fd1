"""Closed-form device evaluation against a complex-step oracle.

The devices evaluate their currents and partial derivatives analytically.
This module keeps the device equations in complex-safe reference form and
differentiates them by complex step, which is exact to rounding, then
checks every companion stamp, ``operating_point_info`` partial and
incremental capacitance against that oracle in each operating region.
The batched Newton refill feeds the same evaluation ``(A,)`` arrays, so
every array lane must also match the scalar evaluation of that lane.
"""

import cmath
import gc
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.analysis.context import AnalysisContext
from repro.circuit.elements.bjt import BJT, BJTModel
from repro.circuit.elements.diode import Diode, DiodeModel
from repro.circuit.elements.mosfet import MOSFET, MOSFETModel
from repro.circuit.units import thermal_voltage

RTOL = 1e-10
#: Entries below this fraction of their row's largest magnitude are
#: compared absolutely at that scale.
FLOOR = 1e-6
LANE_RTOL = 1e-13

_CSTEP = 1e-100
_EXP_LIMIT = 80.0


# ----------------------------------------------------------------------
# Complex-step oracle and complex-safe reference equations
# ----------------------------------------------------------------------
def cstep_derivative(func, value):
    """Derivative of a scalar function via complex-step differentiation."""
    return func(complex(value, _CSTEP)).imag / _CSTEP


def cstep_gradient(func, values):
    """Gradient of ``func(*values)`` (scalar-valued) via complex step."""
    grad = []
    for k, v in enumerate(values):
        perturbed = list(values)
        perturbed[k] = complex(v, _CSTEP)
        grad.append(func(*perturbed).imag / _CSTEP)
    return grad


def _limexp(z):
    if z.real <= _EXP_LIMIT:
        return cmath.exp(z)
    return math.exp(_EXP_LIMIT) * (1.0 + (z - _EXP_LIMIT))


def _depletion_charge(v, cj0, vj, mj, fc):
    if cj0 <= 0.0:
        return 0.0 * v
    fcv = fc * vj
    if v.real < fcv:
        return cj0 * vj / (1.0 - mj) * (1.0 - (1.0 - v / vj) ** (1.0 - mj))
    f1 = cj0 * vj / (1.0 - mj) * (1.0 - (1.0 - fc) ** (1.0 - mj))
    f2 = (1.0 - fc) ** (1.0 + mj)
    return f1 + cj0 / f2 * ((1.0 - fc * (1.0 + mj)) * (v - fcv)
                            + 0.5 * mj / vj * (v * v - fcv * fcv))


def _bjt_npn(m, area, temp, vbe, vbc):
    isat = area * m.saturation_current(temp)
    vt = thermal_voltage(temp)
    i_f = isat * (_limexp(vbe / (m.NF * vt)) - 1.0)
    i_r = isat * (_limexp(vbc / (m.NR * vt)) - 1.0)
    qb_inv = 1.0 - vbc / m.VAF - (vbe / m.VAR if math.isfinite(m.VAR) else 0.0)
    if qb_inv.real < 0.1:
        # The clamp shifts only the real part: the Early slopes survive.
        qb_inv = qb_inv - (qb_inv.real - 0.1)
    ic = (i_f - i_r) * qb_inv - i_r / m.beta_reverse(temp)
    ib = i_f / m.beta_forward(temp) + i_r / m.beta_reverse(temp)
    return ic, ib


def _bjt_terminal(m, area, temp, gmin, vc, vb, ve):
    p = m.sign
    ic, ib = _bjt_npn(m, area, temp, p * (vb - ve), p * (vb - vc))
    i_bc = gmin * (vb - vc)
    i_c = p * ic - i_bc
    i_b = p * ib + i_bc + gmin * (vb - ve)
    return i_c, i_b, -(i_c + i_b)


def _bjt_charges(m, area, temp, vbe, vbc):
    isat = area * m.saturation_current(temp)
    vt = thermal_voltage(temp)
    q_be = (m.TF * isat * (_limexp(vbe / (m.NF * vt)) - 1.0)
            + _depletion_charge(vbe, area * m.CJE, m.VJE, m.MJE, m.FC))
    q_bc = (m.TR * isat * (_limexp(vbc / (m.NR * vt)) - 1.0)
            + _depletion_charge(vbc, area * m.CJC, m.VJC, m.MJC, m.FC))
    return q_be, q_bc


def _diode_current(m, area, temp, gmin, vd):
    vt = m.N * thermal_voltage(temp)
    return area * m.saturation_current(temp) * (_limexp(vd / vt) - 1.0) \
        + gmin * vd


def _diode_charge(m, area, temp, vd):
    vt = m.N * thermal_voltage(temp)
    isat = area * m.saturation_current(temp)
    return (m.TT * isat * (_limexp(vd / vt) - 1.0)
            + _depletion_charge(vd, m.CJO * area, m.VJ, m.M, m.FC))


def _mos_ids(m, beta, temp, vgs, vds, vbs):
    vth = m.vto_at(temp)
    if m.GAMMA != 0.0:
        sqrt_phi = math.sqrt(m.PHI)
        if vbs.real <= 0.0:
            vth = vth + m.GAMMA * (cmath.sqrt(m.PHI - vbs) - sqrt_phi)
        else:
            vth = vth + m.GAMMA * (sqrt_phi - 0.5 * vbs / sqrt_phi - sqrt_phi)
    vov = vgs - vth
    if vov.real <= 0.0:
        return 0.0 * vgs
    clm = 1.0 + m.LAMBDA * vds
    if vds.real < vov.real:
        return beta * clm * vds * (vov - 0.5 * vds)
    return 0.5 * beta * clm * vov * vov


def _mos_terminal(m, beta, temp, gmin, vd, vg, vs, vb):
    p = m.sign
    vgs, vds, vbs = p * (vg - vs), p * (vd - vs), p * (vb - vs)
    if vds.real >= 0.0:
        ids = _mos_ids(m, beta, temp, vgs, vds, vbs)
    else:
        ids = -_mos_ids(m, beta, temp, vgs - vds, -vds, vbs - vds)
    i_db = gmin * (vd - vb)
    i_sb = gmin * (vs - vb)
    return p * ids + i_db, 0.0 * vgs, -p * ids + i_sb, -(i_db + i_sb)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
class _View:
    def __init__(self, voltages):
        self._voltages = voltages

    def voltage(self, node):
        return self._voltages.get(node, 0.0)


class _ArrayContext:
    """Scalar temperature and gmin, array-valued device state (as in the
    batched Newton refill)."""

    def __init__(self, temperature, gmin):
        self.temperature = temperature
        self.gmin = gmin
        self._states = {}

    def device_state(self, name):
        return self._states.setdefault(name, {})


class _Capture:
    def __init__(self):
        self.g = []
        self.rhs = []
        self.caps = []

    def add_G_iter(self, vi, vj, value):
        self.g.append(value)

    def add_rhs_iter(self, variable, value):
        self.rhs.append(value)

    def capacitance_op(self, node_a, node_b, c):
        self.caps.append(c)

    def add_C_op(self, vi, vj, value):
        self.caps.append(value)


def _assert_rows_close(got, want, rtol, what):
    """Row-wise comparison: relative, with entries below FLOOR of their
    row's largest magnitude compared absolutely at that scale."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    for k, (g_row, w_row) in enumerate(zip(np.atleast_2d(got),
                                           np.atleast_2d(want))):
        floor = FLOOR * np.max(np.abs(w_row))
        scale = np.maximum(np.abs(w_row), floor)
        error = np.abs(g_row - w_row)
        assert np.all(error <= rtol * scale), (
            f"{what}, row {k}: got {g_row}, want {w_row}")


def _stamp(device, voltages, ctx, state):
    """Stamp ``device`` at ``voltages`` with limiting seeded to the
    identity; returns the captured companion values."""
    ctx.device_state(device.name).update(state)
    capture = _Capture()
    device.stamp_nonlinear(capture, _View(voltages), ctx)
    return capture


def _check_companion(capture, currents, volts, rtol, what):
    """Compare a captured companion stamp against the reference
    terminal currents: G entries are their gradient, each RHS entry is
    ``-(i - sum_j g_ij v_j)`` (compared at its largest term's scale,
    since the terms cancel)."""
    n = len(volts)
    jac = [cstep_gradient(lambda *v, k=k: currents(*v)[k], volts)
           for k in range(n)]
    _assert_rows_close(np.reshape(capture.g, (n, n)), jac, rtol,
                       f"{what}: Jacobian")
    values = currents(*volts)
    for i in range(n):
        terms = [values[i].real] + [-jac[i][j] * volts[j] for j in range(n)]
        want = -math.fsum(terms)
        scale = max(abs(t) for t in terms)
        assert abs(capture.rhs[i] - want) <= rtol * scale, (
            f"{what}: RHS row {i}: got {capture.rhs[i]}, want {want}")


# ----------------------------------------------------------------------
# BJT
# ----------------------------------------------------------------------
BJT_LANES = {                  # (vbe, vbc), NPN-referred
    "forward-active": (0.65, -2.0),
    "saturation": (0.75, 0.6),
    "cutoff": (-0.5, -3.0),
    "reverse-active": (-1.0, 0.65),
    "limexp-continuation": (2.5, -1.0),
    "qb-clamp": (0.7, 95.0),
    "low-injection": (0.45, -0.3),
}

BJT_MODELS = {
    "default": {},
    "finite-VAR": {"VAF": 20.0, "VAR": 2.0},
}

_BJT_CAPS = {"CJE": 1e-12, "CJC": 5e-13, "TF": 1e-10, "TR": 5e-9,
             "MJE": 0.4, "VJC": 0.6}


def _bjt(polarity, model_key):
    model = BJTModel(polarity=polarity, XTB=1.5, **_BJT_CAPS,
                     **BJT_MODELS[model_key])
    return BJT("Q1", "c", "b", "e", model, area=2.0)


def _bjt_voltages(device, vbe, vbc, ve=0.3):
    p = device.model.sign
    vb = ve + p * vbe
    return {"c": vb - p * vbc, "b": vb, "e": ve}


@pytest.mark.parametrize("polarity", ["npn", "pnp"])
@pytest.mark.parametrize("model_key", list(BJT_MODELS))
@pytest.mark.parametrize("temperature", [27.0, 85.0])
class TestBJT:
    @pytest.mark.parametrize("region", list(BJT_LANES))
    def test_companion_matches_complex_step(self, polarity, model_key,
                                            temperature, region):
        device = _bjt(polarity, model_key)
        vbe, vbc = BJT_LANES[region]
        ctx = AnalysisContext(temperature=temperature, gmin=1e-9)
        capture = _stamp(device, _bjt_voltages(device, vbe, vbc), ctx,
                         {"vbe": vbe, "vbc": vbc})
        p = device.model.sign
        # The companion linearizes at the emitter-referenced point.
        volts = (p * vbe - p * vbc, p * vbe, 0.0)
        _check_companion(
            capture,
            lambda vc, vb, ve: _bjt_terminal(device.model, device.area,
                                             temperature, ctx.gmin,
                                             vc, vb, ve),
            volts, RTOL, region)

    @pytest.mark.parametrize("region", list(BJT_LANES))
    def test_operating_point_info_and_capacitances(self, polarity, model_key,
                                                   temperature, region):
        device = _bjt(polarity, model_key)
        m, area = device.model, device.area
        vbe, vbc = BJT_LANES[region]
        ctx = AnalysisContext(temperature=temperature)
        view = _View(_bjt_voltages(device, vbe, vbc))
        info = device.operating_point_info(view, ctx)

        ic, ib = (v.real for v in _bjt_npn(m, area, temperature, vbe, vbc))
        currents = device.currents(view, ctx)
        _assert_rows_close([currents["ic"], currents["ib"]], [ic, ib], RTOL,
                           f"{region}: currents")
        _assert_rows_close([info["ic"], info["ib"]], [ic, ib], RTOL,
                           f"{region}: info currents")

        def npn(k):
            return lambda a, b: _bjt_npn(m, area, temperature, a, b)[k]

        dic = cstep_gradient(npn(0), (vbe, vbc))
        dib = cstep_gradient(npn(1), (vbe, vbc))
        _assert_rows_close([info["gm"], info["gpi"], info["go"]],
                           [dic[0], dib[0], -dic[1]], RTOL,
                           f"{region}: gm, gpi, go")

        cbe = cstep_derivative(
            lambda v: _bjt_charges(m, area, temperature, v, vbc)[0], vbe)
        cbc = cstep_derivative(
            lambda v: _bjt_charges(m, area, temperature, vbe, v)[1], vbc)
        _assert_rows_close([info["cbe"], info["cbc"]], [cbe, cbc], RTOL,
                           f"{region}: info capacitances")
        capture = _Capture()
        device.stamp_dynamic_nonlinear(capture, view, ctx)
        _assert_rows_close(capture.caps, [cbe, cbc], RTOL,
                           f"{region}: stamped capacitances")

    def test_array_lanes_match_scalar(self, polarity, model_key, temperature):
        device = _bjt(polarity, model_key)
        lanes = np.array(list(BJT_LANES.values()))
        vbe, vbc = lanes[:, 0], lanes[:, 1]
        ctx = _ArrayContext(temperature, 1e-9)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            batched = _stamp(device, _bjt_voltages(device, vbe, vbc), ctx,
                             {"vbe": vbe, "vbc": vbc})
        for lane, (be, bc) in enumerate(lanes):
            scalar = _stamp(device, _bjt_voltages(device, be, bc),
                            AnalysisContext(temperature=temperature,
                                            gmin=1e-9),
                            {"vbe": be, "vbc": bc})
            _assert_rows_close(
                [np.broadcast_to(v, lanes.shape[:1])[lane]
                 for v in batched.g + batched.rhs],
                scalar.g + scalar.rhs, LANE_RTOL, f"lane {lane}")


# ----------------------------------------------------------------------
# MOSFET
# ----------------------------------------------------------------------
MOS_LANES = {                  # (vgs, vds, vbs), NMOS-referred
    "cutoff": (0.3, 1.0, 0.0),
    "triode": (2.0, 0.3, -0.5),
    "saturation": (1.5, 2.0, 0.0),
    "reverse-bulk": (1.5, 2.0, -1.0),
    "forward-bulk": (1.5, 2.0, 0.2),
    "swapped-triode": (1.5, -0.4, 0.0),
    "swapped-saturation": (0.5, -2.0, -0.5),
}

MOS_MODELS = {
    "body-effect": {"GAMMA": 0.45, "PHI": 0.65},
    "GAMMA=0": {"GAMMA": 0.0},
}


def _mosfet(polarity, model_key):
    model = MOSFETModel(polarity=polarity, LAMBDA=0.04, KPTC=-2e-3,
                        VTOTC=-1e-3, **MOS_MODELS[model_key])
    return MOSFET("M1", "d", "g", "s", "b", model, width=20e-6,
                  length=2e-6, m=2.0)


def _mos_voltages(device, vgs, vds, vbs, vs=0.4):
    p = device.model.sign
    return {"d": vs + p * vds, "g": vs + p * vgs, "s": vs, "b": vs + p * vbs}


def _mos_beta(device, temperature):
    return (device.model.kp_at(temperature) * device.multiplier
            * device.width / device.length)


@pytest.mark.parametrize("polarity", ["nmos", "pmos"])
@pytest.mark.parametrize("model_key", list(MOS_MODELS))
@pytest.mark.parametrize("temperature", [27.0, -40.0])
class TestMOSFET:
    @pytest.mark.parametrize("region", list(MOS_LANES))
    def test_companion_matches_complex_step(self, polarity, model_key,
                                            temperature, region):
        device = _mosfet(polarity, model_key)
        vgs, vds, vbs = MOS_LANES[region]
        ctx = AnalysisContext(temperature=temperature, gmin=1e-9)
        capture = _stamp(device, _mos_voltages(device, vgs, vds, vbs), ctx,
                         {"vgs": vgs, "vds": vds})
        p = device.model.sign
        beta = _mos_beta(device, temperature)
        _check_companion(
            capture,
            lambda vd, vg, vs, vb: _mos_terminal(device.model, beta,
                                                 temperature, ctx.gmin,
                                                 vd, vg, vs, vb),
            (p * vds, p * vgs, 0.0, p * vbs), RTOL, region)

    @pytest.mark.parametrize("region", list(MOS_LANES))
    def test_operating_point_info(self, polarity, model_key, temperature,
                                  region):
        device = _mosfet(polarity, model_key)
        vgs, vds, vbs = MOS_LANES[region]
        ctx = AnalysisContext(temperature=temperature)
        view = _View(_mos_voltages(device, vgs, vds, vbs))
        info = device.operating_point_info(view, ctx)
        swapped = vds < 0
        if swapped:
            vgs, vds, vbs = vgs - vds, -vds, vbs - vds
        assert info["swapped"] is swapped
        beta = _mos_beta(device, temperature)

        def ids(a, b, c):
            return _mos_ids(device.model, beta, temperature, a, b, c)

        want = ids(complex(vgs), complex(vds), complex(vbs)).real
        sign = -1.0 if swapped else 1.0
        _assert_rows_close([info["id"], device.currents(view, ctx)["id"]],
                           [sign * want, sign * want], RTOL,
                           f"{region}: drain current")
        _assert_rows_close([info["gm"], info["gds"], info["gmb"]],
                           cstep_gradient(ids, (vgs, vds, vbs)), RTOL,
                           f"{region}: gm, gds, gmb")

    def test_array_lanes_match_scalar(self, polarity, model_key, temperature):
        device = _mosfet(polarity, model_key)
        lanes = np.array(list(MOS_LANES.values()))
        vgs, vds, vbs = lanes.T
        ctx = _ArrayContext(temperature, 1e-9)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            batched = _stamp(device, _mos_voltages(device, vgs, vds, vbs),
                             ctx, {"vgs": vgs, "vds": vds})
        for lane, (gs, ds, bs) in enumerate(lanes):
            scalar = _stamp(device, _mos_voltages(device, gs, ds, bs),
                            AnalysisContext(temperature=temperature,
                                            gmin=1e-9),
                            {"vgs": gs, "vds": ds})
            _assert_rows_close(
                [np.broadcast_to(v, lanes.shape[:1])[lane]
                 for v in batched.g + batched.rhs],
                scalar.g + scalar.rhs, LANE_RTOL, f"lane {lane}")


class _NodeCaps:
    """Records each stamped capacitance by its unordered node pair."""

    def __init__(self):
        self.caps = {}

    def capacitance_op(self, node_a, node_b, c):
        key = frozenset((node_a, node_b))
        self.caps[key] = self.caps.get(key, 0.0) + c


def _meyer_caps(device, vd, vs, vg=3.0):
    capture = _NodeCaps()
    device.stamp_dynamic_nonlinear(
        capture, _View({"d": vd, "g": vg, "s": vs, "b": 0.0}),
        AnalysisContext(temperature=27.0))
    return capture.caps


class TestMOSFETMeyerOrientation:
    """A reversed channel (vds < 0) puts the larger, source-side Meyer
    capacitance between the gate and the node acting as the source."""

    GS, GD = frozenset(("g", "s")), frozenset(("g", "d"))

    @pytest.mark.parametrize("polarity", ["nmos", "pmos"])
    def test_mirrored_biases_mirror_the_gate_capacitances(self, polarity):
        model = MOSFETModel(polarity=polarity, COX=2.5e-3, CGSO=0.3e-9,
                            CGDO=0.3e-9)
        device = MOSFET("M1", "d", "g", "s", "b", model, width=20e-6,
                        length=2e-6)
        p = model.sign
        forward = _meyer_caps(device, vd=p * 2.0, vs=0.0, vg=p * 3.0)
        reverse = _meyer_caps(device, vd=0.0, vs=p * 2.0, vg=p * 3.0)
        # Triode (vov 2.3 V > vds 2 V): the Meyer partition puts most of
        # the channel charge on the source side.
        assert forward[self.GS] > 3 * forward[self.GD]
        assert reverse[self.GD] == forward[self.GS]
        assert reverse[self.GS] == forward[self.GD]

    def test_overlaps_stay_on_their_physical_terminal(self):
        model = MOSFETModel(COX=2.5e-3, CGSO=0.5e-9, CGDO=0.1e-9)
        device = MOSFET("M1", "d", "g", "s", "b", model, width=20e-6,
                        length=2e-6)
        forward = _meyer_caps(device, vd=2.0, vs=0.0)
        reverse = _meyer_caps(device, vd=0.0, vs=2.0)
        overlap_s, overlap_d = model.CGSO * device.width, \
            model.CGDO * device.width
        exact = dict(rel=1e-12, abs=0.0)
        assert reverse[self.GD] - overlap_d == \
            pytest.approx(forward[self.GS] - overlap_s, **exact)
        assert reverse[self.GS] - overlap_s == \
            pytest.approx(forward[self.GD] - overlap_d, **exact)


# ----------------------------------------------------------------------
# Diode
# ----------------------------------------------------------------------
DIODE_LANES = {
    "forward": 0.6,
    "reverse": -2.0,
    "limexp-continuation": 2.5,
    "depletion-linearised": 0.5,
    "depletion-graded": 0.2,
    "small-reverse": -0.05,
    "strong-forward": 0.75,
}


def _diode():
    model = DiodeModel(IS=2e-14, N=1.3, CJO=2e-12, VJ=0.8, M=0.4, TT=5e-9)
    return Diode("D1", "a", "k", model, area=3.0)


@pytest.mark.parametrize("temperature", [27.0, 125.0])
class TestDiode:
    @pytest.mark.parametrize("region", list(DIODE_LANES))
    def test_companion_info_and_capacitance(self, temperature, region):
        device = _diode()
        m, area = device.model, device.area
        vd = DIODE_LANES[region]
        ctx = AnalysisContext(temperature=temperature, gmin=1e-9)
        voltages = {"a": vd + 0.2, "k": 0.2}
        capture = _stamp(device, voltages, ctx, {"vd": vd})
        _check_companion(
            capture,
            lambda va, vk: (_diode_current(m, area, temperature, ctx.gmin,
                                           va - vk),
                            -_diode_current(m, area, temperature, ctx.gmin,
                                            va - vk)),
            (vd, 0.0), RTOL, region)

        def current(v):
            return _diode_current(m, area, temperature, ctx.gmin, v)

        def charge(v):
            return _diode_charge(m, area, temperature, v)

        view = _View(voltages)
        info = device.operating_point_info(view, ctx)
        want = current(complex(vd)).real
        _assert_rows_close([info["id"], device.currents(view, ctx)["id"]],
                           [want, want], RTOL, f"{region}: current")
        _assert_rows_close([info["gd"]], [cstep_derivative(current, vd)],
                           RTOL, f"{region}: gd")
        cd = cstep_derivative(charge, vd)
        _assert_rows_close([info["cd"]], [cd], RTOL, f"{region}: cd")
        caps = _Capture()
        device.stamp_dynamic_nonlinear(caps, view, ctx)
        _assert_rows_close(caps.caps, [cd, -cd, -cd, cd], RTOL,
                           f"{region}: stamped capacitance")

    def test_array_lanes_match_scalar(self, temperature):
        device = _diode()
        lanes = np.array(list(DIODE_LANES.values()))
        ctx = _ArrayContext(temperature, 1e-9)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            batched = _stamp(device, {"a": lanes + 0.2, "k": 0.2}, ctx,
                             {"vd": lanes})
        for lane, vd in enumerate(lanes):
            scalar = _stamp(device, {"a": vd + 0.2, "k": 0.2},
                            AnalysisContext(temperature=temperature,
                                            gmin=1e-9),
                            {"vd": vd})
            _assert_rows_close(
                [np.broadcast_to(v, lanes.shape)[lane]
                 for v in batched.g + batched.rhs],
                scalar.g + scalar.rhs, LANE_RTOL, f"lane {lane}")


# ----------------------------------------------------------------------
# Per-temperature parameter cache
# ----------------------------------------------------------------------
class TestParameterCache:
    @pytest.mark.parametrize("model", [BJTModel(), DiodeModel(),
                                       MOSFETModel()],
                             ids=["bjt", "diode", "mosfet"])
    def test_models_are_frozen(self, model):
        with pytest.raises(FrozenInstanceError):
            model.TNOM = 50.0

    def test_with_updates_model_gets_its_own_parameters(self):
        base = BJTModel()
        ctx = AnalysisContext()
        view = _View({"b": 0.65})
        first = BJT("Q1", "0", "b", "0", base).currents(view, ctx)["ic"]
        doubled = BJT("Q2", "0", "b", "0",
                      base.with_updates(IS=2e-16)).currents(view, ctx)["ic"]
        assert doubled == pytest.approx(2.0 * first, rel=1e-12)
        # The base model's parameters are untouched.
        assert BJT("Q3", "0", "b", "0", base).currents(view, ctx)["ic"] \
            == first

    def test_recycled_model_objects_never_share_parameters(self):
        # A new model may reuse a collected model's id(); a cache keyed
        # by value cannot serve it the old parameters.
        ctx = AnalysisContext()
        view = _View({"a": 0.6})
        for scale in (1.0, 2.0, 4.0, 8.0):
            device = Diode("D1", "a", "0", DiodeModel(IS=scale * 1e-14))
            want = _diode_current(device.model, 1.0, 27.0, ctx.gmin,
                                  complex(0.6)).real
            assert device.currents(view, ctx)["id"] == pytest.approx(
                want, rel=1e-12)
            del device
            gc.collect()

    def test_temperatures_get_their_own_parameters(self):
        device = _mosfet("nmos", "body-effect")
        view = _View(_mos_voltages(device, 1.5, 2.0, 0.0))
        for temperature in (-40.0, 125.0, -40.0):
            got = device.currents(view, AnalysisContext(temperature=temperature))
            want = _mos_ids(device.model, _mos_beta(device, temperature),
                            temperature, complex(1.5), complex(2.0),
                            complex(0.0)).real
            assert got["id"] == pytest.approx(want, rel=1e-12)
