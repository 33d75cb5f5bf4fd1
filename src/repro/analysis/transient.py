"""Transient (time-domain) analysis.

The integrator is trapezoidal with a fixed base step (plus forced steps at
source-waveform breakpoints).  Two operating modes exist:

* **full nonlinear** — a Newton solve per time point with the nonlinear
  device companions re-evaluated at every iteration (capacitances are
  evaluated at the start of the step, i.e. quasi-linear charge handling);
* **linearised** (``linearize=True``) — the circuit is linearised once at
  its DC operating point and the step response is integrated with a single
  LU factorisation.  This is what the paper's "traditional" small-signal
  overshoot measurement needs and it is orders of magnitude faster for
  transistor-level circuits.

Circuits without nonlinear devices automatically use the linear path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.analysis.mna import MNASystem
from repro.analysis.op import NewtonOptions, operating_point
from repro.analysis.results import OPResult, TransientResult
from repro.circuit.netlist import Circuit
from repro.exceptions import (
    AnalysisError,
    CompanionStructureError,
    ConvergenceError,
)

__all__ = ["transient_analysis"]


def transient_analysis(circuit: Circuit,
                       stop_time: float,
                       time_step: float,
                       temperature: float = 27.0,
                       gmin: float = 1e-12,
                       variables: Optional[Dict[str, float]] = None,
                       linearize: bool = False,
                       op: Optional[OPResult] = None,
                       options: Optional[NewtonOptions] = None,
                       max_newton_per_step: int = 50,
                       backend: Optional[str] = None) -> TransientResult:
    """Integrate the circuit from 0 to ``stop_time`` with step ``time_step``.

    The initial condition is the DC operating point (source waveforms are
    expected to start from their DC values; use a small non-zero delay on
    step/pulse stimuli).  ``backend`` selects the linear-solver backend of
    the linearised integration path ("dense"/"sparse"/None for auto); the
    companion matrix ``G + (2/h) C`` is factorized once per distinct step
    size and reused across every timestep.
    """
    if stop_time <= 0 or time_step <= 0:
        raise AnalysisError("stop_time and time_step must be positive")
    if time_step >= stop_time:
        raise AnalysisError("time_step must be smaller than stop_time")

    ctx = AnalysisContext(temperature=temperature, gmin=gmin,
                          variables=dict(circuit.variables))
    if variables:
        ctx.update_variables(variables)
    system = MNASystem(circuit, ctx, backend=backend)
    system.stamp()

    if op is None:
        op = operating_point(circuit, options=options, system=system)
    x0 = op.values_for(system.variable_names)

    times = _time_grid(system, stop_time, time_step)

    nonlinear = bool(system.nonlinear_elements)
    if linearize or not nonlinear:
        data = _integrate_linear(system, x0, times)
    else:
        data = _integrate_nonlinear(system, x0, times, options or NewtonOptions(),
                                    max_newton_per_step)

    return TransientResult(system.variable_names, times, data, op=op)


# ----------------------------------------------------------------------
def _time_grid(system: MNASystem, stop_time: float, time_step: float) -> np.ndarray:
    """Uniform grid plus source breakpoints (sorted, deduplicated)."""
    base = np.arange(0.0, stop_time + 0.5 * time_step, time_step)
    if base[-1] < stop_time:
        base = np.append(base, stop_time)
    points = set(np.round(base, 15))
    for bp in system.breakpoints():
        if 0.0 < bp < stop_time:
            points.add(round(bp, 15))
    times = np.array(sorted(points))
    # Guard against pathological zero-length steps.
    keep = np.concatenate(([True], np.diff(times) > 1e-18))
    return times[keep]


def _integrate_linear(system: MNASystem, x0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Trapezoidal integration of the linearised system.

    The companion matrix ``G + (2/h) C`` is wrapped in a
    :class:`~repro.linalg.LinearSystem` per distinct step size, so one
    factorization (dense LU or SuperLU, per the system's backend) serves
    every timestep taken with that step size.
    """
    sparse = system.backend.name == "sparse"
    G, C = system.small_signal_matrices(x0, form="sparse" if sparse else "dense")
    n = system.size
    data = np.zeros((len(times), n))
    data[0] = x0
    xdot = np.zeros(n)

    lu_cache: Dict[float, object] = {}
    b_dc = system.b_dc
    # The static rhs corresponds to the operating point: G_ss*x0 may differ
    # from b_dc because nonlinear companion currents are folded into G/C;
    # integrate the *deviation* from the operating point instead, which is
    # exact for the linearised system: C*d(dx)/dt + G*dx = b(t) - b_dc.
    for k in range(1, len(times)):
        h = times[k] - times[k - 1]
        key = round(h, 18)
        if key not in lu_cache:
            matrix = G + (2.0 / h) * C
            lu_cache[key] = system.linear_system(
                matrix.tocsc() if sparse else matrix)
        lu = lu_cache[key]
        b_t = system.transient_rhs(times[k])
        delta_b = b_t - b_dc
        prev_dx = data[k - 1] - x0
        rhs = delta_b + C @ ((2.0 / h) * prev_dx + xdot)
        dx = lu.solve(rhs)
        xdot = (2.0 / h) * (dx - prev_dx) - xdot
        data[k] = x0 + dx
    return data


def _integrate_nonlinear(system: MNASystem, x0: np.ndarray, times: np.ndarray,
                         options: NewtonOptions, max_newton: int) -> np.ndarray:
    """Trapezoidal integration with a Newton solve per time point.

    Every time point reuses the circuit's compiled Newton pattern: the
    per-iteration companion refill writes into fixed slots, and the
    start-of-step capacitance matrix comes from the compiled per-device
    terminal blocks — no per-entry name lookups or triplet rebuilds
    inside the step loop.  Structure-unstable elements fall back to the
    classic per-entry assembly.
    """
    if not system.newton_fallback:
        try:
            return _integrate_nonlinear_compiled(system, x0, times, options,
                                                 max_newton)
        except CompanionStructureError:
            system.newton_fallback = True
    return _integrate_nonlinear_uncompiled(system, x0, times, options,
                                           max_newton)


def _integrate_nonlinear_compiled(system: MNASystem, x0: np.ndarray,
                                  times: np.ndarray, options: NewtonOptions,
                                  max_newton: int) -> np.ndarray:
    n = system.size
    data = np.zeros((len(times), n))
    data[0] = x0
    x_prev = x0.copy()
    xdot_prev = np.zeros(n)
    ctx = system.ctx
    newton = system.newton_state()
    newton.set_gshunt(0.0)
    matrix: np.ndarray = np.empty((n, n))

    for k in range(1, len(times)):
        h = times[k] - times[k - 1]
        a = 2.0 / h
        # Capacitances evaluated at the start-of-step solution.
        C_step = newton.cap_dense(system.solution_view(x_prev), ctx)
        b_t = system.transient_rhs(times[k])
        history = C_step @ (a * x_prev + xdot_prev)
        delta_b = (b_t - system.b_dc) + history

        ctx.reset_device_states()
        x = x_prev.copy()
        converged = False
        for _ in range(max_newton):
            b_newton = newton.refill(system.solution_view(x), ctx)
            np.multiply(C_step, a, out=matrix)
            matrix += newton.matrix()
            # delta_b already subtracts b_dc once; b_newton adds it back,
            # so the total is b(t) + companion currents + history.
            rhs = delta_b + b_newton
            x_new = system.solve(matrix, rhs)
            delta = np.abs(x_new - x)
            tol = options.reltol * np.maximum(np.abs(x_new), np.abs(x)) + options.vntol
            x = x_new
            if np.all(delta <= tol):
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"transient Newton failed to converge at t={times[k]:g} s")
        xdot_prev = a * (x - x_prev) - xdot_prev
        x_prev = x
        data[k] = x
    return data


def _integrate_nonlinear_uncompiled(system: MNASystem, x0: np.ndarray,
                                    times: np.ndarray, options: NewtonOptions,
                                    max_newton: int) -> np.ndarray:
    """Per-entry companion stamping per iteration (the fallback path)."""
    n = system.size
    data = np.zeros((len(times), n))
    data[0] = x0
    x_prev = x0.copy()
    xdot_prev = np.zeros(n)
    ctx = system.ctx

    for k in range(1, len(times)):
        h = times[k] - times[k - 1]
        a = 2.0 / h
        # Capacitances evaluated at the start-of-step solution.
        _, C_step = system.small_signal_matrices(x_prev)
        b_t = system.transient_rhs(times[k])
        history = C_step @ (a * x_prev + xdot_prev)

        ctx.reset_device_states()
        x = x_prev.copy()
        converged = False
        for _ in range(max_newton):
            G_it, b_it = system.newton_matrices(x)
            matrix = G_it + a * C_step
            rhs = (b_t - system.b_dc) + b_it + history
            x_new = system.solve(matrix, rhs)
            delta = np.abs(x_new - x)
            tol = options.reltol * np.maximum(np.abs(x_new), np.abs(x)) + options.vntol
            x = x_new
            if np.all(delta <= tol):
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"transient Newton failed to converge at t={times[k]:g} s")
        xdot_prev = a * (x - x_prev) - xdot_prev
        x_prev = x
        data[k] = x
    return data
