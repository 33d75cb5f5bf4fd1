"""Warm-started DC transfer sweeps (``.DC`` in SPICE terms).

A transfer curve is a sequence of operating points under one slowly
varying quantity — an independent source's DC value or a design
variable.  Computing each point from scratch wastes exactly the work the
compile/restamp architecture exists to avoid, so the sweep engine here

* compiles the circuit once (:class:`~repro.analysis.compiled.CompiledCircuit`,
  shared with every other analysis of the topology);
* **source sweeps** never restamp at all: the matrix stamps of an
  independent source do not depend on its DC value, so each point patches
  the compiled right-hand-side slots of the swept source in place
  (linear circuits then pay one factorization for the whole curve);
* **variable sweeps** restamp values per point over the fixed structure;
* every Newton solve is **warm-started** from the previous point's
  solution — adjacent sweep points are adjacent operating points, so the
  solver usually converges in a couple of iterations instead of re-running
  the full homotopy ladder.  If a warm start fails to converge (a sharp
  region change), the point is retried cold before giving up.  The first
  point starts from the structure's anchor when the caller passes a
  reusable ``compiled=`` and tight options
  (see :func:`~repro.analysis.op.anchor_for`).

Sweep grids may ascend or descend (ramp-down curves are how hysteresis
hunting is done); see :func:`repro.analysis.sweeps.lin_sweep`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.analysis.compiled import BatchStampState, CompiledCircuit
from repro.analysis.context import AnalysisContext
from repro.analysis.mna import MNASystem
from repro.analysis.op import (
    NewtonOptions,
    anchor_for,
    linear_dc_matrix,
    solve_dc,
    solve_linear_dc_batch,
    solve_nonlinear_dc_batch,
)
from repro.analysis.results import DCSweepResult
from repro.circuit.elements.sources import CurrentSource, VoltageSource
from repro.circuit.netlist import Circuit
from repro.exceptions import AnalysisError, ConvergenceError
from repro.obs.trace import span as _span

__all__ = ["dc_sweep", "dc_sweep_batch"]


def _resolve_target(compiled: CompiledCircuit, ctx: AnalysisContext,
                    sweep: str):
    """Classify the sweep target: a design variable or an independent
    source element.  Returns ``(is_variable, element)``."""
    if sweep in ctx.variables:
        return True, None
    element = next((e for e in compiled.circuit if e.name == sweep), None)
    if element is None:
        sources = [e.name for e in compiled.circuit
                   if isinstance(e, (VoltageSource, CurrentSource))]
        raise AnalysisError(
            f"cannot sweep {sweep!r}: not a design variable "
            f"({sorted(ctx.variables) or 'none declared'}) and not an "
            f"independent source ({sources or 'none in the circuit'})")
    if not isinstance(element, (VoltageSource, CurrentSource)):
        raise AnalysisError(
            f"cannot sweep element {sweep!r} of type "
            f"{type(element).__name__}; only independent V/I sources and "
            "design variables are sweepable")
    return False, element


def dc_sweep(circuit: Optional[Circuit],
             sweep: str,
             values: Union[Sequence[float], np.ndarray],
             temperature: float = 27.0,
             gmin: float = 1e-12,
             variables: Optional[Dict[str, float]] = None,
             options: Optional[NewtonOptions] = None,
             backend: Optional[str] = None,
             compiled: Optional[CompiledCircuit] = None,
             context: Optional[AnalysisContext] = None) -> DCSweepResult:
    """Compute the DC transfer curve of ``circuit`` over ``values``.

    Parameters
    ----------
    circuit:
        The circuit to sweep (may be ``None`` when ``compiled`` is given).
    sweep:
        What to ramp: the name of an independent voltage/current source
        (its DC value is swept) or of a design variable.
    values:
        The sweep grid (at least two points; ascending or descending).
    temperature, gmin, variables, options, backend:
        As for :func:`~repro.analysis.op.operating_point`.
    compiled:
        Precompiled structure to reuse (the Monte Carlo path: compile the
        topology once, sweep transfer curves per sample).  The first
        point then starts from the structure's anchor under tight
        options (see :func:`~repro.analysis.op.anchor_for`).
    context:
        Pre-built analysis context (used internally by batch engines).
    """
    grid = np.asarray(list(values), dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise AnalysisError("dc_sweep needs at least two sweep values")
    with _span("analysis.dc_sweep", sweep=sweep, points=len(grid)):
        return _dc_sweep_impl(circuit, sweep, grid, temperature, gmin,
                              variables, options, backend, compiled, context)


def _dc_sweep_impl(circuit, sweep, grid, temperature, gmin, variables,
                   options, backend, compiled, context) -> DCSweepResult:
    reusable = compiled is not None
    if compiled is None:
        if circuit is None:
            raise AnalysisError("dc_sweep needs a circuit or a "
                                "precompiled CompiledCircuit")
        compiled = CompiledCircuit(circuit)
    ctx = context or AnalysisContext(temperature=temperature, gmin=gmin,
                                     variables=dict(compiled.circuit.variables))
    if variables:
        ctx.update_variables(variables)
    options = options or NewtonOptions()

    system = MNASystem(None, ctx, backend=backend, compiled=compiled)
    system.stamp()
    is_variable, element = _resolve_target(compiled, ctx, sweep)

    entries = coeffs = None
    base_b = live_b = None
    linear_reuse = None
    if not is_variable:
        entries = compiled.dc_rhs_slots(element.name)
        # Recorded add_rhs_dc stamps of the source, in stamp order: a
        # voltage source writes +dc at its branch row; a current source
        # writes (-dc, +dc) at its terminal rows.
        coeffs = (1.0,) if isinstance(element, VoltageSource) else (-1.0, 1.0)
        if len(entries) != len(coeffs):
            raise AnalysisError(
                f"source {element.name!r} stamped {len(entries)} DC "
                f"right-hand-side entries, expected {len(coeffs)}; its "
                "DC value cannot be swept by rhs patching")
        nominal = element.dc_value(ctx)
        live_b = system.state.b_dc            # patched in place per point
        base_b = live_b.copy()
        if not system.nonlinear_elements:
            # The matrix never changes over a linear source sweep: one
            # factorization serves the entire transfer curve.
            linear_reuse = system.linear_system(
                linear_dc_matrix(system, options.gshunt))

    anchor = None
    if reusable and system.nonlinear_elements:
        anchor = anchor_for(compiled, system.backend, options)

    n = system.size
    data = np.zeros((len(grid), n))
    iterations = []
    strategies = []
    x_prev: Optional[np.ndarray] = None
    for k, value in enumerate(grid):
        if is_variable:
            ctx.set_variable(sweep, float(value))
            system.restamp()
        else:
            patched = base_b.copy()
            delta = float(value) - nominal
            for (slots, signs), coeff in zip(entries, coeffs):
                if len(slots):
                    patched[slots] += coeff * delta * signs
            live_b[:] = patched

        if linear_reuse is not None:
            x, iters, strategy = linear_reuse.solve(live_b), 0, "linear"
        else:
            x0 = x_prev if x_prev is not None else np.zeros(n)
            try:
                x, iters, strategy = solve_dc(
                    system, x0, options, anchor if x_prev is None else None)
            except ConvergenceError:
                if x_prev is None:
                    raise
                # The warm start landed in a bad basin (sharp transition
                # between adjacent points): retry this point cold.
                x, iters, strategy = solve_dc(system, np.zeros(n), options)
        data[k] = x
        iterations.append(iters)
        strategies.append(strategy)
        x_prev = x

    return DCSweepResult(system.variable_names, sweep, grid, data,
                         iterations=iterations, strategies=strategies,
                         temperature=ctx.temperature)


def dc_sweep_batch(batch: BatchStampState, sweep: str,
                   values: Union[Sequence[float], np.ndarray],
                   options: Optional[NewtonOptions] = None,
                   backend: Optional[str] = None):
    """DC transfer curves of a whole scenario batch: one sweep, N samples.

    ``batch`` is a :class:`~repro.analysis.compiled.BatchStampState`
    (one restamped topology, N scenarios).  The sweep advances **one
    grid point at a time across all samples**: at each point the
    batched Newton engine (:func:`~repro.analysis.op.solve_nonlinear_dc_batch`,
    or the direct :func:`~repro.analysis.op.solve_linear_dc_batch` for
    linear circuits) solves every sample's operating point together,
    warm-started from the previous point's solution plane — the batched
    twin of the scalar warm-start chain.  Source sweeps patch the
    compiled right-hand-side slots per point (no restamp at all);
    variable sweeps restamp the batch per point over the fixed
    structure.

    A sample whose warm start fails at a point is retried cold (scalar,
    from zeros), mirroring :func:`dc_sweep`; if the cold retry also
    fails the sample's *whole curve* is marked failed without touching
    its batchmates.

    Returns ``(results, failures)``: ``results`` is a list of N
    per-sample :class:`~repro.analysis.results.DCSweepResult` objects
    (``None`` for failed samples), ``failures`` maps failed sample
    indices to exceptions.
    """
    grid = np.asarray(list(values), dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise AnalysisError("dc_sweep_batch needs at least two sweep values")
    compiled = batch.compiled
    n = compiled.size
    n_samples = len(batch)
    options = options or NewtonOptions()
    failures: Dict[int, Exception] = dict(batch.failures)

    is_variable, element = _resolve_target(
        compiled, batch.sample_context(0), sweep)
    entries = coeffs = nominals = None
    if not is_variable:
        entries = compiled.dc_rhs_slots(element.name)
        coeffs = (1.0,) if isinstance(element, VoltageSource) else (-1.0, 1.0)
        if len(entries) != len(coeffs):
            raise AnalysisError(
                f"source {element.name!r} stamped {len(entries)} DC "
                f"right-hand-side entries, expected {len(coeffs)}; its "
                "DC value cannot be swept by rhs patching")
        nominals = np.array([element.dc_value(batch.sample_context(k))
                             for k in range(n_samples)], dtype=float)

    linear = compiled.is_linear
    data = np.full((n_samples, len(grid), n), np.nan)
    iterations = [[0] * len(grid) for _ in range(n_samples)]
    strategies = [[""] * len(grid) for _ in range(n_samples)]
    x_prev: Optional[np.ndarray] = None

    with _span("analysis.dc_sweep_batch", sweep=sweep, points=len(grid),
               samples=n_samples):
        for point, value in enumerate(grid):
            if is_variable:
                rows = [dict(row, **{sweep: float(value)})
                        for row in batch.variable_rows]
                batch_k = compiled.restamp_batch(
                    variables=rows, temperature=batch.temperatures,
                    gmin=batch.gmins)
            else:
                # The matrix stamps of an independent source do not
                # depend on its DC value: patch the compiled rhs slots
                # on a per-point view sharing every other value array.
                patched = batch.b_dc.copy()
                delta = float(value) - nominals
                for (slots, signs), coeff in zip(entries, coeffs):
                    if len(slots):
                        patched[:, slots] += coeff * delta[:, None] * signs
                batch_k = BatchStampState(
                    compiled, batch.g_values, batch.c_values, patched,
                    batch.b_ac, temperatures=batch.temperatures,
                    gmins=batch.gmins, failures=dict(batch.failures),
                    vectorized=batch.vectorized,
                    variable_rows=batch.variable_rows, rhs_patched=True)
            # Samples already failed terminally stop being solved.
            batch_k.failures.update(failures)

            if linear:
                x_k, fails_k = solve_linear_dc_batch(batch_k,
                                                     backend=backend)
                iters_k = np.zeros(n_samples, dtype=np.int64)
                strats_k = ["linear"] * n_samples
            else:
                x_k, iters_k, strats_k, fails_k = solve_nonlinear_dc_batch(
                    batch_k, backend=backend, options=options, x0=x_prev)

            for k, exc in fails_k.items():
                if k in failures:
                    continue
                if x_prev is None or linear:
                    failures[k] = exc
                    continue
                # The warm start landed in a bad basin (sharp transition
                # between adjacent points): retry this sample cold.
                system = batch_k.sample_system(k, backend)
                try:
                    xk, iters, strategy = solve_dc(system, np.zeros(n),
                                                   options)
                except (ConvergenceError, AnalysisError) as cold_exc:
                    failures[k] = cold_exc
                else:
                    x_k[k] = xk
                    iters_k[k] = iters
                    strats_k[k] = strategy

            for k in range(n_samples):
                if k in failures:
                    continue
                data[k, point] = x_k[k]
                iterations[k][point] = int(iters_k[k])
                strategies[k][point] = strats_k[k]
            x_prev = x_k

    results = []
    for k in range(n_samples):
        if k in failures:
            results.append(None)
            continue
        results.append(DCSweepResult(
            compiled.variable_names, sweep, grid, data[k],
            iterations=iterations[k], strategies=strategies[k],
            temperature=float(batch.temperatures[k])))
    return results, failures
