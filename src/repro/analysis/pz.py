"""Pole (natural-frequency) analysis of the linearised network.

The natural frequencies of the small-signal circuit are the generalised
eigenvalues ``s`` of ``(G + s*C) x = 0``.  They are used in this project
as the *ground truth* against which the stability-plot method is checked
(the stability plot should place its negative peaks at the natural
frequency of every under-damped complex pole pair, with a peak value of
``-1/zeta**2``).

Infinite eigenvalues (from the singular part of ``C``) are discarded.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import scipy.linalg

from repro.analysis.context import AnalysisContext
from repro.analysis.mna import MNASystem
from repro.analysis.op import NewtonOptions, operating_point
from repro.analysis.results import OPResult, PoleZeroResult
from repro.circuit.netlist import Circuit

__all__ = ["pole_analysis"]


def pole_analysis(circuit: Circuit,
                  temperature: float = 27.0,
                  gmin: float = 1e-12,
                  variables: Optional[Dict[str, float]] = None,
                  op: Optional[OPResult] = None,
                  options: Optional[NewtonOptions] = None,
                  max_frequency: float = 1e15) -> PoleZeroResult:
    """Compute the poles (natural frequencies) of the linearised circuit.

    ``max_frequency`` discards numerically infinite eigenvalues: poles with
    ``|s|/(2*pi)`` above it are artefacts of the singular ``C`` matrix.
    """
    ctx = AnalysisContext(temperature=temperature, gmin=gmin,
                          variables=dict(circuit.variables))
    if variables:
        ctx.update_variables(variables)
    system = MNASystem(circuit, ctx)
    system.stamp()

    if op is None:
        op = operating_point(circuit, options=options, system=system)
        x_op = op.x
    else:
        x_op = op.values_for(system.variable_names)

    G, C = system.small_signal_matrices(x_op)

    # Generalised eigenvalue problem: G x = -s C x  =>  eig(-G, C).
    eigenvalues = scipy.linalg.eig(-G, C, right=False)
    finite = []
    for value in eigenvalues:
        if not np.isfinite(value):
            continue
        if abs(value) / (2.0 * np.pi) > max_frequency:
            continue
        finite.append(complex(value))
    poles = np.array(sorted(finite, key=lambda p: (abs(p), p.imag)), dtype=complex)
    return PoleZeroResult(poles, op=op)
