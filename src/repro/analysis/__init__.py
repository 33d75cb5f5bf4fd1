"""Circuit analysis engines (the Spectre stand-in).

Modified Nodal Analysis based DC operating point, AC small-signal sweep,
transient integration and pole analysis, all operating on
:class:`repro.circuit.Circuit` objects.
"""

from repro.analysis.ac import ac_analysis, solve_ac_batch
from repro.analysis.compiled import (
    BatchNewtonState,
    BatchStampState,
    CompiledCircuit,
    StampState,
    compile_circuit,
)
from repro.analysis.context import AnalysisContext
from repro.analysis.dcsweep import dc_sweep, dc_sweep_batch
from repro.analysis.mna import MNASystem, SolutionView
from repro.analysis.op import (
    NewtonOptions,
    operating_point,
    solve_dc,
    solve_linear_dc_batch,
    solve_nonlinear_dc_batch,
)
from repro.analysis.pz import pole_analysis
from repro.analysis.results import (
    ACResult,
    DCSweepResult,
    OPResult,
    PoleZeroResult,
    TransientResult,
)
from repro.analysis.sweeps import (
    FrequencySweep,
    around,
    decade_sweep,
    lin_sweep,
    log_sweep,
)
from repro.analysis.transient import transient_analysis

__all__ = [
    "AnalysisContext",
    "BatchNewtonState",
    "BatchStampState",
    "CompiledCircuit",
    "StampState",
    "compile_circuit",
    "MNASystem",
    "SolutionView",
    "NewtonOptions",
    "operating_point",
    "solve_dc",
    "solve_linear_dc_batch",
    "solve_nonlinear_dc_batch",
    "dc_sweep",
    "dc_sweep_batch",
    "ac_analysis",
    "solve_ac_batch",
    "transient_analysis",
    "pole_analysis",
    "OPResult",
    "ACResult",
    "DCSweepResult",
    "TransientResult",
    "PoleZeroResult",
    "FrequencySweep",
    "log_sweep",
    "lin_sweep",
    "decade_sweep",
    "around",
]
