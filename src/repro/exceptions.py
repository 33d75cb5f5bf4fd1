"""Exception hierarchy shared across the repro packages.

Every error raised by the library derives from :class:`ReproError` so that
callers (in particular the push-button tool in :mod:`repro.tool`) can catch
library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class UnitError(ReproError, ValueError):
    """A SPICE-style number or unit suffix could not be parsed."""


class NetlistError(ReproError):
    """The circuit description is malformed (bad connectivity, duplicate
    names, unknown nodes and similar structural problems)."""


class ParseError(NetlistError):
    """A netlist text file could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None, line: str | None = None):
        self.line_no = line_no
        self.line = line
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if line is not None:
            message = f"{message}\n    >>> {line.strip()}"
        super().__init__(message)


class ModelError(NetlistError):
    """A device model card is missing or carries invalid parameters."""


class AnalysisError(ReproError):
    """Base class for simulation-engine failures."""


class SingularMatrixError(AnalysisError):
    """The MNA matrix is singular (floating node, loop of ideal sources...)."""


class CompanionStructureError(AnalysisError):
    """An element's nonlinear stamp-call structure changed between Newton
    iterations, which the compiled (fixed-pattern-slot) Newton path cannot
    represent; the analyses fall back to the uncompiled assembly."""


class ConvergenceError(AnalysisError):
    """Newton-Raphson iteration failed to converge.

    ``history`` (when present) is the per-iteration diagnostic trail of
    the failed loop — a list of dicts with ``iteration``, ``delta_norm``
    and ``delta_converged`` fields (plus ``residual_norm``/``residual_ok``
    on the residual re-check; see ``repro.analysis.op._newton_rows``) —
    so a non-convergence report can show *how* the iteration diverged,
    not just that it did.  ``docs/observability.md`` walks through
    reading one.
    """

    def __init__(self, message: str, iterations: int | None = None,
                 worst_node: str | None = None, residual: float | None = None,
                 history: list | None = None):
        self.iterations = iterations
        self.worst_node = worst_node
        self.residual = residual
        self.history = history
        details = []
        if iterations is not None:
            details.append(f"iterations={iterations}")
        if worst_node is not None:
            details.append(f"worst node={worst_node!r}")
        if residual is not None:
            details.append(f"residual={residual:.3e}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)

    def to_details(self) -> dict:
        """JSON-serializable payload of the structured failure fields.

        This is what lets the iteration ``history`` survive a trip
        through a pool worker's serialized
        :class:`~repro.service.requests.AnalysisResponse` instead of
        being flattened into the error text.
        """
        return {"type": "ConvergenceError",
                "iterations": self.iterations,
                "worst_node": self.worst_node,
                "residual": self.residual,
                "history": self.history}

    @classmethod
    def from_details(cls, details: dict) -> "ConvergenceError":
        """Rebuild a structurally equivalent error from :meth:`to_details`
        output (the message is regenerated from the fields)."""
        return cls("Newton iteration did not converge",
                   iterations=details.get("iterations"),
                   worst_node=details.get("worst_node"),
                   residual=details.get("residual"),
                   history=details.get("history"))


class NonFiniteResultError(AnalysisError):
    """A finished result holds a NaN or an infinity, which strict JSON
    cannot carry; ``path`` names the first such value (``/results/3/...``)."""

    def __init__(self, path: str):
        self.path = path
        super().__init__(f"result is not finite at {path}: a NaN or "
                         "infinity cannot be sent as strict JSON")

    def to_details(self) -> dict:
        return {"type": "NonFiniteResultError", "path": self.path}


class SweepError(AnalysisError):
    """A frequency/time/parameter sweep specification is invalid."""


class WaveformError(ReproError):
    """Invalid waveform data or measurement request."""


class StabilityAnalysisError(ReproError):
    """The stability analysis (core contribution) could not be completed."""


class ToolError(ReproError):
    """Failures in the push-button tool layer (session, jobs, corners)."""
