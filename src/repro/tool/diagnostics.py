"""Error handling, diagnostics and notification for the push-button tool.

The original tool auto-generates e-mails with error context so the EDA
group can support its users.  Without a mail system, the equivalents here
are structured :class:`DiagnosticRecord` objects collected by a
:class:`DiagnosticLog`, which can be written to the session's result
directory and/or forwarded to arbitrary notification callbacks (a hook a
deployment could point at an actual mailer or chat webhook).
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = ["DiagnosticRecord", "DiagnosticLog"]


@dataclass
class DiagnosticRecord:
    """One captured event (error, warning or informational note)."""

    severity: str                 #: "error", "warning" or "info"
    stage: str                    #: which tool stage produced it
    message: str
    details: Dict[str, str] = field(default_factory=dict)
    traceback_text: Optional[str] = None
    timestamp: float = field(default_factory=time.time)

    def format(self) -> str:
        lines = [f"[{self.severity.upper()}] ({self.stage}) {self.message}"]
        for key, value in self.details.items():
            lines.append(f"    {key}: {value}")
        if self.traceback_text:
            lines.append("    traceback:")
            lines.extend("      " + line for line in self.traceback_text.splitlines())
        return "\n".join(lines)


class DiagnosticLog:
    """Collects diagnostics for one tool run and dispatches notifications."""

    def __init__(self):
        self.records: List[DiagnosticRecord] = []
        self._notifiers: List[Callable[[DiagnosticRecord], None]] = []

    # ------------------------------------------------------------------
    def add_notifier(self, callback: Callable[[DiagnosticRecord], None]) -> None:
        """Register a callback invoked for every new record (the stand-in for
        the original tool's automatic e-mail notification)."""
        self._notifiers.append(callback)

    def _record(self, severity: str, stage: str, message: str,
                details: Optional[Dict[str, str]] = None,
                exception: Optional[BaseException] = None) -> DiagnosticRecord:
        record = DiagnosticRecord(
            severity=severity,
            stage=stage,
            message=message,
            details={k: str(v) for k, v in (details or {}).items()},
            traceback_text=("".join(traceback.format_exception(exception))
                            if exception is not None else None),
        )
        self.records.append(record)
        for notify in self._notifiers:
            try:
                notify(record)
            except Exception:  # pragma: no cover - notifiers must never break a run
                pass
        return record

    def info(self, stage: str, message: str, **details) -> DiagnosticRecord:
        return self._record("info", stage, message, details)

    def warning(self, stage: str, message: str, **details) -> DiagnosticRecord:
        return self._record("warning", stage, message, details)

    def error(self, stage: str, message: str,
              exception: Optional[BaseException] = None, **details) -> DiagnosticRecord:
        return self._record("error", stage, message, details, exception)

    # ------------------------------------------------------------------
    @property
    def has_errors(self) -> bool:
        return any(r.severity == "error" for r in self.records)

    def errors(self) -> List[DiagnosticRecord]:
        return [r for r in self.records if r.severity == "error"]

    def format(self) -> str:
        if not self.records:
            return "(no diagnostics recorded)"
        return "\n".join(record.format() for record in self.records)

    def write(self, directory: str, filename: str = "diagnostics.json") -> str:
        """Persist the log as JSON in ``directory`` and return the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps([asdict(record) for record in self.records],
                                    indent=2))
        return path
