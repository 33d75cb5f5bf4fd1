"""Result containers for the analysis engines.

The containers give name-based access (``result.voltage("out")``) and
hand back :class:`~repro.waveform.waveform.Waveform` objects where a
quantity varies over frequency or time, so that downstream code (the
stability tool, the baseline measurements, the examples) never touches raw
index arithmetic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import AnalysisError

__all__ = ["OPResult", "ACResult", "DCSweepResult", "TransientResult",
           "PoleZeroResult"]


class _NamedVectorResult:
    """Shared machinery: map node/branch names to columns of a data array."""

    def __init__(self, variable_names: List[str]):
        self._variables = list(variable_names)
        self._positions = {name: i for i, name in enumerate(self._variables)}

    @property
    def variable_names(self) -> List[str]:
        return list(self._variables)

    def _column(self, name: str) -> int:
        if name in ("0", "gnd", "GND"):
            raise AnalysisError("ground is the reference node; its value is 0 by definition")
        try:
            return self._positions[name]
        except KeyError:
            raise AnalysisError(f"no node or branch named {name!r} in the results") from None

    def has(self, name: str) -> bool:
        return name in self._positions


class OPResult(_NamedVectorResult):
    """DC operating point: node voltages, branch currents, device info."""

    def __init__(self, variable_names: List[str], x: np.ndarray,
                 device_info: Optional[Dict[str, Dict[str, float]]] = None,
                 iterations: int = 0, strategy: str = "newton",
                 temperature: float = 27.0,
                 info_failures: Optional[Dict[str, str]] = None):
        super().__init__(variable_names)
        self.x = np.asarray(x, dtype=float)
        self.device_info = device_info or {}
        self.iterations = iterations
        self.strategy = strategy
        self.temperature = temperature
        #: Device name -> error text for operating_point_info calls that
        #: failed at the converged point (diagnostics never break a solve,
        #: but unexpected model failures must not vanish silently either).
        self.info_failures = info_failures or {}

    def voltage(self, node: str) -> float:
        if node in ("0", "gnd", "GND"):
            return 0.0
        return float(self.x[self._column(node)])

    def current(self, branch: str) -> float:
        return float(self.x[self._column(branch)])

    def values_for(self, names: Sequence[str]) -> np.ndarray:
        """This bias point on another system's unknowns ``names``, by
        name; zero where it has no such variable (an injected stimulus,
        say)."""
        return np.array([self.x[self._positions[name]]
                         if name in self._positions else 0.0
                         for name in names])

    def voltages(self) -> Dict[str, float]:
        return {name: float(self.x[i]) for i, name in enumerate(self._variables)
                if not name.startswith("#branch:")}

    # ------------------------------------------------------------------
    # Serialization (JSON round-trip for the result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able representation of the operating point."""
        return {
            "variable_names": list(self._variables),
            "x": self.x.tolist(),
            "device_info": {name: dict(info)
                            for name, info in self.device_info.items()},
            "iterations": self.iterations,
            "strategy": self.strategy,
            "temperature": self.temperature,
            "info_failures": dict(self.info_failures),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OPResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            variable_names=list(data["variable_names"]),
            x=np.asarray(data["x"], dtype=float),
            device_info=data.get("device_info") or {},
            iterations=int(data.get("iterations", 0)),
            strategy=data.get("strategy", "newton"),
            temperature=float(data.get("temperature", 27.0)),
            info_failures=data.get("info_failures") or {},
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<OPResult {len(self._variables)} unknowns, "
                f"{self.iterations} iterations, strategy={self.strategy!r}>")


class DCSweepResult(_NamedVectorResult):
    """DC transfer sweep: one operating point per swept value.

    ``data[k, i]`` is unknown ``i`` at sweep point ``k``; ``iterations``
    and ``strategies`` record, per point, how hard the warm-started Newton
    solver had to work (strategy "linear" for circuits solved directly).
    JSON round-trips through :meth:`to_dict`/:meth:`from_dict` so transfer
    curves are first-class service payloads.
    """

    def __init__(self, variable_names: List[str], sweep_name: str,
                 sweep_values: np.ndarray, data: np.ndarray,
                 iterations: Optional[List[int]] = None,
                 strategies: Optional[List[str]] = None,
                 temperature: float = 27.0):
        super().__init__(variable_names)
        self.sweep_name = sweep_name
        self.sweep_values = np.asarray(sweep_values, dtype=float)
        #: data[k, i] = value of variable i at sweep point k
        self.data = np.asarray(data, dtype=float)
        self.iterations = list(iterations) if iterations is not None else []
        self.strategies = list(strategies) if strategies is not None else []
        self.temperature = temperature
        if self.data.shape != (len(self.sweep_values), len(self._variables)):
            raise AnalysisError(
                "DC sweep result data shape does not match values/variables")

    def __len__(self) -> int:
        return len(self.sweep_values)

    def voltage(self, node: str) -> np.ndarray:
        """Node voltage vs. swept value (zeros for ground)."""
        if node in ("0", "gnd", "GND"):
            return np.zeros_like(self.sweep_values)
        return self.data[:, self._column(node)]

    def current(self, branch: str) -> np.ndarray:
        return self.data[:, self._column(branch)]

    def gain(self, node: str) -> np.ndarray:
        """Incremental transfer gain d V(node) / d (swept value)."""
        return np.gradient(self.voltage(node), self.sweep_values)

    def waveform(self, node: str):
        """The transfer curve as a :class:`Waveform` (x = swept value)."""
        from repro.waveform.waveform import Waveform

        return Waveform(self.sweep_values, self.voltage(node),
                        name=f"V({node}) vs {self.sweep_name}",
                        x_unit=self.sweep_name, y_unit="V")

    @property
    def total_iterations(self) -> int:
        return int(sum(self.iterations))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able representation (what the service cache stores)."""
        return {
            "variable_names": list(self._variables),
            "sweep_name": self.sweep_name,
            "sweep_values": self.sweep_values.tolist(),
            "data": self.data.tolist(),
            "iterations": list(self.iterations),
            "strategies": list(self.strategies),
            "temperature": self.temperature,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DCSweepResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            variable_names=list(data["variable_names"]),
            sweep_name=data["sweep_name"],
            sweep_values=np.asarray(data["sweep_values"], dtype=float),
            data=np.asarray(data["data"], dtype=float),
            iterations=[int(i) for i in data.get("iterations", [])],
            strategies=[str(s) for s in data.get("strategies", [])],
            temperature=float(data.get("temperature", 27.0)),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<DCSweepResult {self.sweep_name}: "
                f"{len(self.sweep_values)} points "
                f"{self.sweep_values[0]:g}..{self.sweep_values[-1]:g}, "
                f"{len(self._variables)} variables>")


class ACResult(_NamedVectorResult):
    """Small-signal frequency sweep: complex response per node/branch."""

    def __init__(self, variable_names: List[str], frequencies: np.ndarray,
                 data: np.ndarray, op: Optional[OPResult] = None):
        super().__init__(variable_names)
        self.frequencies = np.asarray(frequencies, dtype=float)
        #: data[k, i] = complex response of variable i at frequency k
        self.data = np.asarray(data, dtype=complex)
        self.op = op
        if self.data.shape != (len(self.frequencies), len(self._variables)):
            raise AnalysisError("AC result data shape does not match frequencies/variables")

    def voltage(self, node: str) -> np.ndarray:
        """Complex voltage phasor vs. frequency for ``node``."""
        if node in ("0", "gnd", "GND"):
            return np.zeros_like(self.frequencies, dtype=complex)
        return self.data[:, self._column(node)]

    def current(self, branch: str) -> np.ndarray:
        return self.data[:, self._column(branch)]

    def magnitude(self, node: str) -> np.ndarray:
        return np.abs(self.voltage(node))

    def phase_deg(self, node: str, unwrap: bool = True) -> np.ndarray:
        angles = np.angle(self.voltage(node))
        if unwrap:
            angles = np.unwrap(angles)
        return np.degrees(angles)

    def waveform(self, node: str):
        """Return the complex response as a :class:`Waveform` (x = frequency)."""
        from repro.waveform.waveform import Waveform

        return Waveform(self.frequencies, self.voltage(node),
                        name=f"V({node})", x_unit="Hz", y_unit="V")

    # ------------------------------------------------------------------
    # Serialization (JSON round-trip for the service payloads)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able representation (complex data as real/imag planes)."""
        return {
            "variable_names": list(self._variables),
            "frequencies": self.frequencies.tolist(),
            "data_real": self.data.real.tolist(),
            "data_imag": self.data.imag.tolist(),
            "op": self.op.to_dict() if self.op is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ACResult":
        """Inverse of :meth:`to_dict`."""
        payload = (np.asarray(data["data_real"], dtype=float)
                   + 1j * np.asarray(data["data_imag"], dtype=float))
        op = data.get("op")
        return cls(
            variable_names=list(data["variable_names"]),
            frequencies=np.asarray(data["frequencies"], dtype=float),
            data=payload,
            op=OPResult.from_dict(op) if op is not None else None,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ACResult {len(self.frequencies)} points "
                f"{self.frequencies[0]:g}..{self.frequencies[-1]:g} Hz, "
                f"{len(self._variables)} variables>")


class TransientResult(_NamedVectorResult):
    """Time-domain waveforms for every node/branch."""

    def __init__(self, variable_names: List[str], times: np.ndarray,
                 data: np.ndarray, op: Optional[OPResult] = None):
        super().__init__(variable_names)
        self.times = np.asarray(times, dtype=float)
        #: data[k, i] = value of variable i at time k
        self.data = np.asarray(data, dtype=float)
        self.op = op
        if self.data.shape != (len(self.times), len(self._variables)):
            raise AnalysisError("transient result data shape does not match times/variables")

    def voltage(self, node: str) -> np.ndarray:
        if node in ("0", "gnd", "GND"):
            return np.zeros_like(self.times)
        return self.data[:, self._column(node)]

    def current(self, branch: str) -> np.ndarray:
        return self.data[:, self._column(branch)]

    def waveform(self, node: str):
        """Return the node voltage vs. time as a :class:`Waveform`."""
        from repro.waveform.waveform import Waveform

        return Waveform(self.times, self.voltage(node),
                        name=f"v({node})", x_unit="s", y_unit="V")

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<TransientResult {len(self.times)} points "
                f"0..{self.times[-1]:g} s, {len(self._variables)} variables>")


class PoleZeroResult:
    """Natural frequencies (poles) of the linearised network."""

    def __init__(self, poles: np.ndarray, op: Optional[OPResult] = None):
        self.poles = np.asarray(poles, dtype=complex)
        self.op = op

    def complex_pole_pairs(self) -> List[complex]:
        """One representative (positive imaginary part) per complex pair."""
        return [p for p in self.poles if p.imag > 1e-3 * abs(p.real + 1e-30)
                and p.imag > 0]

    def real_poles(self) -> List[float]:
        return [float(p.real) for p in self.poles
                if abs(p.imag) <= 1e-3 * abs(p.real + 1e-30)]

    def dominant_complex_pair(self) -> Optional[complex]:
        """The complex pole pair with the lowest natural frequency."""
        pairs = self.complex_pole_pairs()
        if not pairs:
            return None
        return min(pairs, key=lambda p: abs(p))

    @staticmethod
    def natural_frequency(pole: complex) -> float:
        """Natural frequency (Hz) of a complex pole."""
        return float(abs(pole) / (2.0 * np.pi))

    @staticmethod
    def damping_ratio(pole: complex) -> float:
        """Damping ratio of a complex pole pair."""
        magnitude = abs(pole)
        if magnitude == 0:
            return 1.0
        return float(-pole.real / magnitude)

    def unstable_poles(self) -> List[complex]:
        """Poles in the right half-plane (positive real part)."""
        return [p for p in self.poles if p.real > 0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PoleZeroResult {len(self.poles)} poles>"
