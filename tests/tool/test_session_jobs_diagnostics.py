"""Tests for the session and diagnostics layers."""

import json
import os

import pytest

from repro.analysis import FrequencySweep
from repro.circuits import parallel_rlc_for
from repro.exceptions import ToolError
from repro.tool import (
    DiagnosticLog,
    SessionState,
    SimulationEnvironment,
)


class TestSimulationEnvironment:
    def test_variables_and_import(self):
        env = SimulationEnvironment(design_variables={"cload": 1e-9})
        design = parallel_rlc_for(1e6, 0.3)
        design.circuit.set_variable("cload", 5e-9)    # session value wins
        design.circuit.set_variable("extra", 2.0)
        imported = env.import_variables_from(design.circuit)
        assert imported == {"extra": 2.0}
        assert env.design_variables["cload"] == 1e-9

    def test_result_directory_lifecycle(self, tmp_path):
        env = SimulationEnvironment(name="run", result_root=str(tmp_path))
        directory = env.result_directory()
        assert os.path.isdir(directory) and "run_" in os.path.basename(directory)
        # Explicit directory + restore (the tool's save/restore feature).
        env.use_result_directory(str(tmp_path / "explicit"))
        assert env.result_directory(create=False).endswith("explicit")
        env.restore_result_directory()
        assert env.result_directory(create=False) == directory

    def test_state_round_trip(self, tmp_path):
        env = SimulationEnvironment(name="roundtrip", temperature=85.0,
                                    sweep=FrequencySweep(1e2, 1e8, 25),
                                    design_variables={"rzero": 130.0})
        env.add_model_file("models/bjt.lib")
        path = str(tmp_path / "state.json")
        env.save_state(path)
        restored = SimulationEnvironment.load_state(path)
        assert restored.name == "roundtrip"
        assert restored.temperature == 85.0
        assert restored.design_variables == {"rzero": 130.0}
        assert restored.sweep.start == pytest.approx(1e2)
        assert restored.model_files == ["models/bjt.lib"]

    def test_state_is_valid_json(self, tmp_path):
        env = SimulationEnvironment()
        path = str(tmp_path / "state.json")
        env.save_state(path)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert "temperature" in data and "design_variables" in data

    def test_load_missing_state(self, tmp_path):
        with pytest.raises(ToolError):
            SimulationEnvironment.load_state(str(tmp_path / "missing.json"))

    def test_full_state_round_trip_with_gmin_and_result_directory(self, tmp_path):
        # The sevSaveState analogue must restore *everything* the next
        # session needs: conditions, variables, models and the active
        # result directory.
        env = SimulationEnvironment(name="full", temperature=-40.0, gmin=1e-10,
                                    sweep=FrequencySweep(10.0, 1e7, 15),
                                    design_variables={"cload": 2e-12, "rz": 50.0})
        env.add_model_file("models/a.lib")
        env.use_result_directory(str(tmp_path / "explicit_dir"))
        path = str(tmp_path / "state.json")
        env.save_state(path)
        restored = SimulationEnvironment.load_state(path)
        assert restored.gmin == pytest.approx(1e-10)
        assert restored.temperature == -40.0
        assert restored.design_variables == {"cload": 2e-12, "rz": 50.0}
        assert restored.sweep.stop == pytest.approx(1e7)
        assert restored.sweep.points_per_decade == 15
        assert restored.result_directory(create=False).endswith("explicit_dir")
        # Saving the restored state reproduces the original byte-for-byte
        # (modulo the creation timestamp).
        first = env.state().to_json()
        second = restored.state().to_json()
        strip = lambda text: "\n".join(line for line in text.splitlines()
                                       if '"created"' not in line)
        assert strip(first) == strip(second)

    def test_session_state_ignores_unknown_fields(self):
        state = SessionState.from_json(json.dumps({
            "name": "x", "temperature": 27.0, "gmin": 1e-12,
            "sweep_start": 1.0, "sweep_stop": 1e9, "sweep_points_per_decade": 10,
            "future_field": 123,
        }))
        assert state.name == "x"


class TestDiagnostics:
    def test_records_and_severities(self):
        log = DiagnosticLog()
        log.info("setup", "starting")
        log.warning("simulation", "node skipped", node="x1")
        assert not log.has_errors
        log.error("simulation", "failed", exception=ValueError("bad"))
        assert log.has_errors and len(log.errors()) == 1
        text = log.format()
        assert "[ERROR]" in text and "node skipped" in text and "ValueError" in text

    def test_notifier_callback(self):
        log = DiagnosticLog()
        received = []
        log.add_notifier(received.append)
        log.info("stage", "hello")
        assert len(received) == 1 and received[0].message == "hello"

    def test_broken_notifier_does_not_break_logging(self):
        log = DiagnosticLog()
        log.add_notifier(lambda record: 1 / 0)
        log.info("stage", "still fine")
        assert len(log.records) == 1

    def test_write_to_directory(self, tmp_path):
        log = DiagnosticLog()
        log.error("run", "problem", reason="testing")
        path = log.write(str(tmp_path))
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data[0]["severity"] == "error"
        assert data[0]["details"]["reason"] == "testing"

    def test_empty_log_format(self):
        assert "no diagnostics" in DiagnosticLog().format()
