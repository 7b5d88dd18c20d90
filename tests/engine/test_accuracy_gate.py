"""Unit tests of the CI accuracy gate (``benchmarks/check_accuracy.py``)
and its step-summary helpers."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load("check_accuracy")


def _payload(within: bool = True, failures: list[str] | None = None) -> dict:
    error = 0.05 if within else 0.5
    if failures is None:
        failures = [] if within else ["crossing_wires/pwc-dense: exceeds"]
    return {
        "quick": True,
        "backends": ["pwc-dense"],
        "num_workloads": 1,
        "workloads": {
            "crossing_wires": {
                "backends": {
                    "pwc-dense": {
                        "frobenius_relative_error": error,
                        "tolerance": 0.12,
                        "within_tolerance": within,
                    }
                }
            }
        },
        "failures": failures,
        "worst": {
            "workload": "crossing_wires",
            "backend": "pwc-dense",
            "frobenius_relative_error": error,
            "tolerance": 0.12,
        },
        "all_within_tolerance": within,
    }


class TestCollectRows:
    def test_rows_and_failures(self):
        rows, failures = gate.collect_rows(_payload(within=False))
        assert len(rows) == 1
        assert rows[0][0] == "crossing_wires"
        assert "FAIL" in rows[0][-1]
        assert failures

    def test_missing_metrics_render_as_dash(self):
        payload = _payload()
        payload["workloads"]["crossing_wires"]["backends"]["pwc-dense"] = {
            "tolerance": 0.12,
            "within_tolerance": False,
            "error": "backend exploded",
        }
        rows, _ = gate.collect_rows(payload)
        assert rows[0][2] == "-"


class TestMain:
    @pytest.fixture(autouse=True)
    def _clear_escape_hatch(self, monkeypatch):
        monkeypatch.delenv("ACCURACY_GATE_SKIP", raising=False)
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)

    def _run(self, tmp_path, payload) -> int:
        report = tmp_path / "BENCH_accuracy.json"
        report.write_text(json.dumps(payload))
        return gate.main(["--report", str(report)])

    def test_green_path(self, tmp_path, capsys):
        assert self._run(tmp_path, _payload(within=True)) == 0
        assert "passed" in capsys.readouterr().out

    def test_out_of_tolerance_fails(self, tmp_path, capsys):
        assert self._run(tmp_path, _payload(within=False)) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "skip-accuracy-gate" in out

    def test_escape_hatch_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ACCURACY_GATE_SKIP", "1")
        assert self._run(tmp_path, _payload(within=False)) == 0
        assert "skipped" in capsys.readouterr().out

    def test_missing_report_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            gate.main(["--report", str(tmp_path / "nope.json")])

    def test_step_summary_written(self, tmp_path, monkeypatch):
        target = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(target))
        assert self._run(tmp_path, _payload(within=False)) == 1
        content = target.read_text()
        assert "## Accuracy gate" in content
        assert "| workload | backend |" in content
        assert "FAILED" in content


class TestGateSummary:
    def test_markdown_table_shape(self):
        lines = gate.markdown_table(["a", "b"], [["1", "2"], ["3", "4"]])
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert lines[2:] == ["| 1 | 2 |", "| 3 | 4 |"]

    def test_append_is_noop_outside_ci(self, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        assert gate.append_step_summary(["## x"]) is False

    def test_append_accumulates(self, tmp_path, monkeypatch):
        target = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(target))
        assert gate.append_step_summary(["## first"]) is True
        assert gate.append_step_summary(["## second"]) is True
        content = target.read_text()
        assert "## first" in content and "## second" in content
