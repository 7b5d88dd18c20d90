"""Tests of the ``python -m repro`` command-line front end."""

from __future__ import annotations

import json

import pytest

from repro.engine.cli import main


class TestBackendsCommand:
    def test_lists_stock_backends(self, capsys):
        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        for name in (
            "instantiable",
            "pwc-dense",
            "fastcap",
            "galerkin-shared",
            "galerkin-distributed",
            "galerkin-aca",
            "frw",
        ):
            assert name in output

    def test_json_output(self, capsys):
        assert main(["backends", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["name"] for e in entries} >= {"instantiable", "pwc-dense", "fastcap"}
        assert all(e["description"] for e in entries)


class TestExtractCommand:
    def test_extract_json(self, capsys):
        code = main([
            "extract",
            "--backend", "pwc-dense",
            "--option", "cells_per_edge=2",
            "--generator", "crossing_wires",
            "--generator-arg", "separation=5e-7",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "pwc-dense"
        assert payload["conductors"] == ["source", "target"]
        assert payload["num_unknowns"] > 0

    def test_extract_text(self, capsys):
        assert main(["extract", "--backend", "instantiable"]) == 0
        output = capsys.readouterr().out
        assert "Capacitance matrix" in output
        assert "instantiable" in output

    def test_unknown_generator_rejected(self):
        with pytest.raises(SystemExit):
            main(["extract", "--generator", "flux_capacitor"])


class TestCommandSet:
    def test_help_lists_exactly_the_engine_verbs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        verbs = output.split("{", 1)[1].split("}", 1)[0].split(",")
        assert verbs == ["backends", "extract", "workloads", "accuracy", "serve"]

    @pytest.mark.parametrize("verb", ["backends", "extract", "workloads", "accuracy", "serve"])
    def test_each_verb_has_help(self, verb, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "--help"])
        assert excinfo.value.code == 0
        assert f"repro {verb}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "verb", ["bench", "scale", "kernel", "solver", "frw", "loadtest", "profile"]
    )
    def test_benchmark_verbs_are_gone(self, verb, capsys):
        # Performance is measured by perfbench/run.py, not by the CLI.
        with pytest.raises(SystemExit) as excinfo:
            main([verb])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
