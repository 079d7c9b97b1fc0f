"""Tests for the command-line interface and result export."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.experiments import figures as F
from repro.experiments.export import read_json, result_to_records, write_csv, write_json
from repro.experiments.figures import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.coflow.instance import TransmissionModel


@pytest.fixture(scope="module")
def tiny_result():
    config = ExperimentConfig(
        experiment_id="tiny-export",
        title="tiny export experiment",
        topology="swan",
        model=TransmissionModel.FREE_PATH,
        workloads=("FB",),
        series=(F.SERIES_LP_BOUND, F.SERIES_HEURISTIC),
        num_coflows=3,
        seed=13,
    )
    return run_experiment(config)


class TestExport:
    def test_records_flatten_all_values(self, tiny_result):
        records = result_to_records(tiny_result)
        assert len(records) == sum(len(v) for v in tiny_result.values.values())
        assert {r["workload"] for r in records} == {"FB"}
        assert all(r["experiment_id"] == "tiny-export" for r in records)

    def test_write_csv(self, tiny_result, tmp_path):
        path = tmp_path / "out.csv"
        rows = write_csv([tiny_result], path)
        content = path.read_text().splitlines()
        assert content[0].startswith("experiment_id,")
        assert len(content) == rows + 1

    def test_write_and_read_json(self, tiny_result, tmp_path):
        path = tmp_path / "out.json"
        write_json([tiny_result], path)
        loaded = read_json(path)
        assert loaded[0]["experiment_id"] == "tiny-export"
        assert "FB" in loaded[0]["values"]
        assert loaded[0]["values"]["FB"][F.SERIES_LP_BOUND] > 0


class TestCliParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_generate(self):
        args = build_parser().parse_args(
            ["generate", "out.json", "--workload", "FB", "--num-coflows", "5"]
        )
        assert args.command == "generate"
        assert args.num_coflows == 5

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "t.json", "--strategy", "refine"],
            ["solve", "t.json", "--backend", "auto"],
            ["batch", "t.json", "--strategy", "direct"],
        ],
    )
    def test_rejects_removed_lp_solve_flags(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


    @pytest.mark.parametrize(
        "argv",
        [
            ["scenarios"],
            ["scenarios", "run", "spec.json"],
            ["scenarios", "list"],
        ],
    )
    def test_scenarios_takes_only_convert_fb(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_scenarios_help_lists_only_convert_fb(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["scenarios", "--help"])
        assert excinfo.value.code == 0
        assert "{convert-fb}" in capsys.readouterr().out


class TestCliCommands:
    def test_topologies_lists_both_wans(self):
        out = io.StringIO()
        assert main(["topologies"], out=out) == 0
        text = out.getvalue()
        assert "swan" in text and "gscale" in text

    def test_generate_then_solve_round_trip(self, tmp_path):
        trace = tmp_path / "trace.json"
        out = io.StringIO()
        code = main(
            [
                "generate",
                str(trace),
                "--workload",
                "FB",
                "--num-coflows",
                "3",
                "--seed",
                "1",
            ],
            out=out,
        )
        assert code == 0
        assert trace.exists()
        payload = json.loads(trace.read_text())
        assert len(payload["coflows"]) == 3

        out = io.StringIO()
        code = main(["solve", str(trace), "--algorithm", "lp-heuristic"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "LP lower bound" in text
        assert "gap to bound" in text
        assert re.search(r"LP solve\s+: \d+ of \d+ slots, \d+ rounds, [\d.]+s", text)

    def test_generate_single_path_model(self, tmp_path):
        trace = tmp_path / "sp.json"
        out = io.StringIO()
        assert (
            main(
                [
                    "generate",
                    str(trace),
                    "--model",
                    "single_path",
                    "--num-coflows",
                    "3",
                    "--seed",
                    "2",
                ],
                out=out,
            )
            == 0
        )
        payload = json.loads(trace.read_text())
        assert payload["model"] == "single_path"
        for coflow in payload["coflows"]:
            for flow in coflow["flows"]:
                assert flow["path"] is not None

    def test_solve_stretch_algorithm(self, tmp_path):
        trace = tmp_path / "trace.json"
        main(["generate", str(trace), "--num-coflows", "2", "--seed", "3"], out=io.StringIO())
        out = io.StringIO()
        code = main(
            ["solve", str(trace), "--algorithm", "stretch-best", "--num-samples", "3"],
            out=out,
        )
        assert code == 0
        assert "stretch-best" in out.getvalue()


class TestClosedStdout:
    """A reader that goes away (``repro algorithms | head -1``) ends the
    command with exit code 1 and no traceback."""

    @pytest.mark.parametrize(
        "command", [["algorithms"], ["verify", "--list-families"]]
    )
    def test_no_traceback_when_stdout_is_closed(self, command):
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *command],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # Closed before the child has even imported repro, so its first
        # write finds no reader.
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in stderr, stderr
