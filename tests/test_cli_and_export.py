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
from repro.network.topologies import TOPOLOGY_NAMES, swan_topology
from repro.workloads.generator import WorkloadSpec, generate_instance
from repro.workloads.traces import save_trace


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
            ["verify", "--store", "s"],
            ["experiment", "fig06", "--store", "s"],
            ["sweep", "s.json", "--shards", "2"],
            ["sweep", "s.json", "--max-chunks", "1"],
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

    @pytest.mark.parametrize("command", ["solve", "batch"])
    @pytest.mark.parametrize(
        "content",
        [None, '{"coflows": []}', "[1, 2]", "not json"],
        ids=["missing", "no-graph", "list", "not-json"],
    )
    def test_bad_trace_is_an_error_not_a_traceback(
        self, tmp_path, capsys, command, content
    ):
        trace = tmp_path / "trace.json"
        if content is not None:
            trace.write_text(content)
        assert main([command, str(trace)], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: could not load trace {trace}: ")
        assert "Traceback" not in err

    def test_enveloped_instance_file_solves_like_the_bare_one(self, tmp_path):
        # save_trace wraps the instance in {"kind": "instance", "data": ...}.
        spec = WorkloadSpec(profile="FB", num_coflows=3, seed=1)
        instance = generate_instance(swan_topology(), spec, rng=1)
        bare, enveloped = tmp_path / "bare.json", tmp_path / "enveloped.json"
        instance.save_json(bare)
        save_trace(instance, enveloped)
        outputs = []
        for path in (bare, enveloped):
            out = io.StringIO()
            assert main(["solve", str(path), "--algorithm", "fifo"], out=out) == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["solve", "batch"])
    def test_coflow_only_trace_is_an_error(self, tmp_path, capsys, command):
        # What `repro scenarios convert-fb` writes: coflows, no network.
        spec = WorkloadSpec(profile="FB", num_coflows=2, seed=1)
        trace = tmp_path / "coflows.json"
        save_trace(list(generate_instance(swan_topology(), spec, rng=1).coflows), trace)
        assert main([command, str(trace)], out=io.StringIO()) == 2
        assert capsys.readouterr().err == (
            f"error: {trace}: a coflow-only trace has no network to schedule "
            "on (`repro online` replays one onto SWAN)\n"
        )

    @pytest.mark.parametrize("command", ["solve", "batch"])
    def test_missing_field_names_the_file_once(self, tmp_path, capsys, command):
        trace = tmp_path / "trace.json"
        trace.write_text('{"kind": "instance", "data": {"coflows": []}}')
        assert main([command, str(trace)], out=io.StringIO()) == 2
        assert capsys.readouterr().err == f"error: {trace}: missing field 'graph'\n"

    def test_every_listed_topology_generates(self, tmp_path):
        out = io.StringIO()
        assert main(["topologies"], out=out) == 0
        names = [line.split()[0] for line in out.getvalue().splitlines()]
        assert "fat-tree" in names and "fat-tree-oversubscribed" in names
        for name in names:
            trace = tmp_path / f"{name}.json"
            argv = ["generate", str(trace), "--topology", name, "--num-coflows", "2"]
            assert main(argv, out=io.StringIO()) == 0, name
            assert trace.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["generate", "{out}", "--topology", "star"],
                "unknown topology 'star'; expected one of "
                + ", ".join(repr(name) for name in TOPOLOGY_NAMES),
            ),
            (["generate", "{out}", "--num-coflows", "0"], None),
            (["generate", "{out}", "--demand-scale", "-1"], None),
            (["experiment", "fig06", "--scale", "0"], None),
        ],
        ids=["unknown-topology", "no-coflows", "negative-demand-scale", "zero-scale"],
    )
    def test_bad_knob_is_an_error_not_a_traceback(
        self, tmp_path, capsys, argv, message
    ):
        trace = tmp_path / "trace.json"
        argv = [arg.format(out=trace) for arg in argv]
        assert main(argv, out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not trace.exists()
        if message is not None:
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "content", [None, "[1, 2]", "not json"], ids=["missing", "list", "not-json"]
    )
    def test_online_bad_trace_is_an_error_not_a_traceback(
        self, tmp_path, capsys, content
    ):
        trace = tmp_path / "trace.json"
        if content is not None:
            trace.write_text(content)
        argv = ["online", str(trace), "--policy", "batch"]
        assert main(argv, out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


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
