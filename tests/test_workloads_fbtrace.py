"""Tests for the Facebook trace converter and trace validation.

Covers the ``fbtrace`` parser (line-numbered errors, size/arrival
validation, demand splitting), the ``repro scenarios convert-fb`` command
and the hardened ``traces`` loaders (TraceValidationError row context,
opt-in arrival ordering).
"""

import io
import json

import pytest

from repro.cli import main
from repro.coflow.coflow import Coflow
from repro.coflow.flow import Flow
from repro.network.topologies import swan_topology
from repro.workloads.fbtrace import (
    DEFAULT_TIME_SCALE,
    convert_facebook_trace,
    parse_facebook_trace,
)
from repro.workloads.traces import (
    TraceValidationError,
    load_coflows,
    load_trace,
    replay_trace,
    save_trace,
    validate_trace_order,
)

#: 3 ports, 2 coflows.  Coflow 1: two mappers on racks 1,2 feeding one
#: reducer on rack 3 with 10 MB (-> 2 flows of 5 each).  Coflow 2: one
#: mapper on rack 3 feeding reducers on racks 1 (4 MB) and 2 (6 MB).
VALID_TRACE = """\
3 2
1 0 2 1 2 1 3:10
2 500 1 3 2 1:4 2:6
"""


class TestParseFacebookTrace:
    def test_parses_the_valid_trace(self):
        coflows = parse_facebook_trace(VALID_TRACE)
        assert len(coflows) == 2
        first, second = coflows
        assert [(f.source, f.sink, f.demand) for f in first.flows] == [
            ("m1", "r3", 5.0),
            ("m2", "r3", 5.0),
        ]
        assert [(f.source, f.sink, f.demand) for f in second.flows] == [
            ("m3", "r1", 4.0),
            ("m3", "r2", 6.0),
        ]
        # arrival stamps are milliseconds by default
        assert first.release_time == pytest.approx(0.0)
        assert second.release_time == pytest.approx(500 * DEFAULT_TIME_SCALE)

    def test_demand_and_time_scales(self):
        coflows = parse_facebook_trace(
            VALID_TRACE, demand_scale=2.0, time_scale=1.0
        )
        assert coflows[0].flows[0].demand == pytest.approx(10.0)
        assert coflows[1].release_time == pytest.approx(500.0)

    def test_max_coflows_truncates(self):
        coflows = parse_facebook_trace(VALID_TRACE, max_coflows=1)
        assert len(coflows) == 1

    def test_zero_size_reducers_are_skipped(self):
        text = "1 1\n1 0 1 1 2 1:0 2:8\n"
        (coflow,) = parse_facebook_trace(text)
        assert [(f.sink, f.demand) for f in coflow.flows] == [("r2", 8.0)]

    def test_empty_coflow_is_an_error(self):
        text = "1 1\n1 0 1 1 1 2:0\n"
        with pytest.raises(TraceValidationError, match="line 2: .*no data"):
            parse_facebook_trace(text)

    @pytest.mark.parametrize(
        "row, match",
        [
            ("1 0 2 1 2 1 3:nan", "NaN size"),
            ("1 0 2 1 2 1 3:-4", "finite and >= 0"),
            ("1 0 2 1 2 1 3:inf", "finite and >= 0"),
            ("1 -5 2 1 2 1 3:10", "arrival time"),
            ("1 0 2 1", "row truncated"),
            ("1 0 2 1 2 2 3:10", "promises 2 reducers"),
            ("1 0 2 1 2 1 3", "not of the form rack:size"),
            ("1 0 0 1 3:10", "at least one mapper"),
            ("1 0", "at least 4 fields"),
        ],
    )
    def test_malformed_rows_name_the_line(self, row, match):
        with pytest.raises(TraceValidationError, match=match) as excinfo:
            parse_facebook_trace(f"1 1\n{row}\n")
        assert "line 2" in str(excinfo.value)

    def test_out_of_order_arrivals_rejected(self):
        text = "2 2\n1 500 1 1 1 2:4\n2 100 1 1 1 2:4\n"
        with pytest.raises(TraceValidationError, match="out-of-order arrival"):
            parse_facebook_trace(text)

    def test_header_count_mismatch_rejected(self):
        text = "3 5\n1 0 2 1 2 1 3:10\n"
        with pytest.raises(TraceValidationError, match="declares 5 coflows"):
            parse_facebook_trace(text)

    def test_bad_header_rejected(self):
        with pytest.raises(TraceValidationError, match="header"):
            parse_facebook_trace("oops\n")

    def test_empty_file_rejected(self):
        with pytest.raises(TraceValidationError, match="empty"):
            parse_facebook_trace("\n\n")


class TestConvertFacebookTrace:
    def test_converted_trace_replays(self, tmp_path):
        src = tmp_path / "fb.txt"
        out = tmp_path / "fb.json"
        src.write_text(VALID_TRACE)
        summary = convert_facebook_trace(src, out)
        assert summary["num_coflows"] == 2
        assert summary["num_flows"] == 4
        assert summary["total_demand"] == pytest.approx(20.0)

        coflows = load_coflows(out, require_ordered=True)
        assert len(coflows) == 2
        # foreign m*/r* endpoints remap deterministically onto the target
        instance = replay_trace(out, swan_topology())
        assert instance.num_coflows == 2
        instance.validate()

    def test_cli_convert_fb(self, tmp_path):
        src = tmp_path / "fb.txt"
        out = tmp_path / "converted.json"
        src.write_text(VALID_TRACE)
        printed = io.StringIO()
        code = main(["scenarios", "convert-fb", str(src), str(out)], out=printed)
        assert code == 0
        assert "converted 2 coflows" in printed.getvalue()
        assert len(load_coflows(out)) == 2

    def test_cli_missing_trace_exits_2(self, tmp_path, capsys):
        out = tmp_path / "converted.json"
        missing = str(tmp_path / "missing.txt")
        assert main(["scenarios", "convert-fb", missing, str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_malformed_trace_exits_2_naming_the_line(self, tmp_path, capsys):
        src = tmp_path / "fb.txt"
        out = tmp_path / "converted.json"
        src.write_text("3 2\n1 0 2 1 2 1 3:10\n2 500 1 3 2 1:4\n")
        assert main(["scenarios", "convert-fb", str(src), str(out)]) == 2
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()


class TestTraceValidation:
    def test_malformed_row_names_row_and_file(self, tmp_path):
        path = tmp_path / "bad.json"
        good = Coflow([Flow("a", "b", 1.0)]).to_dict()
        bad = Coflow([Flow("a", "b", 1.0)]).to_dict()
        bad["flows"][0]["demand"] = float("nan")
        path.write_text(json.dumps({"kind": "coflows", "data": [good, bad]}))
        with pytest.raises(TraceValidationError, match="trace row 1"):
            load_trace(path)

    def test_non_object_flow_is_a_malformed_row(self, tmp_path):
        # Flow.from_dict calls data.get: a bare number raised AttributeError.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "coflows", "data": [{"flows": [5]}]}))
        with pytest.raises(TraceValidationError, match="trace row 0"):
            load_trace(path)

    def test_negative_size_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        row = Coflow([Flow("a", "b", 1.0)]).to_dict()
        row["flows"][0]["demand"] = -2.0
        path.write_text(json.dumps({"kind": "coflows", "data": [row]}))
        with pytest.raises(TraceValidationError, match="trace row 0"):
            load_trace(path)

    def test_require_ordered_rejects_decreasing_releases(self, tmp_path):
        path = tmp_path / "unordered.json"
        coflows = [
            Coflow([Flow("a", "b", 1.0)], release_time=5.0),
            Coflow([Flow("a", "b", 1.0)], release_time=1.0),
        ]
        save_trace(coflows, path)
        # unordered traces stay legal by default...
        assert len(load_coflows(path)) == 2
        # ...and fail loudly when ordering is required
        with pytest.raises(TraceValidationError, match="out-of-order release"):
            load_coflows(path, require_ordered=True)

    def test_validate_trace_order_names_the_row(self):
        coflows = [
            Coflow([Flow("a", "b", 1.0)], release_time=2.0),
            Coflow([Flow("a", "b", 1.0)], release_time=1.0),
        ]
        with pytest.raises(TraceValidationError, match="row 1"):
            validate_trace_order(coflows, where="unit-test")
