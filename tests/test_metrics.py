import json
from dataclasses import replace

import jsonschema
import pytest

from qobf.metrics import (
    _TABLE_COLUMNS,
    Report,
    ReportError,
    load_schema,
    measure_circuit_run,
    measure_wrap_run,
    parse_report_json,
    render_report,
)
from qobf.passes import ObfuscationConfig, inverse_gates_pass
from qobf.wrapper import SourceBlock, wrap


@pytest.fixture
def bv_reports(bv6):
    out = inverse_gates_pass(bv6, ObfuscationConfig(seed=42, intensity=1.0))
    return [measure_circuit_run(bv6, out, "inverse", input_id="bv6", seed=42)]


class TestMeasureCircuitRun:
    def test_identity_run_zero_deltas(self, qaoa4):
        report = measure_circuit_run(qaoa4, qaoa4, "identity")
        assert report.depth_before == report.depth_after
        assert report.gate_total_before == report.gate_total_after
        assert report.bytes_before == report.bytes_after
        assert report.equivalent is True
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_inverse_pass_grows_depth(self, bv_reports):
        report = bv_reports[0]
        assert report.depth_after > report.depth_before
        assert report.gate_total_after > report.gate_total_before
        assert report.bytes_after > report.bytes_before
        assert report.equivalent is True

    def test_wall_times_populated(self, bv_reports):
        report = bv_reports[0]
        assert report.sim_wall_time_before_us >= 0
        assert report.sim_wall_time_after_us >= 0

    def test_invalid_circuit_rejected(self, bv6):
        from qobf.ir import Circuit, GateApp, GateKind

        broken = Circuit(1, 0, (GateApp(GateKind.CX, (0, 0)),))
        with pytest.raises(ReportError, match="invalid"):
            measure_circuit_run(bv6, broken, "inverse")


class TestMeasureWrapRun:
    def test_bytes_grow(self):
        src = SourceBlock("print('ok')\n")
        emitted, _ = wrap(src, "bell")
        report = measure_wrap_run(src, emitted, input_id="demo")
        assert report.bytes_after > report.bytes_before
        assert report.method == "wrap"

    def test_larger_predicate_larger_output(self):
        src = SourceBlock("print('ok')\n")
        small, _ = wrap(src, "multi_pair", {"n_pairs": 1})
        large, _ = wrap(src, "multi_pair", {"n_pairs": 8})
        a = measure_wrap_run(src, small)
        b = measure_wrap_run(src, large)
        assert b.bytes_after > a.bytes_after

    def test_deterministic_given_inputs(self):
        src = SourceBlock("print('ok')\n")
        emitted, _ = wrap(src, "bell")
        emitted2, _ = wrap(src, "bell")
        assert emitted == emitted2


class TestRendering:
    def test_json_round_trip(self, bv_reports):
        text = render_report(bv_reports, "json")
        again = parse_report_json(text)
        assert again == bv_reports

    def test_json_validates_against_schema(self, bv_reports):
        src = SourceBlock("x = 1\n")
        emitted, _ = wrap(src, "bell")
        reports = bv_reports + [measure_wrap_run(src, emitted)]
        jsonschema.validate(json.loads(render_report(reports, "json")), load_schema())

    def test_empty_list(self):
        assert json.loads(render_report([], "json")) == []

    def test_table_one_row_per_report(self, bv_reports):
        text = render_report(bv_reports * 3, "table")
        lines = text.splitlines()
        assert len(lines) == 2 + 3  # header + rule + rows

    @pytest.mark.parametrize("input_id", ["a_rather_long_fixture_name.qasm", "../long/circuit.qasm"])
    def test_table_wide_cell_keeps_a_blank(self, bv_reports, input_id):
        fits = bv_reports[0]
        wide = replace(fits, input_id=input_id)
        _, _, fit_row, wide_row = render_report([fits, wide], "table").splitlines()
        # a row whose cells fit is each cell padded to its column's width
        assert fit_row == "".join(
            str(getattr(fits, name)).ljust(width) for name, width in _TABLE_COLUMNS
        )
        assert wide_row.split() == [str(getattr(wide, name)) for name, _ in _TABLE_COLUMNS]

    def test_unknown_format(self):
        with pytest.raises(ReportError, match="unknown report format"):
            render_report([], "yaml")

    def test_report_from_dict_rejects_bad_schema(self):
        with pytest.raises(ReportError):
            Report.from_dict({"schema": "nope"})
