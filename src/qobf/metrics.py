"""Overhead measurement and reporting.

One Report per obfuscation run: depth, gate counts, emitted byte size, and
simulated wall time before/after, plus the oracle's equivalence verdict.
Absolute overhead magnitudes are environment-bound, so consumers should rely
on signs and deltas; see the README for typical reference figures.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import KW_ONLY, asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .ir import Circuit, depth, gate_count, validate
from .qasm import emit
from .miter import equivalent
from .sim import simulate, strip_measures

if TYPE_CHECKING:  # an annotation only, so reports do not load the wrapper
    from .wrapper import SourceBlock

REPORT_SCHEMA = "qobf.report/1"
TIMING_RUNS = 5


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class Report:
    # field order is the JSON key order of to_dict
    method: str
    input_id: str
    _: KW_ONLY
    depth_before: int | None = None
    depth_after: int | None = None
    gate_counts_before: dict[str, int] | None = None
    gate_counts_after: dict[str, int] | None = None
    gate_total_before: int | None = None
    gate_total_after: int | None = None
    bytes_before: int
    bytes_after: int
    sim_wall_time_before_us: int | None = None
    sim_wall_time_after_us: int | None = None
    equivalent: bool | None = None
    fidelity: float | None = None
    timestamp: str = ""
    tool_version: str = __version__
    seed: int | None = None

    def to_dict(self) -> dict:
        return {"schema": REPORT_SCHEMA, **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        if data.get("schema") != REPORT_SCHEMA:
            raise ReportError(f"unsupported report schema {data.get('schema')!r}")
        fields = dict(data)
        fields.pop("schema")
        return cls(**fields)


def _median_sim_us(circuit: Circuit) -> int:
    bare = strip_measures(circuit)
    samples = []
    for _ in range(TIMING_RUNS):
        t0 = time.perf_counter_ns()
        simulate(bare)
        samples.append(time.perf_counter_ns() - t0)
    return int(statistics.median(samples) // 1000)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def measure_circuit_run(
    c_in: Circuit, c_out: Circuit, method: str, input_id: str = "", seed: int | None = None,
    *, _checked: tuple[str, ...] = (),
) -> Report:
    """Full before/after record for one circuit pass, equivalence included.

    Wall time is the median of 5 simulator runs from |0...0| on each circuit.
    An invalid circuit raises ReportError; ``_checked`` names the circuits,
    "input" or "output", that the caller has already validated.
    """
    for name, c in (("input", c_in), ("output", c_out)):
        if name in _checked:
            continue
        problems = [d for d in validate(c) if d.is_error]
        if problems:
            raise ReportError(f"{name} circuit invalid: {problems[0].message}")
    counts_in = gate_count(c_in)
    counts_out = gate_count(c_out)
    ok, fidelity = equivalent(c_in, c_out, "statevector")
    return Report(
        method=method,
        input_id=input_id,
        depth_before=depth(c_in),
        depth_after=depth(c_out),
        gate_counts_before={k.value: v for k, v in counts_in.counts.items()},
        gate_counts_after={k.value: v for k, v in counts_out.counts.items()},
        gate_total_before=counts_in.total,
        gate_total_after=counts_out.total,
        bytes_before=len(emit(c_in, _checked=True).encode("utf-8")),
        bytes_after=len(emit(c_out, _checked=True).encode("utf-8")),
        sim_wall_time_before_us=_median_sim_us(c_in),
        sim_wall_time_after_us=_median_sim_us(c_out),
        equivalent=ok,
        fidelity=fidelity,
        timestamp=_now(),
        seed=seed,
    )


def measure_wrap_run(src: SourceBlock, emitted: str, input_id: str = "",
                     method: str = "wrap") -> Report:
    """Byte-size record for one control-flow wrap (payload vs. emitted program)."""
    return Report(
        method=method,
        input_id=input_id,
        bytes_before=len(src.text.encode("utf-8")),
        bytes_after=len(emitted.encode("utf-8")),
        timestamp=_now(),
    )


_TABLE_COLUMNS = (
    ("method", 11),
    ("input_id", 18),
    ("depth_before", 14),
    ("depth_after", 13),
    ("gate_total_before", 19),
    ("gate_total_after", 18),
    ("bytes_before", 14),
    ("bytes_after", 13),
    ("equivalent", 11),
)


def render_report(reports: Sequence[Report], format: str = "json") -> str:
    """Serialize reports: stable JSON (see data/schemas/report.schema.json) or
    a human-readable fixed-width table with one row per report."""
    if format == "json":
        return json.dumps([r.to_dict() for r in reports], indent=2)
    if format == "table":
        header = "".join(name.ljust(width) for name, width in _TABLE_COLUMNS)
        rows = [header, "-" * len(header)]
        for r in reports:
            row = ""
            for name, width in _TABLE_COLUMNS:
                value = getattr(r, name)
                # at least one blank after every cell, however wide
                row += str(value if value is not None else "-").ljust(width - 1) + " "
            rows.append(row)
        return "\n".join(rows)
    raise ReportError(f"unknown report format {format!r}")


def parse_report_json(text: str) -> list[Report]:
    return [Report.from_dict(item) for item in json.loads(text)]


def load_schema() -> dict:
    path = Path(__file__).parent / "data" / "schemas" / "report.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))
