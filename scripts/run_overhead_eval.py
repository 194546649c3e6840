#!/usr/bin/env python3
"""Overhead evaluation over the three benchmark circuits.

Applies each of the four circuit obfuscation passes to the Bernstein-Vazirani,
ring-QAOA and toy period-finding fixtures across a seed sweep, then prints a
table of median depth/gate/byte/time overheads plus the equivalence verdict of
every single run. Also wraps a demo payload with each control-flow predicate
and reports emitted-program size growth.

Usage: python scripts/run_overhead_eval.py [--seeds N] [--intensity X] [--json PATH]
"""

import argparse
import json
import statistics
import sys
import warnings
from pathlib import Path

from qobf import (
    ObfuscationConfig,
    SourceBlock,
    apply_pass,
    depth,
    emit,
    equivalent,
    gate_count,
    wrap,
)
from qobf.fixtures import standard_fixtures
from qobf.metrics import measure_circuit_run, measure_wrap_run, render_report
from qobf.passes import METHODS, PassWarning

DEMO_PAYLOAD = """\
secret = 0x5eed
for round in range(16):
    secret = (secret * 31 + round) % 65521
print(secret)
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20, help="seeds per pass/fixture pair")
    parser.add_argument("--intensity", type=float, default=1.0)
    parser.add_argument("--json", type=Path, help="also dump all reports as JSON here")
    args = parser.parse_args()

    fixtures = standard_fixtures()
    all_reports = []
    print(f"circuit passes: {args.seeds} seeds each, intensity {args.intensity}\n")
    header = f"{'fixture':<12}{'method':<11}{'depth':<14}{'gates':<14}{'bytes':<16}{'sim time':<14}{'equiv'}"
    print(header)
    print("-" * len(header))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PassWarning)
        for name, circuit in fixtures.items():
            for method in METHODS:
                reports = []
                for seed in range(args.seeds):
                    cfg = ObfuscationConfig(seed=seed, intensity=args.intensity)
                    out = apply_pass(method, circuit, cfg)
                    reports.append(
                        measure_circuit_run(circuit, out, method, input_id=name, seed=seed)
                    )
                all_reports.extend(reports)
                med = lambda field: statistics.median(getattr(r, field) for r in reports)
                time_ratio = med("sim_wall_time_after_us") / max(1, med("sim_wall_time_before_us"))
                print(
                    f"{name:<12}{method:<11}"
                    f"{reports[0].depth_before}->{med('depth_after'):<10.0f}"
                    f"{reports[0].gate_total_before}->{med('gate_total_after'):<10.0f}"
                    f"{reports[0].bytes_before}->{med('bytes_after'):<10.0f}"
                    f"x{time_ratio:<12.2f}"
                    f"{all(r.equivalent for r in reports)}"
                )

    print("\ncontrol-flow wrapping of a demo payload:\n")
    src = SourceBlock(DEMO_PAYLOAD)
    for kind, params in [
        ("bell", None),
        ("multi_pair", {"n_pairs": 8}),
        ("branch", {"seed": 1}),
        ("shroud", None),
    ]:
        emitted, manifest = wrap(src, kind, params)
        report = measure_wrap_run(src, emitted, input_id=kind)
        all_reports.append(report)
        growth = report.bytes_after - report.bytes_before
        print(
            f"{kind:<12}{report.bytes_before} -> {report.bytes_after} bytes"
            f" (+{growth}), {len(manifest.branches)} branches"
        )

    if args.json:
        args.json.write_text(render_report(all_reports, "json") + "\n", encoding="utf-8")
        print(f"\nwrote {len(all_reports)} reports to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
