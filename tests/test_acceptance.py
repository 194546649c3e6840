"""Acceptance suite: every criterion asserted at its stated tolerance, one
printed pass/fail line per criterion (run with ``pytest -s`` to see them).

The heavy pass-soundness sweep (4 passes x 3 fixtures x 100 seeds) is computed
once and shared by the criteria that consume its outputs.
"""

import functools
import json
import random
import time
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qobf.fixtures import standard_fixtures
from qobf.ir import (
    Circuit,
    GateApp,
    GateKind,
    depth,
    flatten,
    gate_count,
    same_gates,
)
from qobf.metrics import load_schema, measure_circuit_run, parse_report_json, render_report
from qobf.passes import (
    AUXILIARY_SEQUENCE,
    INVERSE_PAIRS,
    METHODS,
    ObfuscationConfig,
    PassWarning,
    RESTORE_SEQUENCE,
    apply_pass,
    default_verified_rules,
    effective_unitary,
    load_ruleset,
    undo,
    verify_ruleset,
)
from qobf.predicates import (
    bell_predicate,
    branch_predicate,
    key_marginal,
    multi_pair_predicate,
    shroud_predicate,
)
from qobf.qasm import emit, parse
from qobf.sim import equivalent, gate_matrix, measure_distribution, simulate, unitary_of
from qobf.wrapper import SourceBlock, extract_branch_body, extract_payload, resolve_branches, wrap
import qobf.cli
from qobf.cli import main as cli_main
from strategies import random_circuit

K = GateKind
SWEEP_SEEDS = range(1, 101)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@functools.lru_cache(maxsize=1)
def pass_sweep() -> list[tuple[str, str, int, Circuit, Circuit]]:
    """(fixture, method, seed, input, output) for the full soundness sweep."""
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PassWarning)
        for name, circuit in standard_fixtures().items():
            for method in METHODS:
                for seed in SWEEP_SEEDS:
                    cfg = ObfuscationConfig(seed=seed, intensity=0.5)
                    records.append(
                        (name, method, seed, circuit, apply_pass(method, circuit, cfg))
                    )
    return records


def test_criterion_01_identity_sequences():
    start = time.perf_counter()
    worst = 0.0
    for pair in INVERSE_PAIRS:
        u = effective_unitary(pair)
        worst = max(worst, float(np.max(np.abs(u - np.eye(len(u))))))
    combined = [GateApp(k, s) for k, s in AUXILIARY_SEQUENCE.gates + RESTORE_SEQUENCE.gates]
    u = unitary_of(combined, n_qubits=1)
    worst = max(worst, float(np.max(np.abs(u - np.eye(2)))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "identity sequences",
        worst <= 1e-12 and elapsed < 1.0,
        f"max deviation {worst:.2e}, {elapsed:.3f}s",
    )


def test_criterion_02_hzh_and_phase():
    h, z, x = gate_matrix(K.H), gate_matrix(K.Z), gate_matrix(K.X)
    hzh_dev = float(np.max(np.abs(h @ z @ h - x)))
    report = default_verified_rules()
    zhzhz = next(r for r in report.accepted if r.replacement.name == "z-h-z-h-z")
    phase_ok = abs(zhzhz.phase_factor - (-1.0)) <= 1e-9
    _report(
        2,
        "HZH identity and ZHZHZ phase",
        hzh_dev <= 1e-12 and phase_ok,
        f"HZH deviation {hzh_dev:.2e}, phase {zhzhz.phase_factor:.6f}",
    )


def test_criterion_03_ruleset_audit():
    rules = load_ruleset()
    report = verify_ruleset(rules)
    every_entry_judged = len(report.accepted) + len(report.rejected) == len(rules) == 6
    reverified = True
    for rule in report.accepted:
        u = effective_unitary(rule.replacement)
        target = gate_matrix(rule.target)
        reverified &= float(np.max(np.abs(u - rule.phase_factor * target))) <= 1e-10
        reverified &= abs(abs(rule.phase_factor) - 1.0) <= 1e-10
    rejections_documented = all(
        isinstance(r.effective, np.ndarray) and r.effective.shape == (2, 2)
        for r in report.rejected
    ) and len(report.rejected) == 3
    _report(
        3,
        "substitution ruleset audit",
        every_entry_judged and reverified and rejections_documented,
        f"{len(report.accepted)} accepted, {len(report.rejected)} rejected with matrices",
    )


def test_criterion_04_pass_soundness_sweep():
    start = time.perf_counter()
    worst_fidelity = 1.0
    all_ok = True
    for name, method, seed, c_in, c_out in pass_sweep():
        ok, fidelity = equivalent(c_in, c_out, "statevector")
        worst_fidelity = min(worst_fidelity, fidelity)
        if not (ok and fidelity >= 1.0 - 1e-9):
            all_ok = False
            break
        if c_in.n_qubits <= 10:
            ok_u, _ = equivalent(c_in, c_out, "unitary")
            if not ok_u:
                all_ok = False
                break
    elapsed = time.perf_counter() - start
    _report(
        4,
        "pass soundness sweep (4x3x100)",
        all_ok and elapsed < 120.0,
        f"worst fidelity {worst_fidelity:.15f}, {elapsed:.1f}s",
    )


def test_criterion_05_predicate_math():
    ok = True
    detail = []

    bell = bell_predicate()
    dist = measure_distribution(bell.circuit)
    ok &= dist == {"00": 0.5, "11": 0.5}
    ok &= dist.get("01", 0.0) == 0.0 and dist.get("10", 0.0) == 0.0
    detail.append("bell exact")

    for n in range(1, 13):
        p = multi_pair_predicate(n)
        all_ones = measure_distribution(p.circuit).get("1" * (2 * n), 0.0)
        ok &= abs(all_ones - 2.0**-n) <= 1e-12
        if n == 8:
            ok &= abs(all_ones - 1 / 256) <= 1e-12
    detail.append("2^-n for n in 1..12")

    for seed in range(50):
        p = branch_predicate(seed)
        keyed = key_marginal(measure_distribution(p.circuit), (2, 3), (0, 1, 2, 3))
        ok &= set(keyed) == {"11"} and abs(keyed["11"] - 1.0) <= 1e-12
    detail.append("branch marginal 11 over 50 seeds")

    shroud = shroud_predicate()
    amps = simulate(shroud.circuit)
    target = 1 / np.sqrt(2)
    ok &= abs(amps[0] - target) <= 1e-12 and abs(amps[1] - target) <= 1e-12
    detail.append("shroud amplitudes")

    _report(5, "predicate math", bool(ok), "; ".join(detail))


def _acceptance_payloads() -> list[str]:
    rng = random.Random(2024)
    payloads = [
        "x = 1",
        "x = 1\n",
        "\tif True:\n\t\tgo()\n",
        "   leading spaces\n\tthen tab\n",
        "a\n\n\nb\n",
    ]
    while len(payloads) < 20:
        n_lines = rng.randint(1, 200)
        lines = []
        for i in range(n_lines):
            indent = rng.choice(["", " ", "    ", "\t", "\t ", "  \t"])
            body = rng.choice(
                [f"v{i} = {i}", f"call_{i}(a, b)", "# comment", "", f"s = 'txt{i}'   "]
            )
            lines.append(indent + body)
        payloads.append("\n".join(lines) + rng.choice(["", "\n"]))
    return payloads


def test_criterion_06_wrapper_round_trip():
    schema = json.loads(
        (Path(__file__).parent.parent / "src/qobf/data/schemas/wrap_manifest.schema.json")
        .read_text(encoding="utf-8")
    )
    kinds = [("bell", None), ("multi_pair", {"n_pairs": 4}), ("branch", {"seed": 3}), ("shroud", None)]
    ok = True
    for i, payload in enumerate(_acceptance_payloads()):
        kind, params = kinds[i % len(kinds)]
        emitted, manifest = wrap(SourceBlock(payload), kind, params)
        ok &= extract_payload(emitted, manifest) == payload
        if kind == "bell":  # both live branches carry the payload
            for b in manifest.branches:
                if b.role == "live":
                    body = extract_branch_body(emitted, manifest, b.id)
                    expected = payload if payload.endswith("\n") else payload + "\n"
                    ok &= body == expected
        jsonschema.validate(manifest.to_dict(), schema)
        probs = resolve_branches(manifest)
        if kind == "bell":
            ok &= probs == {"bell-00": 0.5, "bell-01": 0.0, "bell-10": 0.0, "bell-11": 0.5}
        elif kind == "multi_pair":
            ok &= probs["pairs-allones"] == 2.0**-4 and probs["pairs-live"] == 1 - 2.0**-4
        elif kind == "branch":
            ok &= probs["superpos-11"] == pytest.approx(1.0, abs=1e-12)
            ok &= all(probs[f"superpos-{k}"] == 0.0 for k in ("00", "01", "10"))
        else:
            ok &= probs == {"shroud-0": 1.0, "shroud-1": 1.0}
    _report(6, "wrapper round trip", bool(ok), "20 payloads, 4 kinds, schema-validated")


def test_criterion_07_provenance_undo():
    ok = True
    for _, _, _, c_in, c_out in pass_sweep():
        restored = undo(c_out)
        if not same_gates(restored, c_in):
            ok = False
            break
    _report(7, "provenance undo", ok, f"{len(pass_sweep())} pass outputs")


def test_criterion_08_frontend_round_trip():
    ok = True
    rng = random.Random(20240817)
    for _ in range(1000):
        c = random_circuit(rng, max_qubits=6, max_gates=14, measure=True, barriers=True)
        result = parse(emit(c))
        ok &= result.ok and same_gates(result.circuit, flatten(c))
    for circuit in standard_fixtures().values():
        text = emit(circuit)
        result = parse(text)
        ok &= result.ok and same_gates(result.circuit, flatten(circuit))
        ok &= emit(result.circuit) == text  # idempotent normal form
    rejects = [
        "OPENQASM 2.0;\nqreg q[1];\ngate foo a { x a; }\n",
        "OPENQASM 2.0;\nqreg q[1];\nopaque box a;\n",
        "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == 0) x q[0];\n",
        "OPENQASM 2.0;\nqreg q[2];\nh q;\n",
        "OPENQASM 3.0;\nqubit[2] q;\n",
        "OPENQASM 2.0;\nqreg q[1];\nrx(0.5) q[0];\n",
        "OPENQASM 2.0;\nqreg q[1];\nh q[4];\n",
    ]
    for source in rejects:
        result = parse(source)
        errors = [d for d in result.diagnostics if d.is_error]
        ok &= result.circuit is None and bool(errors)
        ok &= all(d.span is not None for d in errors)
    _report(8, "frontend round trip and rejection", bool(ok), "1000 random + fixtures + rejects")


def test_criterion_09_overhead_direction():
    ok = True
    details = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PassWarning)
        for name, circuit in standard_fixtures().items():
            for method in METHODS:
                cfg = ObfuscationConfig(seed=2, intensity=1.0)
                out = apply_pass(method, circuit, cfg)
                grew_depth = depth(out) > depth(circuit)
                grew_total = gate_count(out).total > gate_count(circuit).total
                if not (grew_depth and grew_total):
                    ok = False
                    details.append(f"{name}/{method} not strict")
    report = measure_circuit_run(
        standard_fixtures()["bv6"],
        apply_pass("inverse", standard_fixtures()["bv6"], ObfuscationConfig(seed=2)),
        "inverse",
        input_id="bv6",
        seed=2,
    )
    text = render_report([report], "json")
    ok &= parse_report_json(text) == [report]
    jsonschema.validate(json.loads(text), load_schema())
    _report(9, "overhead direction and report round trip", bool(ok), "; ".join(details) or "strict at intensity 1")


def test_criterion_10_cli_end_to_end(tmp_path, monkeypatch):
    ok = True
    for name, circuit in standard_fixtures().items():
        src = tmp_path / f"{name}.qasm"
        src.write_text(emit(circuit), encoding="utf-8")
        for method in METHODS:
            out = tmp_path / f"{name}.{method}.qasm"
            rc = cli_main(
                ["obfuscate", "--method", method, "--seed", "3", str(src), "-o", str(out)]
            )
            ok &= rc == 0
            ok &= cli_main(["verify", str(src), str(out)]) == 0

    def corrupting_pass(method, circuit, cfg, ruleset=None):
        out = apply_pass(method, circuit, cfg, ruleset)
        return out.with_gates(out.gates + (GateApp(GateKind.X, (0,), window=-1),))

    monkeypatch.setattr(qobf.cli, "apply_pass", corrupting_pass)
    rc = cli_main(
        [
            "obfuscate", "--method", "inverse",
            str(tmp_path / "bv6.qasm"), "-o", str(tmp_path / "corrupt.qasm"),
        ]
    )
    ok &= rc == 3 and not (tmp_path / "corrupt.qasm").exists()
    _report(10, "CLI end-to-end with soundness gate", bool(ok), "12 pipelines + corrupted pass")
