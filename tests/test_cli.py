import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import qobf.cli
import qobf.passes
import qobf.sim
from qobf.cli import main
from qobf.exact import identity_phase
from qobf.fixtures import standard_fixtures
from qobf.ir import _INVERSE, ARITY, UNITARY_KINDS, GateApp, GateKind
from qobf.miter import reduced_miter
from qobf.passes import METHODS, apply_pass
from qobf.qasm import emit, parse
from qobf.sim import equivalent, measure_distribution, strip_measures
from strategies import random_circuit


@pytest.fixture
def qasm_dir(tmp_path):
    for name, circuit in standard_fixtures().items():
        (tmp_path / f"{name}.qasm").write_text(emit(circuit), encoding="utf-8")
    (tmp_path / "x.qasm").write_text("OPENQASM 2.0;\nqreg q[1];\nx q[0];\n")
    (tmp_path / "hzh.qasm").write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nz q[0];\nh q[0];\n")
    (tmp_path / "z.qasm").write_text("OPENQASM 2.0;\nqreg q[1];\nz q[0];\n")
    (tmp_path / "bad.qasm").write_text("OPENQASM 2.0;\nqreg q[1];\ngate foo a { x a; }\n")
    return tmp_path


class TestObfuscate:
    def test_obfuscate_then_verify(self, qasm_dir):
        src = qasm_dir / "bv6.qasm"
        out = qasm_dir / "bv6_obf.qasm"
        assert main(["obfuscate", "--method", "inverse", "--seed", "42", str(src), "-o", str(out)]) == 0
        assert main(["verify", str(src), str(out)]) == 0

    def test_malformed_input_exit_2(self, qasm_dir):
        rc = main(["obfuscate", "--method", "inverse", str(qasm_dir / "bad.qasm"), "-o", "/dev/null"])
        assert rc == 2

    @pytest.mark.parametrize("method", METHODS)
    def test_register_past_cap_rejected_before_pass(self, method, tmp_path, capsys):
        src = tmp_path / "huge.qasm"
        src.write_text("OPENQASM 2.0;\nqreg q[2000000000];\nh q[0];\n")
        out = tmp_path / "out.qasm"
        start = time.perf_counter()
        rc = main(["obfuscate", "--method", method, str(src), "-o", str(out)])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        assert "2000000000 qubits exceeds the 24-qubit simulator cap" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_ruleset_warns_and_copies(self, qasm_dir, capsys):
        rules = qasm_dir / "failing.rules"
        rules.write_text("x: s y s\nx: h y h\n")
        src = qasm_dir / "bv6.qasm"
        out = qasm_dir / "bv6_c.qasm"
        rc = main(
            ["obfuscate", "--method", "cloaked", "--ruleset", str(rules), str(src), "-o", str(out)]
        )
        assert rc == 0
        assert "no applicable rules" in capsys.readouterr().err
        assert out.read_text() == src.read_text()

    @pytest.mark.parametrize("rule", ["x: cx(0,0)", "cx: x(-1)", "x: x(0,x)", "x: h z h(0"])
    def test_malformed_rule_slots_exit_2(self, rule, qasm_dir, capsys):
        rules = qasm_dir / "malformed.rules"
        rules.write_text(f"# one bad rule\n{rule}\n")
        out = qasm_dir / "never.qasm"
        rc = main(["obfuscate", "--method", "cloaked", "--ruleset", str(rules),
                   str(qasm_dir / "bv6.qasm"), "-o", str(out)])
        assert rc == 2
        assert f"{rules}:2:" in capsys.readouterr().err
        assert not out.exists()

    def test_report_written(self, qasm_dir):
        out = qasm_dir / "obf.qasm"
        report = qasm_dir / "report.json"
        rc = main(
            [
                "obfuscate", "--method", "composite", "--seed", "7",
                str(qasm_dir / "period7.qasm"), "-o", str(out), "--report", str(report),
            ]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert data[0]["equivalent"] is True
        assert data[0]["depth_after"] > data[0]["depth_before"]

    def test_deterministic_output(self, qasm_dir):
        src = qasm_dir / "period7.qasm"
        a, b = qasm_dir / "a.qasm", qasm_dir / "b.qasm"
        args = ["obfuscate", "--method", "delayed", "--seed", "5", str(src)]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_ruleset_without_cloaked_warns(self, qasm_dir, capsys):
        out = qasm_dir / "x_obf.qasm"
        rc = main(["obfuscate", "--method", "inverse", "--ruleset", "nonexist.rules",
                   str(qasm_dir / "x.qasm"), "-o", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == (
            "qobf: warning: --ruleset is ignored unless --method cloaked\n"
        )
        assert out.exists()

    def test_verbose_counts_windows(self, qasm_dir, capsys):
        # both sites of a one-gate circuit take an inverse pair at intensity 1
        out = qasm_dir / "x_obf.qasm"
        assert main(["obfuscate", "--method", "inverse", "-v", str(qasm_dir / "x.qasm"),
                     "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out} (2 windows checked exactly)\n"

    @pytest.mark.parametrize("method, report", [("delayed", False), ("inverse", True), (None, True)])
    def test_each_circuit_validated_once(self, method, report, qasm_dir, monkeypatch):
        """obfuscate (method given) checks its input and its output once
        each, --report included; the report command (method None) checks
        its input once and each of the four pass outputs once."""
        import qobf.ir
        import qobf.metrics
        import qobf.qasm

        checked = []

        def counting_validate(circuit):
            checked.append(len(circuit.gates))
            return qobf.ir.validate(circuit)

        for module in (qobf.cli, qobf.qasm, qobf.metrics):
            monkeypatch.setattr(module, "validate", counting_validate)
        src, out = qasm_dir / "period7.qasm", qasm_dir / "period7_obf.qasm"
        if method is None:
            assert main(["report", str(src)]) == 0
            assert checked == [28, 86, 160, 34, 210]
            return
        args = ["obfuscate", "--method", method, "--seed", "3", str(src), "-o", str(out)]
        if report:
            args += ["--report", str(qasm_dir / "report.json")]
        assert main(args) == 0
        gates_in = len(parse(src.read_text()).circuit.gates)
        gates_out = len(parse(out.read_text()).circuit.gates)
        assert gates_out > gates_in
        assert checked == [gates_in, gates_out]

    @pytest.mark.parametrize("method", METHODS)
    def test_wide_circuit_checked_without_dense_run(self, method, tmp_path, monkeypatch):
        def no_dense_run(*args):
            raise AssertionError("obfuscate ran the dense simulator")

        monkeypatch.setattr(qobf.sim, "_run", no_dense_run)
        circuit = random_circuit(random.Random(22), min_qubits=22, max_qubits=22,
                                 min_gates=300, max_gates=300, measure=True)
        src, out = tmp_path / "wide.qasm", tmp_path / "wide_obf.qasm"
        src.write_text(emit(circuit), encoding="utf-8")
        assert main(["obfuscate", "--method", method, str(src), "-o", str(out)]) == 0
        assert out.exists()


#: sha256 over the 120-file obfuscate corpus below. A change that means to
#: alter the emitted bytes updates this digest and says so in CHANGES.md.
CORPUS_SHA256 = "cda305ac7fe9ef8e78a3c42326f05c72ac97325413f0dbf4b38c534f2cb09f0c"


def test_obfuscate_corpus_bytes_pinned(qasm_dir):
    """Output stays byte-identical for a given (input, method, seed, intensity)."""
    digest = hashlib.sha256()
    for fixture in ["bv6", "qaoa_ring4", "period7"]:
        for method in METHODS:
            for seed in [0, 1, 5, 42, 706]:
                for intensity in ["1.0", "0.5"]:
                    out = qasm_dir / "corpus.qasm"
                    rc = main(["obfuscate", "--method", method, "--seed", str(seed),
                               "--intensity", intensity, str(qasm_dir / f"{fixture}.qasm"),
                               "-o", str(out)])
                    assert rc == 0
                    digest.update(f"{fixture} {method} {seed} {intensity}\n".encode())
                    digest.update(out.read_bytes())
    assert digest.hexdigest() == CORPUS_SHA256


#: sha256 over ``obfuscate`` of one long random circuit (8 qubits, 1,000
#: gates, the benchmark's ``circuits_long`` shape) with each method and pass
#: seeds 1 and 2. The corpus above has no fixture past 7 qubits, so a
#: reordered draw in a rewritten delayed pass could pass it and not this.
LONG_CIRCUIT_SHA256 = "92f7b754431c5ca633593c4549c138801304395c7a84cf284777ba54809e2036"


def test_obfuscate_long_circuit_bytes_pinned(tmp_path):
    circuit = random_circuit(random.Random(1), min_qubits=8, max_qubits=8,
                             min_gates=1000, max_gates=1000, measure=True)
    src, out = tmp_path / "long.qasm", tmp_path / "long_out.qasm"
    src.write_text(emit(circuit), encoding="utf-8")
    digest = hashlib.sha256()
    for method in METHODS:
        for seed in ["1", "2"]:
            assert main(["obfuscate", "--method", method, "--seed", seed, str(src), "-o", str(out)]) == 0
            digest.update(f"{method} {seed}\n".encode() + out.read_bytes())
    assert digest.hexdigest() == LONG_CIRCUIT_SHA256


#: sha256 over the predicate and wrap corpus below: every written file,
#: stdout and stderr, with no paths. A change that means to alter the
#: emitted bytes updates this digest and says so in CHANGES.md.
PREDICATE_WRAP_SHA256 = "83a044e8bc617fa9720aef49bf7e5c62ab21d5499d2280a7a1b2f8cba2cd2552"
#: the same corpus without the wrapped-program files: predicate QASM, models,
#: manifests, and wrap's stdout and stderr. A change to the program template
#: or the evaluator it embeds leaves this digest as it is.
PREDICATE_WRAP_NO_PROGRAM_SHA256 = "a9fe4cf1e6dbcd57cc1e41c15699d2f1934e5882f2396eb2e21619dffb89b7fc"

PREDICATE_FLAGS = [
    ["--kind", "bell"],
    ["--kind", "shroud"],
    ["--kind", "multi_pair"],
    *(["--kind", "multi_pair", "--pairs", str(n)] for n in [1, 2, 8, 11, 12]),
    ["--kind", "branch"],
    *(["--kind", "branch", "--seed", str(seed)] for seed in range(0, 300, 7)),
]
WRAP_FLAGS = [
    ["--kind", "bell"],
    ["--kind", "shroud"],
    ["--kind", "branch", "--seed", "3"],
    ["--kind", "branch", "--seed", "706"],
    ["--kind", "multi_pair", "--pairs", "1"],
    ["--kind", "multi_pair", "--pairs", "11"],
    ["--kind", "multi_pair"],
]
WRAP_PAYLOADS = {
    "area.py": "import math\n\n\ndef area(r):\n    return math.pi * r * r\n\n\nprint(area(2.5))\n",
    "bare.py": "total = 41\nfor step in range(3):\n    total += step\nprint(total)",
}


def test_predicate_and_wrap_corpus_bytes_pinned(tmp_path, capsys):
    """Predicate circuits, models, wrapped programs, manifests and printed
    branch probabilities stay byte-identical for given flags, and every
    manifest written validates against the manifest schema."""
    schema_path = Path(qobf.__file__).parent / "data" / "schemas" / "wrap_manifest.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    manifest, program = tmp_path / "w.py.manifest.json", tmp_path / "w.py"
    digest, no_program = hashlib.sha256(), hashlib.sha256()

    def run(label, argv, *written):
        for path in written:
            path.unlink(missing_ok=True)
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 0, (label, captured.err)
        for d in (digest, no_program):
            d.update(f"{label} rc={rc}\n".encode())
        for path in written:
            for d in (digest,) if path == program else (digest, no_program):
                d.update(path.read_bytes())
        for d in (digest, no_program):
            d.update(captured.out.encode() + b"\0" + captured.err.encode() + b"\0")

    out = tmp_path / "p.qasm"
    for flags in PREDICATE_FLAGS:
        run(" ".join(["predicate", *flags]), ["predicate", *flags, "-o", str(out)],
            out, tmp_path / "p.qasm.model.json")
    for name, text in WRAP_PAYLOADS.items():
        payload = tmp_path / name
        payload.write_text(text, encoding="utf-8")
        for flags in WRAP_FLAGS:
            for decoy_seed in ["0", "7"]:
                argv = ["wrap", "--payload", str(payload), *flags, "--decoy-seed", decoy_seed]
                run(" ".join([name, *argv[3:]]), [*argv, "-o", str(program)], program, manifest)
                jsonschema.validate(json.loads(manifest.read_text(encoding="utf-8")), schema)
    assert no_program.hexdigest() == PREDICATE_WRAP_NO_PROGRAM_SHA256
    assert digest.hexdigest() == PREDICATE_WRAP_SHA256


#: sha256 over the verify corpus below: each run's label, exit code and stdout.
#: A change to the dense check that alters a verdict or a printed fidelity
#: updates this digest and says so in CHANGES.md.
VERIFY_SHA256 = "c0a763c0fcc723021f0ae37af4728fbff51d7920722ac1098b56505ae0228170"


def test_verify_corpus_stdout_pinned(qasm_dir, capsys):
    """``verify`` prints the same verdict and fidelity, in every mode, for
    pass outputs and for the same outputs with one stray T gate."""
    inputs = ["bv6", "qaoa_ring4", "period7"]
    for seed in range(4):
        circuit = random_circuit(random.Random(seed), min_qubits=7, max_qubits=7,
                                 min_gates=20, max_gates=30, measure=True)
        (qasm_dir / f"random{seed}.qasm").write_text(emit(circuit), encoding="utf-8")
        inputs.append(f"random{seed}")
    digest = hashlib.sha256()
    out, stray = qasm_dir / "v_out.qasm", qasm_dir / "v_stray.qasm"
    for name in inputs:
        source = qasm_dir / f"{name}.qasm"
        for method in METHODS:
            for seed in [0, 1, 5]:
                assert main(["obfuscate", "--method", method, "--seed", str(seed),
                             str(source), "-o", str(out)]) == 0
                obfuscated = parse(out.read_text(encoding="utf-8")).circuit
                gates = obfuscated.gates
                at = next((i for i, g in enumerate(gates) if g.kind is GateKind.MEASURE), len(gates)) // 2
                stray_gate = GateApp(GateKind.T, (0,))
                stray.write_text(emit(obfuscated.with_gates(gates[:at] + (stray_gate,) + gates[at:])),
                                 encoding="utf-8")
                capsys.readouterr()
                for candidate in (out, stray):
                    for mode in ["statevector", "unitary", "distribution"]:
                        rc = main(["verify", str(source), str(candidate), "--mode", mode])
                        label = f"{name} {method} {seed} {candidate.stem} {mode} rc={rc}\n"
                        digest.update(label.encode() + capsys.readouterr().out.encode())
    assert digest.hexdigest() == VERIFY_SHA256


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", ["bv6", "qaoa_ring4", "period7"])
def test_verify_miter_reduces_to_nothing(name, method, seed, qasm_dir, capsys):
    """Every gate these passes write cancels in the miter of input and
    output, so ``verify`` multiplies out no gate in floats; one stray T
    survives the reduction, and ``verify`` refuses it."""
    source, out, stray = qasm_dir / f"{name}.qasm", qasm_dir / "out.qasm", qasm_dir / "stray.qasm"
    assert main(["obfuscate", "--method", method, "--seed", str(seed), str(source), "-o", str(out)]) == 0
    a, b = (strip_measures(parse(path.read_text(encoding="utf-8")).circuit) for path in (source, out))
    assert reduced_miter(a.gates, b.gates) == []
    gates = b.gates
    b = b.with_gates(gates[:len(gates) // 2] + (GateApp(GateKind.T, (0,)),) + gates[len(gates) // 2:])
    assert reduced_miter(a.gates, b.gates) != []
    written = parse(out.read_text(encoding="utf-8")).circuit
    measures = tuple(g for g in written.gates if g.kind is GateKind.MEASURE)
    stray.write_text(emit(written.with_gates(b.gates + measures)), encoding="utf-8")
    for mode in ["statevector", "unitary"]:
        assert main(["verify", str(source), str(stray), "--mode", mode]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", ["bv6", "qaoa_ring4", "period7"])
def test_equivalent_decides_reduced_pairs_exactly(name, method, seed, qasm_dir, monkeypatch):
    """The pairs above need no dense run: in every mode ``equivalent`` gives
    exactly (True, 1.0), with the dense checks out of reach."""
    source, out = qasm_dir / f"{name}.qasm", qasm_dir / "out.qasm"
    assert main(["obfuscate", "--method", method, "--seed", str(seed), str(source), "-o", str(out)]) == 0
    a, b = (parse(path.read_text(encoding="utf-8")).circuit for path in (source, out))
    monkeypatch.setattr(qobf.sim, "_miter_check", _raise(AssertionError("dense run")))
    monkeypatch.setattr(qobf.sim, "_distribution_check", _raise(AssertionError("dense run")))
    for mode in ["statevector", "unitary", "distribution"]:
        assert equivalent(a, b, mode) == (True, 1.0)


def _inject_after_pass(kind: GateKind, seed: int):
    """A stand-in for apply_pass that runs the real pass, then inserts one
    ``kind`` gate at a seeded position before the first measurement."""

    def broken(method, circuit, cfg, ruleset=None):
        out = apply_pass(method, circuit, cfg, ruleset)
        rng = random.Random(seed)
        first_measure = next(
            (i for i, g in enumerate(out.gates) if g.kind is GateKind.MEASURE), len(out.gates)
        )
        pos = rng.randrange(first_measure + 1)
        stray = GateApp(kind, tuple(rng.sample(range(out.n_qubits), ARITY[kind])), window=-1)
        return out.with_gates(out.gates[:pos] + (stray,) + out.gates[pos:])

    return broken


STRAY_KINDS = sorted(UNITARY_KINDS, key=lambda k: k.value)


class TestSoundnessGateFaultInjection:
    @pytest.mark.parametrize("kind", STRAY_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("fixture", ["bv6", "qaoa_ring4", "period7"])
    def test_stray_gate_refused(self, kind, fixture, qasm_dir, monkeypatch, capsys):
        monkeypatch.setattr(qobf.cli, "apply_pass", _inject_after_pass(kind, seed=STRAY_KINDS.index(kind)))
        out = qasm_dir / "never.qasm"
        rc = main(["obfuscate", "--method", "inverse", str(qasm_dir / f"{fixture}.qasm"), "-o", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "refusing to write" in capsys.readouterr().err


def _windows(gates) -> list[list[int]]:
    """The positions of each window's gates, windows in order of first gate."""
    positions: dict[int, list[int]] = {}
    for i, g in enumerate(gates):
        if g.window is not None:
            positions.setdefault(g.window, []).append(i)
    return list(positions.values())


def _other_kind(kind: GateKind) -> GateKind:
    """The first gate kind of ``kind``'s arity that is not ``kind``."""
    return next(k for k in STRAY_KINDS if ARITY[k] == ARITY[kind] and k is not kind)


def _inverted(g: GateApp) -> GateApp:
    return GateApp(_INVERSE.get(g.kind, g.kind), g.qubits)


def _commute(a: GateApp, b: GateApp) -> bool:
    """Do two gates commute up to global phase? Decided exactly on the qubits they touch."""
    local = {q: i for i, q in enumerate(sorted({*a.qubits, *b.qubits}))}
    a, b = (GateApp(g.kind, tuple(local[q] for q in g.qubits)) for g in (a, b))
    return identity_phase([a, b, _inverted(a), _inverted(b)], len(local)) is not None


def _change_pair_kind(gates):
    """Turn the second gate of the first inverse pair on fewer than 3 qubits
    into a kind that does not undo the first; its window id stays."""
    i, j = next(w for w in _windows(gates) if ARITY[gates[w[0]].kind] < 3)
    kind = _other_kind(_INVERSE.get(gates[i].kind, gates[i].kind))
    return gates[:j] + (gates[j]._replace(kind=kind),) + gates[j + 1 :]


def _move_pair_half_out(gates):
    """Move the second gate of an inverse pair past the original gate after
    it, the first time the two do not commute; its window id stays."""
    for i, j in _windows(gates):
        after = gates[j + 1] if j + 1 < len(gates) else None
        if after and after.origin == "original" and after.kind in UNITARY_KINDS:
            if not _commute(gates[j], after):
                return gates[:j] + (after, gates[j]) + gates[j + 2 :]
    raise AssertionError("no pair followed by a gate it does not commute with")


def _retag_stray_original(gates):
    """Put a stray T gate on qubit 0 first, tagged as an original gate."""
    return (GateApp(GateKind.T, (0,)), *gates)


def _change_group_gate(gates):
    """Change the kind of the middle gate of the first substitution group."""
    first = next(g.group for g in gates if g.group is not None)
    members = [i for i, g in enumerate(gates) if g.group == first]
    k = members[len(members) // 2]
    return gates[:k] + (gates[k]._replace(kind=_other_kind(gates[k].kind)),) + gates[k + 1 :]


def _reuse_window_id(gates):
    """Copy the first window's first gate, with its window id, to just after
    the second window: one window id in two separate runs."""
    first, second = _windows(gates)[:2]
    at = second[-1] + 1
    return gates[:at] + (gates[first[0]],) + gates[at:]


def _drop_wrapper_gate(gates):
    """Drop the last gate of the first delayed wrapper's second copy."""
    last = _windows(gates)[0][-1]
    return gates[:last] + gates[last + 1 :]


#: fault name -> (method, fault, what the refusal says)
WINDOW_FAULTS = {
    "pair-kind-changed": ("inverse", _change_pair_kind, "does not act as its original gates"),
    "pair-half-moved-out": ("inverse", _move_pair_half_out, "does not act as its original gates"),
    "stray-tagged-original": ("inverse", _retag_stray_original, "does not give back the input"),
    "group-gate-changed": ("cloaked", _change_group_gate, "does not act as its original gates"),
    "window-id-reused": ("inverse", _reuse_window_id, "appears in two separate runs"),
    "wrapper-gate-dropped": ("delayed", _drop_wrapper_gate, "does not act as its original gates"),
}


class TestWindowGateFaultInjection:
    """Faults inside what a pass inserted: the window check refuses each one,
    and the dense oracle agrees that each output is not equivalent."""

    @pytest.mark.parametrize("fault", WINDOW_FAULTS)
    @pytest.mark.parametrize("fixture", ["bv6", "qaoa_ring4", "period7"])
    def test_window_fault_refused(self, fault, fixture, qasm_dir, monkeypatch, capsys):
        method, inject, reason = WINDOW_FAULTS[fault]
        made = []

        def broken(method, circuit, cfg, ruleset=None):
            out = apply_pass(method, circuit, cfg, ruleset)
            made.append((circuit, out.with_gates(inject(out.gates))))
            return made[-1][1]

        monkeypatch.setattr(qobf.cli, "apply_pass", broken)
        out = qasm_dir / "never.qasm"
        rc = main(["obfuscate", "--method", method, str(qasm_dir / f"{fixture}.qasm"), "-o", str(out)])
        assert rc == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "refusing to write" in err and reason in err
        [(circuit, faulty)] = made
        assert equivalent(circuit, faulty)[0] is False


def _drop_last_measure(gates):
    last = max(i for i, g in enumerate(gates) if g.kind is GateKind.MEASURE)
    return gates[:last] + gates[last + 1 :]


def _swap_two_cbits(gates):
    first, second = [i for i, g in enumerate(gates) if g.kind is GateKind.MEASURE][:2]
    out = list(gates)
    out[first] = gates[first]._replace(cbit=gates[second].cbit)
    out[second] = gates[second]._replace(cbit=gates[first].cbit)
    return tuple(out)


def _measure_before_last_gate(gates):
    """Move a measurement ahead of the last unitary gate on its qubit."""
    measure_at = {g.qubits[0]: i for i, g in enumerate(gates) if g.kind is GateKind.MEASURE}
    last = max(i for i, g in enumerate(gates)
               if g.kind in UNITARY_KINDS and not measure_at.keys().isdisjoint(g.qubits))
    m = measure_at[next(q for q in gates[last].qubits if q in measure_at)]
    rest = gates[:m] + gates[m + 1 :]
    return rest[:last] + (gates[m],) + rest[last:]


MEASUREMENT_FAULTS = {
    "dropped-measure": _drop_last_measure,
    "swapped-cbits": _swap_two_cbits,
    "measure-before-gate": _measure_before_last_gate,
}


class TestMeasurementGateFaultInjection:
    """The statevector check strips measurements, so a pass that breaks them
    must be caught by the structural half of the gate."""

    @pytest.mark.parametrize("fault", MEASUREMENT_FAULTS)
    @pytest.mark.parametrize("fixture", ["bell", "bv6", "period7"])
    def test_measurement_fault_refused(self, fault, fixture, qasm_dir, monkeypatch, capsys):
        (qasm_dir / "bell.qasm").write_text(
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n"
            "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
        )

        def broken(method, circuit, cfg, ruleset=None):
            out = apply_pass(method, circuit, cfg, ruleset)
            return out.with_gates(MEASUREMENT_FAULTS[fault](out.gates))

        monkeypatch.setattr(qobf.cli, "apply_pass", broken)
        out = qasm_dir / "never.qasm"
        rc = main(["obfuscate", "--method", "inverse", str(qasm_dir / f"{fixture}.qasm"), "-o", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "refusing to write" in capsys.readouterr().err


class TestVerify:
    def test_same_file(self, qasm_dir):
        f = str(qasm_dir / "x.qasm")
        assert main(["verify", f, f]) == 0

    def test_x_vs_hzh(self, qasm_dir):
        assert main(["verify", str(qasm_dir / "x.qasm"), str(qasm_dir / "hzh.qasm")]) == 0

    def test_x_vs_z_nonzero(self, qasm_dir):
        assert main(["verify", str(qasm_dir / "x.qasm"), str(qasm_dir / "z.qasm")]) != 0

    @pytest.mark.parametrize("mode", ["statevector", "unitary"])
    @pytest.mark.parametrize("n, stray", [(2, "t q[0];"), (8, "t q[1];")], ids=["2q-t-q0", "8q-t-q1"])
    def test_phase_only_difference_exit_1(self, tmp_path, capsys, mode, n, stray):
        head = f"OPENQASM 2.0;\nqreg q[{n}];\nh q[0];\n"
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        a.write_text(head)
        b.write_text(f"{head}{stray}\ncz q[0],q[1];\n")
        rc = main(["verify", str(a), str(b), "--mode", mode])
        assert rc == 1
        assert "equivalent=False" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["statevector", "unitary"])
    def test_measurement_map_difference_exit_1(self, tmp_path, capsys, mode):
        head = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n"
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        a.write_text(f"{head}measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n")
        b.write_text(f"{head}measure q[0] -> c[1];\n")
        rc = main(["verify", str(a), str(b), "--mode", mode])
        assert rc == 1
        assert "equivalent=False" in capsys.readouterr().out

    def test_qubit_mismatch_exit_2(self, qasm_dir):
        rc = main(["verify", str(qasm_dir / "x.qasm"), str(qasm_dir / "bv6.qasm")])
        assert rc == 2

    @pytest.mark.parametrize("mode", ["statevector", "unitary", "distribution"])
    def test_qubit_mismatch_of_equal_gates_exit_2(self, tmp_path, capsys, mode):
        """The miter of these two reduces to no gate; the widths still differ."""
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        a.write_text("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nx q[0];\nmeasure q[0] -> c[0];\n")
        b.write_text("OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nx q[0];\nmeasure q[0] -> c[0];\n")
        assert main(["verify", str(a), str(b), "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qobf: error: qubit-count mismatch: 1 vs 2\n"

    def test_unitary_cap_of_identical_files_exit_2(self, tmp_path, capsys):
        """The miter of a file with itself reduces to no gate; unitary mode
        still refuses a register past its cap."""
        f = tmp_path / "wide.qasm"
        f.write_text("OPENQASM 2.0;\nqreg q[12];\nh q[0];\ncx q[0],q[11];\n")
        assert main(["verify", str(f), str(f), "--mode", "unitary"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qobf: error: 12 qubits exceeds the 10-qubit unitary cap\n"

    @pytest.mark.parametrize("mode", ["statevector", "unitary"])
    def test_prints_the_mode_that_decided(self, tmp_path, capsys, mode):
        """The measured pairs differ, so distribution decides; the unitaries
        (H on q0 against H on q1) differ, the distributions do not."""
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        head = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"
        a.write_text(f"{head}h q[0];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n")
        b.write_text(f"{head}h q[1];\nmeasure q[1] -> c[0];\nmeasure q[0] -> c[1];\n")
        assert main(["verify", str(a), str(b), "--mode", mode]) == 0
        assert capsys.readouterr().out == "equivalent=True fidelity=1.000000000000 mode=distribution\n"

    def test_prints_fidelity(self, qasm_dir, capsys):
        main(["verify", str(qasm_dir / "x.qasm"), str(qasm_dir / "hzh.qasm"), "--mode", "unitary"])
        out = capsys.readouterr().out
        assert "fidelity=" in out and "equivalent=True" in out


class TestPredicate:
    def test_bell_model(self, tmp_path):
        out = tmp_path / "bell.qasm"
        assert main(["predicate", "--kind", "bell", "-o", str(out)]) == 0
        circuit = parse(out.read_text()).circuit
        assert measure_distribution(circuit) == {"00": 0.5, "11": 0.5}
        model = json.loads((tmp_path / "bell.qasm.model.json").read_text())
        assert model["distribution"] == {"00": 0.5, "11": 0.5}

    def test_multi_pair_model_shows_power(self, tmp_path):
        out = tmp_path / "mp.qasm"
        assert main(["predicate", "--kind", "multi_pair", "--pairs", "8", "-o", str(out)]) == 0
        model = json.loads((tmp_path / "mp.qasm.model.json").read_text())
        assert model["distribution"]["1" * 16] == 1 / 256

    def test_branch_marginal(self, tmp_path):
        out = tmp_path / "branch.qasm"
        assert main(["predicate", "--kind", "branch", "--seed", "5", "-o", str(out)]) == 0
        circuit = parse(out.read_text()).circuit
        dist = measure_distribution(circuit)
        assert all(k[:2] == "11" for k in dist)  # c3 c2 are the two left chars

    def test_bad_params_exit_2(self, tmp_path):
        rc = main(["predicate", "--kind", "multi_pair", "--pairs", "55", "-o", str(tmp_path / "x.qasm")])
        assert rc == 2

    def test_negative_branch_seed_exit_2(self, tmp_path, capsys):
        payload = tmp_path / "payload.py"
        payload.write_text("print(1)\n")
        out = tmp_path / "x.out"
        for argv in (["predicate"], ["wrap", "--payload", str(payload)]):
            assert main([*argv, "--kind", "branch", "--seed", "-5", "-o", str(out)]) == 2
            assert "seed must be non-negative, got -5" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "flags, check",
        [
            (["--kind", "multi_pair", "--pairs", "11"], "_check_measured_model"),
            (["--kind", "branch", "--seed", "3"], "_check_measured_model"),
            (["--kind", "shroud"], "_check_amplitude_model"),
        ],
    )
    def test_model_checked_once(self, tmp_path, monkeypatch, flags, check):
        import qobf.predicates

        qobf.predicates._built.cache_clear()
        calls = []
        original = getattr(qobf.predicates, check)
        monkeypatch.setattr(qobf.predicates, check, lambda p: calls.append(p) or original(p))
        assert main(["predicate", *flags, "-o", str(tmp_path / "p.qasm")]) == 0
        assert len(calls) == 1


class TestWrapCommand:
    @pytest.mark.parametrize(
        "flags, params",
        [
            (["--kind", "multi_pair", "--pairs", "3"], {"n_pairs": 3}),
            (["--kind", "branch", "--seed", "5"], {"seed": 5}),
            (["--kind", "bell", "--pairs", "3", "--seed", "5"], {}),
        ],
    )
    def test_params_match_predicate_command(self, tmp_path, flags, params):
        payload = tmp_path / "payload.py"
        payload.write_text("print('hi')\n")
        assert main(["wrap", "--payload", str(payload), *flags, "-o", str(tmp_path / "w.py")]) == 0
        assert main(["predicate", *flags, "-o", str(tmp_path / "p.qasm")]) == 0
        manifest = json.loads((tmp_path / "w.py.manifest.json").read_text())
        model = json.loads((tmp_path / "p.qasm.model.json").read_text())
        assert manifest["predicate"]["params"] == model["params"] == params

    def test_wrap_writes_program_and_manifest(self, tmp_path, capsys):
        payload = tmp_path / "payload.py"
        payload.write_text("print('hi')\n")
        out = tmp_path / "wrapped.py"
        rc = main(["wrap", "--payload", str(payload), "--kind", "bell", "-o", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "wrapped.py.manifest.json").read_text())
        assert len(manifest["branches"]) == 4
        printed = capsys.readouterr().out
        assert "bell-00: p=0.5" in printed

    def test_shroud_two_live(self, tmp_path, capsys):
        payload = tmp_path / "payload.py"
        payload.write_text("a = 1\nb = 2\n")
        out = tmp_path / "wrapped.py"
        rc = main(["wrap", "--payload", str(payload), "--kind", "shroud", "-o", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "shroud-0: p=1" in printed and "shroud-1: p=1" in printed

    def test_multi_pair_largest_size(self, tmp_path, capsys):
        payload = tmp_path / "payload.py"
        payload.write_text("print('hi')\n")
        rc = main(["wrap", "--payload", str(payload), "--kind", "multi_pair", "--pairs", "12",
                   "-o", str(tmp_path / "w.py")])
        assert rc == 0
        printed = dict(line.split(": p=") for line in capsys.readouterr().out.splitlines())
        assert printed["pairs-allones"] == "0.000244140625"
        assert float(printed["pairs-live"]) == 1 - 2**-12

    def test_missing_template_exit_2(self, tmp_path):
        payload = tmp_path / "payload.py"
        payload.write_text("x\n")
        rc = main(
            [
                "wrap", "--payload", str(payload), "--kind", "bell",
                "--template", "ghost", "-o", str(tmp_path / "w.py"),
            ]
        )
        assert rc == 2

    def test_negative_decoy_seed_exit_2(self, tmp_path, capsys):
        payload = tmp_path / "payload.py"
        payload.write_text("print('hi')\n")
        out = tmp_path / "w.py"
        rc = main(["wrap", "--payload", str(payload), "--kind", "branch", "--decoy-seed", "-3",
                   "-o", str(out)])
        assert rc == 2
        assert "decoy_seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["bell", "branch", "multi_pair", "shroud"])
    @pytest.mark.parametrize(
        "payload, message",
        [
            ('msg = """a\nb"""\nprint(repr(msg))\n', "a string literal across lines"),
            ('s = "a\\\nb"\nprint(repr(s))\n', "a string literal across lines"),
            ("from __future__ import annotations\nprint(1)\n", "a from __future__ import"),
        ],
        ids=["triple-quoted", "backslash-continued", "future-import"],
    )
    def test_unwrappable_payload_exit_2(self, payload, message, kind, tmp_path, capsys):
        """Wrapped, the first two would print another string and the third
        would not compile: refused before anything is written."""
        src = tmp_path / "payload.py"
        src.write_text(payload)
        rc = main(["wrap", "--payload", str(src), "--kind", kind, "-o", str(tmp_path / "w.py")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"qobf: error: payload line 1: {message}")
        assert list(tmp_path.iterdir()) == [src]

    def test_missing_payload_exit_2(self, tmp_path):
        rc = main(
            ["wrap", "--payload", str(tmp_path / "nope.py"), "--kind", "bell", "-o", str(tmp_path / "w.py")]
        )
        assert rc == 2

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_payload_line_endings_kept(self, ending, tmp_path):
        """The manifest digest and the extracted payload are the file's own
        bytes, and the wrapped program prints what the payload prints."""
        from qobf.wrapper import WrapManifest, extract_payload

        payload, program = tmp_path / "p.py", tmp_path / "w.py"
        payload.write_bytes(f"x = 1{ending}print(x){ending}".encode())
        assert main(["wrap", "--payload", str(payload), "--kind", "bell", "-o", str(program),
                     "--manifest", str(tmp_path / "w.json")]) == 0
        manifest = json.loads((tmp_path / "w.json").read_text())
        assert manifest["payload"]["sha256"] == hashlib.sha256(payload.read_bytes()).hexdigest()
        emitted = program.read_bytes().decode()
        assert extract_payload(emitted, WrapManifest.from_dict(manifest)) == payload.read_bytes().decode()
        want, got = (subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                                    timeout=60, env={**os.environ, "PYTHONPATH": ""})
                     for path in (payload, program))
        assert (got.returncode, got.stdout) == (want.returncode, want.stdout) == (0, "1\n")


class TestReportCommand:
    def test_json_emission(self, qasm_dir, capsys):
        rc = main(
            ["report", "--methods", "inverse", "--format", "json", str(qasm_dir / "qaoa_ring4.qasm")]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["method"] == "inverse"

    def test_table_emission(self, qasm_dir, capsys):
        rc = main(["report", "--methods", "inverse,cloaked", str(qasm_dir / "bv6.qasm")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("bv6.qasm") == 2

    def test_no_inputs_exit_2(self):
        assert main(["report"]) == 2

    def test_unknown_method_exit_2(self, qasm_dir):
        assert main(["report", "--methods", "magic", str(qasm_dir / "bv6.qasm")]) == 2

    def test_invalid_pass_output_exit_2(self, qasm_dir, monkeypatch, capsys):
        def out_of_range(method, circuit, cfg, ruleset=None):
            return circuit.with_gates(circuit.gates + (GateApp(GateKind.X, (5,)),))

        monkeypatch.setattr(qobf.cli, "apply_pass", out_of_range)
        assert main(["report", "--methods", "inverse", str(qasm_dir / "x.qasm")]) == 2
        assert capsys.readouterr().err == (
            "qobf: error: output circuit invalid: gate 1 (x): qubit index 5 out of range [0, 1)\n"
        )


def _raise(exc: Exception):
    def broken(*args, **kwargs):
        raise exc

    return broken


class TestCrashExit3:
    """A crash is qobf's fault: exit 3, never 2 (input error) or 1 (``verify``'s
    "not equivalent"), and nothing written."""

    @pytest.mark.parametrize(
        "module, name, exc",
        [
            (qobf.cli, "apply_pass", IndexError("list index out of range")),
            (qobf.cli, "apply_pass", ValueError("not enough values to unpack")),
            (qobf.passes, "check_translation", KeyError(7)),
        ],
        ids=["pass-IndexError", "pass-ValueError", "check-KeyError"],
    )
    def test_obfuscate(self, module, name, exc, qasm_dir, monkeypatch, capsys):
        monkeypatch.setattr(module, name, _raise(exc))
        out, report = qasm_dir / "out.qasm", qasm_dir / "r.json"
        rc = main(["obfuscate", "--method", "delayed", str(qasm_dir / "bv6.qasm"), "-o", str(out),
                   "--report", str(report)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"qobf: error: internal error in pass delayed: {type(exc).__name__}: {exc}\n"
        )
        assert not out.exists() and not report.exists()

    def test_verify(self, qasm_dir, monkeypatch, capsys):
        # x against z: the miter keeps both gates, so the dense check runs
        monkeypatch.setattr(qobf.sim, "_miter_check", _raise(RuntimeError("injected")))
        assert main(["verify", str(qasm_dir / "x.qasm"), str(qasm_dir / "z.qasm")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback (most recent call last):")
        assert captured.err.endswith(
            "RuntimeError: injected\nqobf: error: internal error: RuntimeError: injected\n"
        )


class TestUnwritableOutput:
    """Every flag that names an output: exit 2 with a ``cannot write`` error,
    and nothing left behind from a command that writes two files."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["obfuscate", "--method", "inverse", "{bv6}", "-o", "{bad}"],
            ["obfuscate", "--method", "inverse", "{bv6}", "-o", "{out}/o.qasm", "--report", "{bad}"],
            ["predicate", "--kind", "bell", "-o", "{bad}"],
            ["predicate", "--kind", "bell", "-o", "{out}/p.qasm", "--model", "{bad}"],
            ["wrap", "--payload", "{payload}", "--kind", "bell", "-o", "{bad}"],
            ["wrap", "--payload", "{payload}", "--kind", "bell", "-o", "{out}/w.py",
             "--manifest", "{bad}"],
            ["report", "--methods", "inverse", "{bv6}", "--out", "{bad}"],
        ],
        ids=["obfuscate-o", "obfuscate-report", "predicate-o", "predicate-model", "wrap-o",
             "wrap-manifest", "report-out"],
    )
    @pytest.mark.parametrize("bad", ["missing/x", ".", "loop"], ids=["no-dir", "a-dir", "a-loop"])
    def test_cannot_write_exit_2(self, argv, bad, qasm_dir, capsys):
        out = qasm_dir / "out"
        out.mkdir()
        payload = qasm_dir / "payload.py"
        payload.write_text("print('hi')\n", encoding="utf-8")
        bad_path = out / bad
        if bad == "loop":  # a symlink to itself
            loop = qasm_dir / "loop"
            loop.symlink_to(loop)
            bad_path = loop
        names = {"bv6": qasm_dir / "bv6.qasm", "out": out, "payload": payload, "bad": bad_path}
        rc = main([arg.format(**names) for arg in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qobf: error: cannot write {bad_path}: ")
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


class TestUndecodableInput:
    """An input that is not UTF-8 is named in a ``cannot read`` error, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["obfuscate", "--method", "inverse", "{bad}", "-o", "{out}/o.qasm"],
            ["verify", "{bv6}", "{bad}"],
            ["report", "--methods", "inverse", "{bad}"],
            ["wrap", "--payload", "{bad}", "--kind", "bell", "-o", "{out}/w.py"],
        ],
        ids=["obfuscate", "verify", "report", "wrap-payload"],
    )
    def test_cannot_read_exit_2(self, argv, qasm_dir, capsys):
        bad = qasm_dir / "latin1.qasm"
        bad.write_bytes(b"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\n// \xff\nx q[0];\n")
        out = qasm_dir / "out"
        out.mkdir()
        names = {"bv6": qasm_dir / "bv6.qasm", "out": out, "bad": bad}
        assert main([arg.format(**names) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qobf: error: cannot read {bad}: 'utf-8' codec can't decode")
        assert list(out.iterdir()) == []


class TestOutputsToOneFile:
    """Two outputs that name one file, however spelled, exit 2 before
    anything is written; otherwise the second would replace the first."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["obfuscate", "--method", "inverse", "{bv6}", "-o", "x", "--report", "{second}"],
            ["predicate", "--kind", "bell", "-o", "x", "--model", "{second}"],
            ["wrap", "--payload", "{payload}", "--kind", "bell", "-o", "x", "--manifest", "{second}"],
        ],
        ids=["obfuscate-report", "predicate-model", "wrap-manifest"],
    )
    @pytest.mark.parametrize("second", ["x", "./x"])
    def test_refused_exit_2(self, argv, second, qasm_dir, monkeypatch, capsys):
        payload = qasm_dir / "payload.py"
        payload.write_text("print('hi')\n", encoding="utf-8")
        out = qasm_dir / "out"
        out.mkdir()
        monkeypatch.chdir(out)
        names = {"bv6": qasm_dir / "bv6.qasm", "payload": payload, "second": second}
        assert main([arg.format(**names) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err == f"qobf: error: two outputs go to the same file: x and {second}\n"
        assert list(out.iterdir()) == []

    def test_devices_left_alone(self, capsys):
        assert main(["predicate", "--kind", "bell", "-o", "/dev/null", "--model", "/dev/null"]) == 0
        assert capsys.readouterr().err == ""


class TestMisc:
    def test_usage_error_exit_2(self):
        assert main(["obfuscate"]) == 2

    def test_templates_listed(self, capsys):
        assert main(["templates"]) == 0
        out = capsys.readouterr().out
        assert "qobf-inline" in out

    def test_missing_template_dir_warns_in_cli_style(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent"
        assert main(["templates", "--template-dir", str(missing)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qobf: warning: template directory {missing} does not exist\n"


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """Run this interpreter on the checkout's ``qobf`` package."""
    env = {**os.environ, "PYTHONPATH": str(Path(qobf.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env
    )


class TestEntryPoints:
    def test_python_m_qobf_verify(self, qasm_dir):
        f = str(qasm_dir / "x.qasm")
        proc = _run_python("-m", "qobf", "verify", f, f)
        assert proc.returncode == 0
        assert "equivalent=True" in proc.stdout

    def test_python_m_qobf_cli_obfuscate_cap(self, tmp_path):
        src = tmp_path / "huge.qasm"
        src.write_text("OPENQASM 2.0;\nqreg q[2000000000];\nh q[0];\n")
        out = tmp_path / "out.qasm"
        proc = _run_python("-m", "qobf.cli", "obfuscate", "--method", "inverse", str(src), "-o", str(out))
        assert proc.returncode == 2
        assert "2000000000 qubits exceeds the 24-qubit simulator cap" in proc.stderr
        assert not out.exists()


#: stderr of a command that needs numpy without it
NEEDS_NUMPY = "qobf: error: {command} needs numpy (the 'dense' extra): {reason}\n"


class TestWithoutNumpy:
    """With numpy blocked, the commands that need it exit 2, name it and
    its extra, and write nothing; verify needs it only for a pair whose
    miter keeps a gate."""

    @pytest.mark.parametrize(
        "argv, command",
        [
            (["verify", "{x}", "{z}"], "verify"),
            (["report", "--out", "{out}", "{src}"], "report"),
            (["obfuscate", "--method", "inverse", "{src}", "-o", "{out}", "--report", "{report}"],
             "obfuscate --report"),
        ],
        ids=["verify", "report", "obfuscate-report"],
    )
    def test_exit_2(self, argv, command, qasm_dir):
        paths = {"src": qasm_dir / "bv6.qasm", "out": qasm_dir / "out", "report": qasm_dir / "r.json",
                 "x": qasm_dir / "x.qasm", "z": qasm_dir / "z.qasm"}
        proc = self.run_blocked(*(arg.format(**paths) for arg in argv))
        assert proc.returncode == 2
        assert proc.stderr == NEEDS_NUMPY.format(
            command=command, reason="import of numpy halted; None in sys.modules")
        assert not paths["out"].exists() and not paths["report"].exists()

    @staticmethod
    def run_blocked(*argv: str) -> subprocess.CompletedProcess:
        return _run_python(
            "-c",
            'import sys\nsys.modules["numpy"] = None\n'
            "from qobf.cli import main\nsys.exit(main(sys.argv[1:]))",
            *argv,
        )

    @pytest.mark.parametrize("mode", ["statevector", "unitary", "distribution"])
    def test_verify_decides_reduced_pairs(self, mode, qasm_dir):
        """A pair whose miter reduces to no gate, here a fixture against its
        delayed output, is decided as with numpy."""
        src, out = qasm_dir / "qaoa_ring4.qasm", qasm_dir / "out.qasm"
        assert main(["obfuscate", "--method", "delayed", "--seed", "1", str(src), "-o", str(out)]) == 0
        proc = self.run_blocked("verify", str(src), str(out), "--mode", mode)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"equivalent=True fidelity=1.000000000000 mode={mode}\n"

    def test_venv_without_numpy(self, qasm_dir, tmp_path):
        """numpy missing, not blocked: a venv made without pip (no download)
        runs the checkout. ``find_spec`` finds no spec there, where the
        blocker above gives it a None module."""
        venv = tmp_path / "venv"
        subprocess.run([sys.executable, "-m", "venv", "--without-pip", str(venv)],
                       check=True, capture_output=True, timeout=60)
        python = venv / ("Scripts/python.exe" if os.name == "nt" else "bin/python")
        env = {**os.environ, "PYTHONPATH": str(Path(qobf.__file__).parents[1])}

        def run(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run([str(python), *args], capture_output=True, text=True,
                                  timeout=60, env=env, cwd=tmp_path)

        assert "No module named 'numpy'" in run("-c", "import numpy").stderr
        src = str(qasm_dir / "bv6.qasm")
        proc = run("-m", "qobf", "verify", src, src)
        assert (proc.returncode, proc.stderr) == (0, "")
        proc = run("-m", "qobf", "verify", str(qasm_dir / "x.qasm"), str(qasm_dir / "z.qasm"))
        assert proc.returncode == 2
        assert proc.stderr == NEEDS_NUMPY.format(command="verify", reason="No module named 'numpy'")
        (tmp_path / "payload.py").write_text("print('hi')\n")
        for argv in (["obfuscate", "--method", "cloaked", src, "-o", "out.qasm"],
                     ["predicate", "--kind", "bell", "-o", "bell.qasm"],
                     ["wrap", "--payload", "payload.py", "--kind", "bell", "-o", "wrapped.py"],
                     ["templates"]):
            proc = run("-m", "qobf", *argv)
            assert proc.returncode == 0, (argv, proc.stderr)
        assert run("wrapped.py").stdout == "hi\n"


class TestImportsPerEntryPoint:
    """Each entry point loads only the modules it runs: the predicate side
    (templates, predicate, wrap and wrapped programs) and obfuscate without
    --report never load numpy, nor ``dataclasses`` and ``inspect``, which
    cost those commands a fifth of their start-up; verify never loads the
    passes, and loads numpy only for a pair whose miter keeps a gate, or in
    distribution mode for circuits that measure different pairs. Only
    verify and the reports load the miter code, ``qobf.miter``."""

    DENSE = {"numpy", "qobf.sim", "qobf.passes", "qobf.metrics"}
    INTROSPECTION = {"dataclasses", "inspect"}
    MITER = {"qobf.miter"}

    @staticmethod
    @functools.cache
    def _modules_after(code: str) -> frozenset[str]:
        proc = _run_python("-c", f"{code}\nimport sys\nprint(*sys.modules)")
        assert proc.returncode == 0, proc.stderr
        return frozenset(proc.stdout.splitlines()[-1].split())

    @classmethod
    def loaded_after(cls, code: str) -> set[str]:
        """The modules, standard library included, that running ``code``
        loads beyond what an empty program loads (so a site hook that
        imports a module cannot count against ``code``)."""
        return set(cls._modules_after(code) - cls._modules_after("pass"))

    def test_wrapped_program_import(self):
        loaded = self.loaded_after("from qobf import exact_amplitudes, exact_distribution, loads")
        assert {"qobf.qasm", "qobf.exact"} <= loaded
        assert not loaded & (self.DENSE | self.MITER | {"qobf.predicates", "qobf.wrapper", "qobf.cli"})

    @staticmethod
    def package_modules(loaded: set[str]) -> set[str]:
        return {m for m in loaded if m.partition(".")[0] == "qobf"}

    def test_cli_import(self):
        loaded = self.loaded_after("import qobf.cli")
        assert self.package_modules(loaded) == {"qobf", "qobf.cli"}
        assert not loaded & self.INTROSPECTION

    def test_templates_run(self):
        loaded = self.loaded_after("from qobf.cli import main\nassert main(['templates']) == 0")
        assert self.package_modules(loaded) == {"qobf", "qobf.cli", "qobf.wrapper"}
        assert not loaded & ({"numpy", "hashlib", "tokenize", "ast"} | self.INTROSPECTION)

    @pytest.mark.parametrize("method", METHODS)
    def test_obfuscate_run(self, method, qasm_dir):
        src, out = str(qasm_dir / "bv6.qasm"), str(qasm_dir / "out.qasm")
        loaded = self.loaded_after(
            f"from qobf.cli import main\n"
            f"assert main(['obfuscate', '--method', {method!r}, {src!r}, '-o', {out!r}]) == 0"
        )
        assert {"qobf.passes", "qobf.exact"} <= loaded
        assert not loaded & ({"numpy", "qobf.sim", "qobf.metrics", "qobf.wrapper"} | self.MITER
                             | self.INTROSPECTION)

    def test_obfuscate_report_run(self, qasm_dir):
        src, out, report = (str(qasm_dir / name) for name in ("bv6.qasm", "out.qasm", "r.json"))
        loaded = self.loaded_after(
            f"from qobf.cli import main\nassert main(['obfuscate', '--method', 'cloaked',"
            f" {src!r}, '-o', {out!r}, '--report', {report!r}]) == 0"
        )
        assert {"numpy", "qobf.sim", "qobf.metrics"} <= loaded

    def verify_loads(self, a: Path, b: Path, mode: str, rc: int) -> set[str]:
        return self.loaded_after(
            f"from qobf.cli import main\n"
            f"assert main(['verify', {str(a)!r}, {str(b)!r}, '--mode', {mode!r}]) == {rc}"
        )

    def test_verify_run(self, qasm_dir):
        x, bv6, stray = qasm_dir / "x.qasm", qasm_dir / "bv6.qasm", qasm_dir / "xt.qasm"
        stray.write_text("OPENQASM 2.0;\nqreg q[1];\nx q[0];\nt q[0];\n")
        xm, xtm = qasm_dir / "xm.qasm", qasm_dir / "xtm.qasm"
        xm.write_text("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nx q[0];\nmeasure q[0] -> c[0];\n")
        xtm.write_text("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nx q[0];\nt q[0];\nmeasure q[0] -> c[0];\n")
        # a miter reduced to no gate is decided without the dense simulator,
        # in distribution mode when both circuits measure alike
        for a, b, mode in [(x, x, "statevector"), (x, x, "unitary"), (bv6, bv6, "distribution")]:
            loaded = self.verify_loads(a, b, mode, 0)
            assert "qobf.exact" in loaded
            assert not loaded & (self.DENSE | {"qobf.wrapper"})
        # a miter that keeps a gate runs it
        for a, b, mode, rc in [(x, stray, "statevector", 1), (x, stray, "unitary", 1),
                               (xm, xtm, "distribution", 0)]:
            loaded = self.verify_loads(a, b, mode, rc)
            assert {"numpy", "qobf.sim"} <= loaded
            assert not loaded & {"qobf.passes", "qobf.wrapper", "qobf.metrics"}

    @pytest.mark.parametrize("method", METHODS)
    def test_verify_pass_output_run(self, method, qasm_dir):
        """Every pass's output reduces to no gate against its input."""
        src, out = qasm_dir / "bv6.qasm", qasm_dir / "out.qasm"
        assert main(["obfuscate", "--method", method, str(src), "-o", str(out)]) == 0
        for mode in ["statevector", "unitary"]:
            assert not self.verify_loads(src, out, mode, 0) & self.DENSE

    @pytest.mark.parametrize("name", sorted(standard_fixtures()))
    def test_verify_delayed_output_run(self, name, qasm_dir):
        """Each fixture's delayed output, in every mode, in one process."""
        src, out = str(qasm_dir / f"{name}.qasm"), str(qasm_dir / "out.qasm")
        assert main(["obfuscate", "--method", "delayed", "--seed", "1", src, "-o", out]) == 0
        loaded = self.loaded_after(
            "from qobf.cli import main\n"
            f"for mode in ['statevector', 'unitary', 'distribution']:\n"
            f"    assert main(['verify', {src!r}, {out!r}, '--mode', mode]) == 0"
        )
        assert "qobf.exact" in loaded
        assert not loaded & self.DENSE

    @pytest.mark.parametrize("kind", ["bell", "multi_pair"])
    def test_predicate_run(self, kind, tmp_path):
        out = str(tmp_path / "p.qasm")
        loaded = self.loaded_after(
            f"from qobf.cli import main\nassert main(['predicate', '--kind', {kind!r}, '-o', {out!r}]) == 0"
        )
        assert {"qobf.predicates", "qobf.exact"} <= loaded
        assert not loaded & (self.DENSE | self.MITER | {"qobf.wrapper"} | self.INTROSPECTION)

    @pytest.mark.parametrize("kind", ["bell", "multi_pair", "shroud"])
    def test_wrap_and_wrapped_program_run(self, kind, tmp_path):
        payload, program = tmp_path / "payload.py", str(tmp_path / "wrapped.py")
        payload.write_text("print('hi')\n")
        loaded = self.loaded_after(
            f"from qobf.cli import main\n"
            f"assert main(['wrap', '--payload', {str(payload)!r}, '--kind', {kind!r}, '-o', {program!r}]) == 0"
        )
        assert "qobf.wrapper" in loaded
        assert not loaded & (self.DENSE | self.MITER | self.INTROSPECTION)
        # only shroud cuts the payload, and only that cut parses it
        assert ("ast" in loaded) == (kind == "shroud")
        loaded = self.loaded_after(f"import runpy\nrunpy.run_path({program!r}, run_name='__main__')")
        assert not {m for m in loaded if m.partition(".")[0] in ("qobf", "numpy")}
