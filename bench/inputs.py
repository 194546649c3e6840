"""Seeded input generator for the benchmark workloads.

Everything the program receives is written here as plain files: QASM
circuits, the paper's three fixtures, and Python payloads. The same seed
always gives byte-identical files. Inputs of the known faults (the
phase-only circuit pair and the shroud payloads) are fixed and do not depend
on the seed, so each run fails on exactly the same operations.
"""

from __future__ import annotations

import random
from pathlib import Path

#: qubits each gate kind acts on; every other kind acts on one
ARITY = {"cx": 2, "cy": 2, "cz": 2, "swap": 2, "ccx": 3}
#: operations that are not gates and so stay out of the gate mix
NOT_GATES = ("measure", "barrier")

#: circuit shapes: (qubits, gates). Each round of a circuit workload runs one
#: seeded circuit; sizes are chosen so that one round takes a few seconds on
#: a 2-CPU machine.
LONG_SHAPE = (8, 1000)
WIDE_SHAPE = (14, 100)
#: the phase-only pair's base circuit, fixed for every seed
PHASE_SHAPE = {"circuits_long": (8, 200), "circuits_wide": (14, 40)}
PHASE_SEED = 20250331
#: the stray gate put before the pair's first gate: diagonal, so basis-state
#: probes see only a global phase on each probe
PHASE_STRAY = {"circuits_long": "t q[0];", "circuits_wide": "cz q[0],q[1];"}

#: copy of the demo payload in scripts/run_overhead_eval.py
DEMO_PAYLOAD = """\
secret = 0x5eed
for round in range(16):
    secret = (secret * 31 + round) % 65521
print(secret)
"""

#: part 1 of a shroud split binds names that part 2 then reads
SPLIT_NAMES_PAYLOAD = """\
width = 6
height = 7
print(width * height)
print(width - height)
"""


def gate_mix() -> dict[str, int]:
    """Gate-kind counts pooled over the paper's three fixtures (see
    ``fixtures``), measurements and barriers left out: 62 gates, of which
    23 h, 12 cx, 9 ccx, 7 x, 4 s, 2 cz and one each of cy, t, tdg, sdg and
    swap."""
    mix: dict[str, int] = {}
    for text in fixtures().values():
        for line in text.splitlines()[4:]:
            kind = line.split(" ", 1)[0]
            if kind not in NOT_GATES:
                mix[kind] = mix.get(kind, 0) + 1
    return dict(sorted(mix.items()))


def gate_kinds(n_gates: int) -> list[str]:
    """``n_gates`` gate kinds in the fixtures' proportions, rounded by
    largest remainder, in a fixed order."""
    mix = gate_mix()
    total = sum(mix.values())
    counts = {kind: n_gates * c // total for kind, c in mix.items()}
    by_remainder = sorted(mix, key=lambda kind: (-(n_gates * mix[kind] % total), kind))
    for kind in by_remainder[: n_gates - sum(counts.values())]:
        counts[kind] += 1
    return [kind for kind, c in counts.items() for _ in range(c)]


def random_circuit(n: int, n_gates: int, seed: int) -> str:
    """Canonical QASM of a random circuit with the fixtures' gate mix.

    The kinds and their counts are the same for every seed; only order and
    operands are random. So the work each seed's circuit asks for varies
    little, and a run's figures depend on the code, not on the draw. Every
    qubit is measured at the end, so all three equivalence modes apply.
    """
    rng = random.Random(seed)
    kinds = gate_kinds(n_gates)
    rng.shuffle(kinds)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];", f"creg c[{n}];"]
    for kind in kinds:
        qubits = rng.sample(range(n), ARITY.get(kind, 1))
        lines.append(f"{kind} {','.join(f'q[{q}]' for q in qubits)};")
    lines += [f"measure q[{q}] -> c[{q}];" for q in range(n)]
    return "\n".join(lines) + "\n"


def with_stray_gate(qasm: str, stray: str) -> str:
    """The same circuit with one gate placed before its first gate."""
    head, sep, tail = qasm.partition("\ncreg ")
    creg, nl, body = tail.partition("\n")
    return head + sep + creg + nl + stray + "\n" + body


def _qasm(n: int, n_cbits: int, body: list[str]) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];", f"creg c[{n_cbits}];"]
    return "\n".join(lines + [f"{g};" for g in body]) + "\n"


def fixtures() -> dict[str, str]:
    """The paper's three evaluation circuits (Bernstein-Vazirani on secret
    101101, a depth-1 Clifford QAOA ring on 4 qubits, and the 7-qubit toy
    period-finding circuit), written out gate by gate."""
    secret = "101101"
    bv = ["x q[6]", "h q[6]"] + [f"h q[{i}]" for i in range(6)]
    bv += [f"cx q[{i}],q[6]" for i in range(6) if secret[i] == "1"]
    bv += [f"h q[{i}]" for i in range(6)] + [f"measure q[{i}] -> c[{i}]" for i in range(6)]
    ring = [f"h q[{i}]" for i in range(4)]
    for a in range(4):
        b = (a + 1) % 4
        ring += [f"cx q[{a}],q[{b}]", f"s q[{b}]", f"cx q[{a}],q[{b}]"]
    ring += [f"x q[{i}]" for i in range(4)] + [f"measure q[{i}] -> c[{i}]" for i in range(4)]
    period = ["x q[3]", "h q[0]", "h q[1]", "h q[2]"]
    for k, (a, b) in enumerate(((3, 4), (4, 5), (5, 6))):
        period += [f"ccx q[{k}],q[{a}],q[{b}]", f"ccx q[{k}],q[{b}],q[{a}]", f"ccx q[{k}],q[{a}],q[{b}]"]
    period += [
        "cy q[2],q[6]", "x q[5]", "h q[2]", "cz q[1],q[2]", "tdg q[2]", "h q[1]",
        "cz q[0],q[1]", "t q[1]", "h q[0]", "sdg q[0]", "swap q[0],q[2]",
        "barrier q[0],q[1],q[2]",
    ] + [f"measure q[{i}] -> c[{i}]" for i in range(3)]
    return {
        "bv6": _qasm(7, 6, bv),
        "qaoa_ring4": _qasm(4, 4, ring),
        "period7": _qasm(7, 3, period),
    }


def random_payload(seed: int) -> str:
    """A small deterministic Python program with seeded constants: a helper
    function, a loop with a branch, and a comprehension, over 11 lines."""
    rng = random.Random(seed)
    name = rng.choice(("mix", "fold", "churn", "blend"))
    mul, add, mod = rng.randrange(3, 97), rng.randrange(1, 50), rng.choice((65521, 32749, 8191))
    rounds, every, bump = rng.randrange(20, 200), rng.randrange(3, 9), rng.randrange(1, 99)
    return (
        f"def {name}(value, k):\n"
        f"    return (value * {mul} + k + {add}) % {mod}\n"
        f"acc = {rng.randrange(1, 1000)}\n"
        f"hits = 0\n"
        f"for i in range({rounds}):\n"
        f"    acc = {name}(acc, i)\n"
        f"    if acc % {every} == 0:\n"
        f"        hits += 1\n"
        f"        acc += {bump}\n"
        f"print(acc, hits)\n"
        f"print([acc % (j + 2) for j in range({rng.randrange(3, 8)})])\n"
    )


def write_inputs(workload: str, seed: int, dest: Path) -> dict:
    """Write one workload's inputs into ``dest``; return their description."""
    dest.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    made: dict = {"workload": workload, "seed": seed}
    if workload in ("circuits_long", "circuits_wide"):
        n, g = LONG_SHAPE if workload == "circuits_long" else WIDE_SHAPE
        files.update({f"{name}.qasm": text for name, text in fixtures().items()})
        files["circuit.qasm"] = random_circuit(n, g, seed)
        pn, pg = PHASE_SHAPE[workload]
        base = random_circuit(pn, pg, PHASE_SEED)
        files["phase_a.qasm"] = base
        files["phase_b.qasm"] = with_stray_gate(base, PHASE_STRAY[workload])
        made["circuit"] = {"qubits": n, "gates": g}
        made["phase_pair"] = {"qubits": pn, "gates": pg, "stray": PHASE_STRAY[workload]}
    elif workload == "predicates_wrap":
        files["demo.py"] = DEMO_PAYLOAD
        files["split_names.py"] = SPLIT_NAMES_PAYLOAD
        files["payload1.py"] = random_payload(seed)
        files["payload2.py"] = random_payload(seed + 1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for name, text in files.items():
        (dest / name).write_text(text, encoding="utf-8")
    made["files"] = {name: len(text.encode("utf-8")) for name, text in sorted(files.items())}
    return made
