"""Reference checker for qobf's circuit outputs, written apart from qobf.

It has its own reader for the canonical QASM form that ``qobf`` emits and a
small dense simulator built from textbook gate matrices, applied by tensor
contraction. It shares no code with ``qobf.sim``: a bug in the program's
gate-application core or in its equivalence oracle cannot hide itself here.

Conventions match the program's documented ones: qubit 0 is the least
significant bit of a basis index, and multi-qubit matrices take operand 0 as
their most significant local bit (``cx`` and ``ccx`` list controls first).

Equivalence is decided on one seeded random dense state, up to a global phase
only. Every diagonal (phase) difference moves such a state, so this check sees
what basis-state probes cannot.
"""

from __future__ import annotations

import re

import numpy as np

_R2 = 1.0 / np.sqrt(2.0)
_W = np.exp(1j * np.pi / 4)

_1Q = {
    "h": _R2 * np.array([[1, 1], [1, -1]]),
    "x": np.array([[0, 1], [1, 0]]),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.diag([1, -1]),
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
    "t": np.diag([1, _W]),
    "tdg": np.diag([1, np.conj(_W)]),
}


def _controlled(u: np.ndarray, n_controls: int) -> np.ndarray:
    dim = 2 ** (n_controls + 1)
    m = np.eye(dim, dtype=complex)
    m[dim - 2 :, dim - 2 :] = u
    return m


MATRICES: dict[str, np.ndarray] = {k: np.asarray(v, dtype=complex) for k, v in _1Q.items()}
MATRICES["cx"] = _controlled(MATRICES["x"], 1)
MATRICES["cy"] = _controlled(MATRICES["y"], 1)
MATRICES["cz"] = _controlled(MATRICES["z"], 1)
MATRICES["ccx"] = _controlled(MATRICES["x"], 2)
MATRICES["swap"] = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

_QREG = re.compile(r"qreg (\w+)\[(\d+)\];$")
_GATE = re.compile(r"([a-z]+) (\w+\[\d+\](?:,\w+\[\d+\])*);$")
_OPERAND = re.compile(r"\w+\[(\d+)\]")


class RefError(ValueError):
    """Text the reference reader does not accept."""


def read_qasm(text: str) -> tuple[int, list[tuple[str, tuple[int, ...]]]]:
    """(qubit count, unitary gates in order) of one-register canonical QASM.

    Measurements and barriers are dropped: they do not change the state
    the gates before them produce, and the program never places a gate on a
    measured qubit.
    """
    n_qubits = None
    gates: list[tuple[str, tuple[int, ...]]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line in ("OPENQASM 2.0;", 'include "qelib1.inc";') or line.startswith(
            ("creg ", "measure ", "barrier ")
        ):
            continue
        m = _QREG.match(line)
        if m:
            if n_qubits is not None:
                raise RefError(f"line {number}: second qreg")
            n_qubits = int(m.group(2))
            continue
        m = _GATE.match(line)
        if not m or m.group(1) not in MATRICES:
            raise RefError(f"line {number}: cannot read {line!r}")
        qubits = tuple(int(q) for q in _OPERAND.findall(m.group(2)))
        if MATRICES[m.group(1)].shape[0] != 2 ** len(qubits):
            raise RefError(f"line {number}: wrong operand count in {line!r}")
        gates.append((m.group(1), qubits))
    if n_qubits is None:
        raise RefError("no qreg")
    if any(q >= n_qubits for _, qs in gates for q in qs):
        raise RefError("operand beyond the register")
    return n_qubits, gates


def apply(state: np.ndarray, gates: list[tuple[str, tuple[int, ...]]], n: int) -> np.ndarray:
    """The state after the gates, as a flat vector; the input is not changed."""
    psi = state.reshape((2,) * n)
    for name, qubits in gates:
        k = len(qubits)
        axes = [n - 1 - q for q in qubits]
        u = MATRICES[name].reshape((2,) * (2 * k))
        psi = np.moveaxis(np.tensordot(u, psi, axes=(list(range(k, 2 * k)), axes)), range(k), axes)
    return psi.reshape(-1)


def random_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    overlap = np.vdot(a, b)
    if abs(overlap) < 0.5:
        return False
    phase = overlap / abs(overlap)
    return float(np.max(np.abs(b - phase * a))) <= tol


def equivalent(text_a: str, text_b: str, seed: int) -> bool:
    """Do two QASM texts act alike on a seeded random state, up to global phase?"""
    n_a, gates_a = read_qasm(text_a)
    n_b, gates_b = read_qasm(text_b)
    if n_a != n_b:
        return False
    psi = random_state(n_a, seed)
    return equal_up_to_phase(apply(psi, gates_a, n_a), apply(psi, gates_b, n_b))


def _program(n: int, body: str) -> str:
    lines = [f"{g};" for g in body.split(";") if g.strip()]
    return "\n".join(["OPENQASM 2.0;", f"qreg q[{n}];", *lines]) + "\n"


#: (qubits, circuit a, circuit b, equivalent?) - identities known on paper
IDENTITIES = (
    (1, "h q[0]; h q[0]", "", True),
    (1, "s q[0]; s q[0]", "z q[0]", True),
    (1, "t q[0]; t q[0]", "s q[0]", True),
    (1, "h q[0]; z q[0]; h q[0]", "x q[0]", True),
    (1, "x q[0]", "z q[0]", False),
    (1, "t q[0]", "", False),
    (2, "cx q[0],q[1]; s q[1]; cx q[0],q[1]", "s q[0]; s q[1]; cz q[0],q[1]", True),
    (2, "cx q[0],q[1]", "cx q[1],q[0]", False),
    (2, "cx q[0],q[1]; cx q[1],q[0]; cx q[0],q[1]", "swap q[0],q[1]", True),
    (2, "h q[1]; cx q[0],q[1]; h q[1]", "cz q[0],q[1]", True),
    (2, "cz q[0],q[1]", "", False),
    (3, "h q[2]; ccx q[0],q[1],q[2]; h q[2]", "h q[2]; cx q[1],q[2]; h q[2]", False),
)


def self_check() -> list[str]:
    """Failures of the reference simulator on known identities (empty if sound)."""
    problems = []
    for n, a, b, expected in IDENTITIES:
        for seed in (1, 2):
            if equivalent(_program(n, a), _program(n, b), seed) != expected:
                problems.append(f"{a!r} vs {b!r}: expected equivalent={expected}")
    # index convention: qubit 0 is the least significant bit, controls first
    n, gates = read_qasm(_program(3, "x q[0]; x q[1]; ccx q[0],q[1],q[2]"))
    basis0 = np.zeros(8, dtype=complex)
    basis0[0] = 1.0
    if int(np.argmax(np.abs(apply(basis0, gates, n)))) != 0b111:
        problems.append("x q[0]; x q[1]; ccx q[0],q[1],q[2] does not reach |111>")
    n, gates = read_qasm(_program(2, "x q[0]; cx q[0],q[1]"))
    if int(np.argmax(np.abs(apply(basis0[:4], gates, n)))) != 0b11:
        problems.append("x q[0]; cx q[0],q[1] does not reach index 3")
    return problems
