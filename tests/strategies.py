"""Random-circuit generators shared by property and acceptance tests."""

import random

from hypothesis import strategies as st

from qobf.ir import ARITY, Circuit, GateApp, GateKind, UNITARY_KINDS

_UNITARY = sorted(UNITARY_KINDS, key=lambda k: k.value)


def random_circuit(
    rng: random.Random,
    max_qubits: int = 5,
    max_gates: int = 12,
    measure: bool = False,
    barriers: bool = False,
    min_qubits: int = 1,
    min_gates: int = 0,
) -> Circuit:
    """A structurally valid random circuit from a seeded generator."""
    n = rng.randint(min_qubits, max_qubits)
    gates: list[GateApp] = []
    for _ in range(rng.randint(min_gates, max_gates)):
        if barriers and rng.random() < 0.1:
            count = rng.randint(1, n)
            gates.append(GateApp(GateKind.BARRIER, tuple(rng.sample(range(n), count))))
            continue
        kind = rng.choice([k for k in _UNITARY if ARITY[k] <= n])
        qubits = tuple(rng.sample(range(n), ARITY[kind]))
        gates.append(GateApp(kind, qubits))
    if measure:
        measured = rng.sample(range(n), rng.randint(1, n))
        for cbit, q in enumerate(measured):
            gates.append(GateApp(GateKind.MEASURE, (q,), cbit=cbit))
        return Circuit(n, len(measured), tuple(gates))
    return Circuit(n, 0, tuple(gates))


@st.composite
def circuits(
    draw, max_qubits: int = 5, max_gates: int = 12, measure: bool = False, barriers: bool = False
):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_circuit(
        random.Random(seed),
        max_qubits=max_qubits,
        max_gates=max_gates,
        measure=measure,
        barriers=barriers,
    )
