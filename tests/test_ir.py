import random

from hypothesis import given, settings
from hypothesis import strategies as st

from qobf.diagnostics import Diagnostic
from qobf.ir import (
    ARITY,
    Circuit,
    GateApp,
    GateKind,
    depth,
    flatten,
    gate_count,
    same_gates,
    validate,
)
from strategies import circuits

K = GateKind


def bell() -> Circuit:
    return Circuit(2, 0, (GateApp(K.H, (0,)), GateApp(K.CX, (0, 1))))


class TestValidate:
    def test_well_formed_bell(self):
        assert validate(bell()) == []

    def test_duplicate_qubit_operand(self):
        c = Circuit(2, 0, (GateApp(K.CX, (0, 0)),))
        diags = validate(c)
        assert len(diags) == 1
        assert "duplicate qubit operand" in diags[0].message

    def test_gate_after_measurement(self):
        c = Circuit(
            1, 1, (GateApp(K.MEASURE, (0,), cbit=0), GateApp(K.H, (0,)))
        )
        diags = validate(c)
        assert any("gate after measurement" in d.message for d in diags)

    def test_out_of_range_qubit(self):
        diags = validate(Circuit(1, 0, (GateApp(K.H, (3,)),)))
        assert any("out of range" in d.message for d in diags)

    def test_measure_without_cbit(self):
        diags = validate(Circuit(1, 1, (GateApp(K.MEASURE, (0,)),)))
        assert any("without classical target" in d.message for d in diags)

    def test_cbit_measured_twice(self):
        c = Circuit(
            2,
            1,
            (GateApp(K.MEASURE, (0,), cbit=0), GateApp(K.MEASURE, (1,), cbit=0)),
        )
        diags = validate(c)
        assert any("measured twice" in d.message for d in diags)

    def test_wrong_arity(self):
        diags = validate(Circuit(2, 0, (GateApp(K.CX, (0,)),)))
        assert any("expected 2 qubit operand" in d.message for d in diags)

    def test_barrier_is_allowed_after_measure(self):
        c = Circuit(
            1, 1, (GateApp(K.MEASURE, (0,), cbit=0), GateApp(K.BARRIER, (0,)))
        )
        assert validate(c) == []

    def test_zero_qubit_circuit(self):
        diags = validate(Circuit(0, 0, ()))
        assert any("at least one qubit" in d.message for d in diags)


def reference_validate(circuit: Circuit) -> list[Diagnostic]:
    """``validate`` as it was before it checked each distinct gate once:
    every check on every gate, in order."""
    diags: list[Diagnostic] = []

    def err(msg: str) -> None:
        diags.append(Diagnostic("error", msg))

    if circuit.n_qubits < 1:
        err(f"circuit must declare at least one qubit (got {circuit.n_qubits})")
    if circuit.n_cbits < 0:
        err(f"negative classical register size {circuit.n_cbits}")

    measured: set[int] = set()
    written_cbits: set[int] = set()
    for pos, g in enumerate(circuit.gates):
        where = f"gate {pos} ({g.kind.value})"
        arity = ARITY[g.kind]
        if arity is not None and len(g.qubits) != arity:
            err(f"{where}: expected {arity} qubit operand(s), got {len(g.qubits)}")
        if g.kind is GateKind.BARRIER and not g.qubits:
            err(f"{where}: barrier needs at least one qubit")
        if len(set(g.qubits)) != len(g.qubits):
            err(f"{where}: duplicate qubit operand")
        for q in g.qubits:
            if not 0 <= q < circuit.n_qubits:
                err(f"{where}: qubit index {q} out of range [0, {circuit.n_qubits})")
            elif q in measured and g.kind is not GateKind.BARRIER:
                err(f"{where}: gate after measurement of qubit {q}")
        if g.kind is GateKind.MEASURE:
            if g.cbit is None:
                err(f"{where}: measurement without classical target")
            elif not 0 <= g.cbit < circuit.n_cbits:
                err(f"{where}: classical index {g.cbit} out of range [0, {circuit.n_cbits})")
            elif g.cbit in written_cbits:
                err(f"{where}: classical bit {g.cbit} measured twice")
            else:
                written_cbits.add(g.cbit)
            measured.update(q for q in g.qubits if 0 <= q < circuit.n_qubits)
        elif g.cbit is not None:
            err(f"{where}: classical target on a non-measurement gate")
    return diags


#: gates that are well formed on 3 or more qubits and 3 or more classical bits
WELL_FORMED = (
    [GateApp(K.H, (q,)) for q in range(3)]
    + [GateApp(K.CX, (0, 1)), GateApp(K.CCX, (2, 0, 1)), GateApp(K.BARRIER, (0, 2))]
    + [GateApp(K.MEASURE, (q,), cbit=c) for q in range(3) for c in range(3)]
)


@st.composite
def gate_soups(draw):
    """Circuits drawn from a small pool of gates, valid or not, so gates
    repeat: wrong arity, repeated or out-of-range qubits, missing, stray or
    out-of-range classical targets, gates after measurement and classical
    bits measured twice."""
    n_qubits = draw(st.integers(0, 4))
    n_cbits = draw(st.integers(-1, 4))
    anything = st.builds(
        GateApp,
        kind=st.sampled_from(list(GateKind)),
        qubits=st.lists(st.integers(-1, 4), max_size=4).map(tuple),
        cbit=st.none() | st.integers(-1, 3),
        box=st.none() | st.integers(0, 2),
    )
    pool = draw(st.lists(st.sampled_from(WELL_FORMED) | anything, min_size=1, max_size=6))
    gates = draw(st.lists(st.sampled_from(pool), max_size=24))
    return Circuit(n_qubits, n_cbits, tuple(gates))


class TestValidateAgainstReference:
    @given(gate_soups())
    @settings(max_examples=400)
    def test_same_diagnostics_in_same_order(self, circuit):
        assert validate(circuit) == reference_validate(circuit)

    @given(circuits(measure=True))
    def test_valid_circuits(self, circuit):
        assert validate(circuit) == reference_validate(circuit) == []


class TestDepth:
    def test_single_gate(self):
        assert depth(Circuit(1, 0, (GateApp(K.H, (0,)),))) == 1

    def test_bell_sequential(self):
        assert depth(bell()) == 2

    def test_layer_packing(self):
        # layers: {H0, H1}, {CX01}, {H0}
        c = Circuit(
            2,
            0,
            (
                GateApp(K.H, (0,)),
                GateApp(K.H, (1,)),
                GateApp(K.CX, (0, 1)),
                GateApp(K.H, (0,)),
            ),
        )
        assert depth(c) == 3

    def test_empty(self):
        assert depth(Circuit(1)) == 0

    def test_barrier_forces_boundary(self):
        # without the barrier H1 packs into layer 1; the barrier aligns q1
        # behind q0's two layers
        free = Circuit(2, 0, (GateApp(K.H, (0,)), GateApp(K.H, (0,)), GateApp(K.H, (1,))))
        assert depth(free) == 2
        barred = Circuit(
            2,
            0,
            (
                GateApp(K.H, (0,)),
                GateApp(K.H, (0,)),
                GateApp(K.BARRIER, (0, 1)),
                GateApp(K.H, (1,)),
            ),
        )
        assert depth(barred) == 3

    def test_measure_counts_one_layer(self):
        c = Circuit(1, 1, (GateApp(K.H, (0,)), GateApp(K.MEASURE, (0,), cbit=0)))
        assert depth(c) == 2


class TestGateCount:
    def test_bell(self):
        counts = gate_count(bell())
        assert counts.counts == {K.H: 1, K.CX: 1}
        assert counts.total == 2

    def test_empty(self):
        assert gate_count(Circuit(1)).total == 0

    def test_barrier_excluded_from_total(self):
        c = Circuit(2, 0, (GateApp(K.H, (0,)), GateApp(K.BARRIER, (0, 1))))
        counts = gate_count(c)
        assert counts.total == 1
        assert counts.of(K.BARRIER) == 1

    def test_measure_included_in_total(self):
        c = Circuit(1, 1, (GateApp(K.MEASURE, (0,), cbit=0),))
        assert gate_count(c).total == 1


class TestFlatten:
    def test_no_boxes_identity(self):
        c = bell()
        assert flatten(c) is c

    def test_clears_boxes(self):
        c = Circuit(
            1,
            0,
            (GateApp(K.H, (0,), box=0), GateApp(K.X, (0,), box=0)),
        )
        flat = flatten(c)
        assert all(g.box is None for g in flat.gates)
        assert same_gates(flat, c)

    def test_idempotent(self):
        c = Circuit(1, 0, (GateApp(K.H, (0,), box=0),))
        assert flatten(flatten(c)) == flatten(c)


@given(circuits(measure=True))
def test_depth_at_most_total(c):
    assert depth(c) <= gate_count(c).total


@given(circuits())
def test_depth_and_counts_invariant_under_flatten(c):
    assert depth(flatten(c)) == depth(c)
    assert gate_count(flatten(c)) == gate_count(c)


def test_depth_equals_total_iff_all_chained():
    rng = random.Random(5)
    chained = Circuit(
        2, 0, tuple(GateApp(K.CX, (0, 1)) if rng.random() < 0.5 else GateApp(K.CZ, (0, 1)) for _ in range(6))
    )
    assert depth(chained) == gate_count(chained).total
