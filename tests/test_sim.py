import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qobf._kernel
import qobf.sim
from qobf._kernel import _components, _measured_parts
from qobf.fixtures import standard_fixtures
from qobf.ir import ARITY, Circuit, GateApp, GateKind, UNITARY_KINDS, _kernel_gates
from qobf.passes import METHODS, ObfuscationConfig, apply_pass
from qobf.predicates import multi_pair_predicate
from qobf.qasm import emit
from qobf.sim import (
    MAX_UNITARY_QUBITS,
    SimulationError,
    _basis,
    _run,
    _stimulus,
    equivalent,
    gate_matrix,
    measure_distribution,
    proportional,
    simulate,
    strip_measures,
    unitary_of,
)
from strategies import circuits, random_circuit

K = GateKind
S2 = 1 / math.sqrt(2)


def c1(*kinds) -> Circuit:
    return Circuit(1, 0, tuple(GateApp(k, (0,)) for k in kinds))


def bell_measured() -> Circuit:
    return Circuit(
        2,
        2,
        (
            GateApp(K.H, (0,)),
            GateApp(K.CX, (0, 1)),
            GateApp(K.MEASURE, (0,), cbit=0),
            GateApp(K.MEASURE, (1,), cbit=1),
        ),
    )


class TestGateMatrix:
    def test_x(self):
        assert np.array_equal(gate_matrix(K.X), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_h(self):
        assert np.allclose(gate_matrix(K.H), S2 * np.array([[1, 1], [1, -1]]), atol=1e-15)

    def test_hzh_equals_x(self):
        h, z = gate_matrix(K.H), gate_matrix(K.Z)
        assert np.max(np.abs(h @ z @ h - gate_matrix(K.X))) < 1e-12

    @pytest.mark.parametrize("kind", sorted(UNITARY_KINDS, key=lambda k: k.value))
    def test_unitarity(self, kind):
        u = gate_matrix(kind)
        assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) < 1e-10

    @pytest.mark.parametrize("kind", [K.MEASURE, K.BARRIER])
    def test_non_unitary_kinds_rejected(self, kind):
        with pytest.raises(SimulationError):
            gate_matrix(kind)

    def test_cx_control_convention(self):
        # first operand control: |10> (control=1, target=0) -> |11>
        cx = gate_matrix(K.CX)
        assert cx[3, 2] == 1 and cx[2, 3] == 1 and cx[0, 0] == 1


class TestSimulate:
    def test_h_on_zero(self):
        state = simulate(c1(K.H))
        assert np.allclose(state, [S2, S2], atol=1e-12)

    def test_bell_state(self):
        state = simulate(strip_measures(bell_measured()))
        assert np.allclose(state, [S2, 0, 0, S2], atol=1e-12)
        assert state[1] == 0 and state[2] == 0

    def test_deterministic_interference_segment(self):
        # H walls around Z + two CNOTs onto the last qubit map |000> to |111>
        seg = Circuit(
            3,
            0,
            (
                GateApp(K.H, (0,)),
                GateApp(K.H, (1,)),
                GateApp(K.H, (2,)),
                GateApp(K.Z, (2,)),
                GateApp(K.CX, (0, 2)),
                GateApp(K.CX, (1, 2)),
                GateApp(K.H, (0,)),
                GateApp(K.H, (1,)),
                GateApp(K.H, (2,)),
            ),
        )
        state = simulate(seg)
        assert abs(state[7] - 1.0) < 1e-12
        assert all(state[i] == 0 for i in range(7))

    def test_initial_basis_state(self):
        state = simulate(c1(K.X), initial=1)
        assert state[0] == 1.0

    def test_measure_rejected(self):
        with pytest.raises(SimulationError, match="measure_distribution"):
            simulate(bell_measured())

    def test_qubit_cap(self):
        with pytest.raises(SimulationError, match="cap"):
            simulate(Circuit(25))

    @pytest.mark.parametrize("run", [simulate, unitary_of], ids=["simulate", "unitary_of"])
    def test_measure_rejected_before_any_state(self, run, monkeypatch):
        runs = []

        def recording_run(gates, n, columns):
            runs.append(n)
            return _run(gates, n, columns)

        monkeypatch.setattr(qobf.sim, "_run", recording_run)
        c = Circuit(3, 1, (GateApp(K.H, (0,)), GateApp(K.CX, (0, 1)), GateApp(K.CX, (1, 2)),
                           GateApp(K.MEASURE, (2,), cbit=0)))
        with pytest.raises(SimulationError, match="measurements"):
            run(c)
        assert runs == []

    def test_normalization(self):
        rng = random.Random(3)
        for _ in range(25):
            c = random_circuit(rng, max_qubits=6, max_gates=30)
            state = simulate(c)
            assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-12

    def test_barrier_is_noop(self):
        with_barrier = Circuit(2, 0, (GateApp(K.H, (0,)), GateApp(K.BARRIER, (0, 1)), GateApp(K.CX, (0, 1))))
        without = Circuit(2, 0, (GateApp(K.H, (0,)), GateApp(K.CX, (0, 1))))
        assert np.array_equal(simulate(with_barrier), simulate(without))


class TestUnitaryOf:
    def test_xx_is_identity(self):
        assert np.max(np.abs(unitary_of(c1(K.X, K.X)) - np.eye(2))) < 1e-12

    def test_application_order(self):
        # "S then H" must be H @ S
        u = unitary_of(c1(K.S, K.H))
        assert np.max(np.abs(u - gate_matrix(K.H) @ gate_matrix(K.S))) < 1e-12

    def test_ysy_proportional_to_sdg(self):
        u = unitary_of(c1(K.Y, K.S, K.Y))
        assert np.max(np.abs(u - 1j * gate_matrix(K.SDG))) < 1e-12

    def test_qubit_cap(self):
        with pytest.raises(SimulationError, match="cap"):
            unitary_of(Circuit(11))

    def test_simulate_agrees_with_unitary_columns(self):
        rng = random.Random(11)
        for _ in range(100):
            c = random_circuit(rng, max_qubits=8, max_gates=15)
            u = unitary_of(c)
            b = rng.randrange(2**c.n_qubits)
            assert np.max(np.abs(simulate(c, b) - u[:, b])) < 1e-10

    def test_unitarity_of_random_circuits(self):
        rng = random.Random(13)
        for _ in range(30):
            c = random_circuit(rng, max_qubits=4, max_gates=20)
            u = unitary_of(c)
            assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) < 1e-10

    @staticmethod
    def _embed_by_hand(kind, qubits, n):
        """Independent dense embedding from gate_matrix via bit arithmetic."""
        m = gate_matrix(kind)
        k = len(qubits)
        dim = 2**n
        u = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            loc_in = 0
            for q in qubits:  # operand 0 is the most significant local bit
                loc_in = (loc_in << 1) | ((j >> q) & 1)
            for loc_out in range(2**k):
                amp = m[loc_out, loc_in]
                if amp == 0:
                    continue
                i = j
                for pos, q in enumerate(qubits):
                    bit = (loc_out >> (k - 1 - pos)) & 1
                    i = (i & ~(1 << q)) | (bit << q)
                u[i, j] += amp
        return u

    @pytest.mark.parametrize("kind", sorted(UNITARY_KINDS, key=lambda k: k.value))
    def test_applier_agrees_with_matrix_embedding(self, kind):
        # every ordered operand tuple, as a batch of basis columns and as one
        # basis state at a time
        from itertools import permutations

        from qobf.ir import ARITY

        n = 4
        for qubits in permutations(range(n), ARITY[kind]):
            gates = [GateApp(kind, qubits)]
            by_hand = self._embed_by_hand(kind, qubits, n)
            assert np.array_equal(unitary_of(gates, n_qubits=n), by_hand), (kind, qubits)
            for j in range(2**n):
                column = _run(_kernel_gates(gates), n, lambda dim: _basis(j, dim))
                assert np.array_equal(column, by_hand[:, j]), (kind, qubits, j)

    @pytest.mark.parametrize("kind", [K.X, K.SWAP, K.CX, K.CCX])
    def test_permutation_moves_bits_unchanged(self, kind):
        # array_equal ignores the sign of a zero part; the bytes do not
        from qobf.ir import ARITY

        n = 3
        rng = np.random.default_rng(3)
        state = np.empty(2**n, dtype=complex)
        state.real, state.imag = rng.choice([0.0, -0.0, 0.5, -0.5], (2, 2**n))
        qubits = tuple(range(ARITY[kind]))
        moved = _run(_kernel_gates([GateApp(kind, qubits)]), n, lambda dim: state.copy())
        source = np.argmax(np.abs(self._embed_by_hand(kind, qubits, n)), axis=1)
        assert moved.tobytes() == state[source].tobytes()


class TestMeasureDistribution:
    def test_bell_exact(self):
        dist = measure_distribution(bell_measured())
        assert dist == {"00": 0.5, "11": 0.5}
        assert dist.get("01", 0.0) == 0.0 and dist.get("10", 0.0) == 0.0

    def test_eight_pairs_all_ones(self):
        gates = []
        for i in range(8):
            gates += [GateApp(K.H, (2 * i,)), GateApp(K.CX, (2 * i, 2 * i + 1))]
        gates += [GateApp(K.MEASURE, (q,), cbit=q) for q in range(16)]
        dist = measure_distribution(Circuit(16, 16, tuple(gates)))
        assert dist["1" * 16] == 1 / 256

    def test_partial_measurement_marginal(self):
        c = Circuit(
            2,
            1,
            (
                GateApp(K.H, (0,)),
                GateApp(K.CX, (0, 1)),
                GateApp(K.MEASURE, (1,), cbit=0),
            ),
        )
        assert measure_distribution(c) == {"0": 0.5, "1": 0.5}

    def test_cbit_order_is_rightmost_lowest(self):
        # q0 |1>, q1 |0>; q0 -> c1 so the "1" lands in the left character
        c = Circuit(
            2,
            2,
            (
                GateApp(K.X, (0,)),
                GateApp(K.MEASURE, (0,), cbit=1),
                GateApp(K.MEASURE, (1,), cbit=0),
            ),
        )
        assert measure_distribution(c) == {"10": 1.0}

    def test_requires_measurements(self):
        with pytest.raises(SimulationError, match="no measurements"):
            measure_distribution(c1(K.H))

    def test_mid_circuit_measure_deferred(self):
        c = Circuit(
            2,
            2,
            (
                GateApp(K.H, (0,)),
                GateApp(K.MEASURE, (0,), cbit=0),
                GateApp(K.X, (1,)),
                GateApp(K.MEASURE, (1,), cbit=1),
            ),
        )
        assert measure_distribution(c) == {"10": 0.5, "11": 0.5}


#: (qubits, gate): circuits that differ from the identity only where a check
#: probing |0...0> and a few basis states cannot see (a phase, or a
#: permutation of states it never visits)
PROBE_BLIND = [
    (1, GateApp(K.Z, (0,))),
    (3, GateApp(K.CCX, (0, 1, 2))),
    (8, GateApp(K.T, (0,))),
    (8, GateApp(K.CZ, (0, 1))),
    (16, GateApp(K.S, (0,))),
]


class TestEquivalent:
    def test_reflexive(self, fixtures):
        for c in fixtures.values():
            for mode in ("statevector", "unitary", "distribution"):
                ok, fidelity = equivalent(c, c, mode)
                assert ok and fidelity == pytest.approx(1.0, abs=1e-12)

    def test_x_vs_hzh(self):
        ok, fidelity = equivalent(c1(K.X), c1(K.H, K.Z, K.H))
        assert ok and fidelity == pytest.approx(1.0, abs=1e-9)
        ok, _ = equivalent(c1(K.X), c1(K.H, K.Z, K.H), "unitary")
        assert ok

    def test_x_vs_z_not_equivalent(self):
        ok, fidelity = equivalent(c1(K.X), c1(K.Z), "unitary")
        assert not ok
        assert fidelity == pytest.approx(0.0, abs=1e-12)
        assert equivalent(c1(K.X), c1(K.Z), "statevector")[0] is False

    def test_global_phase_ignored(self):
        # ZXZ = -X: identical up to a global phase in every mode
        ok, _ = equivalent(c1(K.X), c1(K.Z, K.X, K.Z), "unitary")
        assert ok
        ok, _ = equivalent(c1(K.X), c1(K.Z, K.X, K.Z), "statevector")
        assert ok

    def test_relative_phase_detected(self):
        # S vs Z differ by a relative phase that |0>/|1> probing alone misses
        ok, _ = equivalent(c1(K.S), c1(K.Z), "unitary")
        assert not ok

    def test_symmetry(self):
        a, b = c1(K.X), c1(K.H, K.Z, K.H)
        assert equivalent(a, b, "unitary")[0] == equivalent(b, a, "unitary")[0]

    def test_qubit_mismatch(self):
        with pytest.raises(SimulationError, match="mismatch"):
            equivalent(c1(K.X), Circuit(2, 0, (GateApp(K.X, (0,)),)))

    def test_distribution_mode(self):
        a = bell_measured()
        flipped = Circuit(
            2,
            2,
            (
                GateApp(K.H, (1,)),
                GateApp(K.CX, (1, 0)),
                GateApp(K.MEASURE, (0,), cbit=0),
                GateApp(K.MEASURE, (1,), cbit=1),
            ),
        )
        ok, fidelity = equivalent(a, flipped, "distribution")
        assert ok and fidelity == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["statevector", "unitary"])
    def test_measurement_pairs_compared(self, mode):
        unitary = (GateApp(K.H, (0,)), GateApp(K.CX, (0, 1)))
        a = bell_measured()
        retargeted = Circuit(2, 2, unitary + (GateApp(K.MEASURE, (0,), cbit=1),))
        assert equivalent(a, retargeted, mode) == (False, 0.0)
        # the pairs differ, but the distributions agree: q0 and q1 always match
        swapped = Circuit(
            2, 2, unitary + (GateApp(K.MEASURE, (1,), cbit=0), GateApp(K.MEASURE, (0,), cbit=1))
        )
        assert equivalent(a, swapped, mode)[0]

    def test_unknown_mode(self):
        with pytest.raises(SimulationError, match="unknown equivalence mode"):
            equivalent(c1(K.X), c1(K.X), "shots")

    @given(circuits(max_qubits=4, max_gates=10))
    @settings(max_examples=40)
    def test_unitary_equivalence_implies_statevector(self, c):
        shifted = Circuit(c.n_qubits, c.n_cbits, (GateApp(K.Z, (0,)), GateApp(K.Z, (0,))) + c.gates)
        ok_u, _ = equivalent(c, shifted, "unitary")
        ok_sv, _ = equivalent(c, shifted, "statevector")
        assert ok_u and ok_sv

    @pytest.mark.parametrize(
        "mode, n, gate",
        [("statevector", n, g) for n, g in PROBE_BLIND]
        + [("unitary", n, g) for n, g in PROBE_BLIND if n <= MAX_UNITARY_QUBITS],
        ids=lambda v: v.kind.value if isinstance(v, GateApp) else str(v),
    )
    def test_identity_vs_probe_blind_gate(self, mode, n, gate):
        ok, fidelity = equivalent(Circuit(n), Circuit(n, 0, (gate,)), mode)
        assert ok is False
        assert fidelity < 1 - 1e-6

    def test_statevector_fidelity_is_overlap(self):
        # |<psi|T psi>| = |p + (1 - p) e^(i pi/4)| with p = |psi_0|^2 in (0, 1),
        # which lies in [cos(pi/8), 1)
        ok, fidelity = equivalent(c1(), c1(K.T), "statevector")
        assert not ok
        assert math.cos(math.pi / 8) <= fidelity < 1

    def test_unitary_fidelity_is_normalised_trace(self):
        rng = random.Random(13)
        for _ in range(20):
            a = random_circuit(rng, min_qubits=2, max_qubits=5, max_gates=15)
            b = random_circuit(rng, min_qubits=a.n_qubits, max_qubits=a.n_qubits, max_gates=15)
            u_a, u_b = unitary_of(a), unitary_of(b)
            want = abs(np.trace(u_a.conj().T @ u_b)) / len(u_a)
            assert equivalent(a, b, "unitary")[1] == pytest.approx(want, abs=1e-12)

    def test_statevector_cap_fails_before_allocating(self):
        with pytest.raises(SimulationError, match="cap"):
            equivalent(Circuit(40), Circuit(40), "statevector")


def _two_run_check(a: Circuit, b: Circuit, mode: str) -> tuple[bool, float]:
    """The oracle without a miter: each circuit, measurements stripped, run
    on its own, and the two outputs compared."""
    if mode == "unitary":
        out_a, out_b = unitary_of(strip_measures(a)), unitary_of(strip_measures(b))
    else:
        out_a, out_b = (_run(_kernel_gates(strip_measures(c).gates), c.n_qubits, _stimulus)
                        for c in (a, b))
    ok, _ = proportional(out_a, out_b)
    return ok, float(abs(np.vdot(out_a, out_b)) / (out_a.size // len(out_a)))


@st.composite
def unrelated_pairs(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = random_circuit(rng, max_qubits=5, max_gates=20)
    return a, random_circuit(rng, min_qubits=a.n_qubits, max_qubits=a.n_qubits, max_gates=20)


#: the pass inputs of the differential test below: the fixtures, and random
#: measured circuits up to the unitary mode's width
_PASS_INPUTS = list(standard_fixtures().values()) + [
    random_circuit(random.Random(seed), min_qubits=2, max_qubits=MAX_UNITARY_QUBITS,
                   max_gates=40, measure=True, barriers=True)
    for seed in range(6)
]


class TestMiterAgainstTwoRuns:
    """The reduced miter decides as running both circuits did: the same
    verdict and the same fidelity within 1e-12."""

    @staticmethod
    def assert_agrees(a: Circuit, b: Circuit) -> None:
        for mode in ("statevector", "unitary"):
            ok, fidelity = equivalent(a, b, mode)
            want_ok, want_fidelity = _two_run_check(a, b, mode)
            assert ok == want_ok, mode
            assert abs(fidelity - want_fidelity) <= 1e-12, mode

    @given(unrelated_pairs())
    @settings(max_examples=60, deadline=None)
    def test_unrelated_pairs(self, pair):
        self.assert_agrees(*pair)

    @given(st.sampled_from(range(len(_PASS_INPUTS))), st.sampled_from(sorted(METHODS)),
           st.integers(min_value=0, max_value=2**16), st.none() | st.randoms())
    @settings(max_examples=80, deadline=None)
    def test_pass_outputs_with_and_without_stray_gate(self, which, method, seed, stray):
        source = _PASS_INPUTS[which]
        out = apply_pass(method, source, ObfuscationConfig(seed=seed))
        if stray is not None:
            rng, gates = stray, out.gates
            end = next((i for i, g in enumerate(gates) if g.kind is K.MEASURE), len(gates))
            kind = rng.choice(sorted((k for k in UNITARY_KINDS if ARITY[k] <= out.n_qubits),
                                     key=lambda k: k.value))
            gate = GateApp(kind, tuple(rng.sample(range(out.n_qubits), ARITY[kind])))
            at = rng.randint(0, end)
            out = out.with_gates(gates[:at] + (gate,) + gates[at:])
        self.assert_agrees(source, out)
        if stray is None:
            assert equivalent(source, out, "unitary")[0]


def _dense_state(circuit: Circuit, initial: int = 0) -> np.ndarray:
    """The whole circuit on one 2^n state: the unfactored reference path."""
    return _run(_kernel_gates(strip_measures(circuit).gates), circuit.n_qubits,
                lambda dim: _basis(initial, dim))


def _dense_distribution(circuit: Circuit) -> dict[str, float]:
    """Outcome distribution read bit by bit off the dense state."""
    pairs = sorted(
        ((g.cbit, g.qubits[0]) for g in circuit.gates if g.kind is K.MEASURE), reverse=True
    )
    probs = np.abs(_dense_state(circuit)) ** 2
    dist: dict[str, float] = {}
    for index, p in enumerate(probs):
        key = "".join(str((index >> q) & 1) for _, q in pairs)
        dist[key] = dist.get(key, 0.0) + float(p)
    total = sum(dist.values())
    return {k: p / total for k, p in dist.items()}


@st.composite
def disjoint_unions(draw):
    """1-3 random sub-circuits on disjoint, scattered qubits, gates interleaved."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    parts = [
        random_circuit(rng, max_qubits=4, max_gates=10, measure=rng.random() < 0.7, barriers=True)
        for _ in range(rng.randint(1, 3))
    ]
    n = sum(c.n_qubits for c in parts)
    scatter = rng.sample(range(n), n)
    queues, q0, c0 = [], 0, 0
    for c in parts:
        queues.append([
            g._replace(qubits=tuple(scatter[q0 + q] for q in g.qubits),
                       cbit=None if g.cbit is None else c0 + g.cbit)
            for g in c.gates
        ])
        q0, c0 = q0 + c.n_qubits, c0 + c.n_cbits
    gates = []
    while any(queues):
        gates.append(rng.choice([q for q in queues if q]).pop(0))
    return Circuit(n, c0, tuple(gates))


def _pairs(n_pairs: int, measured: bool = False) -> Circuit:
    gates = []
    for i in range(n_pairs):
        gates += [GateApp(K.H, (2 * i,)), GateApp(K.CX, (2 * i, 2 * i + 1))]
    if measured:
        gates += [GateApp(K.MEASURE, (q,), cbit=q) for q in range(2 * n_pairs)]
    return Circuit(2 * n_pairs, 2 * n_pairs if measured else 0, tuple(gates))


class TestFactoredSimulation:
    @given(disjoint_unions(), st.integers(min_value=0, max_value=2**12 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_dense(self, c, initial):
        initial %= 2**c.n_qubits
        factored = simulate(strip_measures(c), initial)
        assert np.max(np.abs(factored - _dense_state(c, initial))) <= 1e-12
        if c.n_cbits:
            factored_dist = measure_distribution(c)
            dense_dist = _dense_distribution(c)
            assert list(factored_dist) == sorted(factored_dist)  # keys ascend, as emitted in JSON
            keys = set(factored_dist) | set(dense_dist)
            assert all(abs(factored_dist.get(k, 0.0) - dense_dist.get(k, 0.0)) <= 1e-12 for k in keys)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_multi_pair_exact(self, n):
        dist = measure_distribution(multi_pair_predicate(n).circuit)
        assert len(dist) == 2**n
        assert all(p == 2.0**-n for p in dist.values())

    def test_multi_pair_amplitudes_bit_identical(self):
        c = strip_measures(multi_pair_predicate(11).circuit)
        assert simulate(c).tobytes() == _dense_state(c).tobytes()

    def test_barrier_joins_nothing(self):
        c = Circuit(4, 0, (
            GateApp(K.H, (0,)),
            GateApp(K.CX, (0, 1)),
            GateApp(K.BARRIER, (0, 1, 2, 3)),
            GateApp(K.CX, (3, 2)),
        ))
        parts = _components(_kernel_gates(c.gates), c.n_qubits)
        assert [qubits for qubits, _ in parts] == [[0, 1], [2, 3]]
        assert sum(len(gates) for _, gates in parts) == 3

    def test_untouched_measured_qubit_reads_zero(self):
        c = Circuit(3, 2, (
            GateApp(K.H, (0,)),
            GateApp(K.MEASURE, (0,), cbit=0),
            GateApp(K.MEASURE, (2,), cbit=1),
        ))
        assert measure_distribution(c) == {"00": 0.5, "01": 0.5}

    def test_keys_ascend_across_components(self):
        # the first component holds the lowest classical bit, so the product
        # order of the components' outcomes is not the key order
        c = Circuit(2, 2, (
            GateApp(K.H, (0,)),
            GateApp(K.H, (1,)),
            GateApp(K.MEASURE, (0,), cbit=0),
            GateApp(K.MEASURE, (1,), cbit=1),
        ))
        assert list(measure_distribution(c)) == ["00", "01", "10", "11"]

    def test_unmeasured_component_never_runs(self, monkeypatch):
        sizes = []

        def recording_run(gates, n, columns):
            sizes.append(n)
            return _run(gates, n, columns)

        monkeypatch.setattr(qobf.sim, "_run", recording_run)
        ghz = (GateApp(K.H, (2,)), GateApp(K.CX, (2, 3)), GateApp(K.CX, (3, 4)))
        c = Circuit(5, 2, bell_measured().gates + ghz)
        assert measure_distribution(c) == {"00": 0.5, "11": 0.5}
        assert sizes == [2]

    def test_initial_basis_state_per_component(self):
        # X on q0, CX(q1, q2) from |q2 q1 q0> = |0 1 1>: q0 -> 0, q2 -> 1
        c = Circuit(3, 0, (GateApp(K.X, (0,)), GateApp(K.CX, (1, 2))))
        state = simulate(c, initial=0b011)
        assert state[0b110] == 1 and np.count_nonzero(state) == 1

    def test_cap_holds_for_product_circuits(self):
        with pytest.raises(SimulationError, match="cap"):
            simulate(_pairs(13))
        with pytest.raises(SimulationError, match="cap"):
            measure_distribution(_pairs(13, measured=True))

    def test_distribution_cap_checked_before_split(self, monkeypatch):
        splits = []

        def recording_parts(gates, measured, n):
            splits.append(n)
            return _measured_parts(gates, measured, n)

        monkeypatch.setattr(qobf._kernel, "_measured_parts", recording_parts)
        c = Circuit(25, 1, (GateApp(K.H, (0,)), GateApp(K.MEASURE, (0,), cbit=0)))
        with pytest.raises(SimulationError, match="cap"):
            measure_distribution(c)
        assert splits == []


#: sha256 over the dense oracle's raw results below. Every float the oracle
#: returns is pinned bit for bit, so a rewrite of the applier that reorders or
#: fuses a floating-point operation changes this digest.
DENSE_BITS_SHA256 = "62ef41fb8bc173ca11806a0e57c54e80be23fece110b2f430a4251a8a99d4199"


def test_dense_oracle_bits_pinned():
    cases = list(standard_fixtures().values())
    rng = random.Random(16)
    for n in range(3, 12):
        for _ in range(3):
            cases.append(random_circuit(rng, max_qubits=n, min_qubits=n, max_gates=80,
                                        min_gates=20, measure=True, barriers=True))
    digest = hashlib.sha256()
    for c in cases:
        bare = strip_measures(c)
        digest.update(simulate(bare).tobytes())
        digest.update(simulate(bare, initial=2**c.n_qubits - 1).tobytes())
        digest.update(_run(_kernel_gates(bare.gates), c.n_qubits, _stimulus).tobytes())
        if c.n_qubits <= 8:
            digest.update(unitary_of(bare).tobytes())
        digest.update(repr(measure_distribution(c)).encode())
    assert digest.hexdigest() == DENSE_BITS_SHA256


def test_distribution_fidelity_ignores_hash_seed(tmp_path):
    # 256 outcome keys on each side: a float sum taken in set order rounds
    # differently under different string hash seeds
    n = 8
    base = random_circuit(random.Random(4), max_qubits=n, min_qubits=n, max_gates=60, min_gates=60)
    stray = base.gates[:30] + (GateApp(K.H, (3,)),) + base.gates[30:]
    measures = tuple(GateApp(K.MEASURE, (q,), cbit=q) for q in range(n))
    for name, gates in (("a", base.gates), ("b", stray)):
        (tmp_path / f"{name}.qasm").write_text(emit(Circuit(n, n, gates + measures)))
    code = (
        "import sys\n"
        "from qobf.qasm import parse\n"
        "from qobf.sim import _distribution_check\n"
        "a, b = (parse(open(p).read()).circuit for p in sys.argv[1:])\n"
        "print(_distribution_check(a, b)[1].hex())\n"
    )
    fidelities = set()
    for seed in range(8):
        env = {**os.environ, "PYTHONPATH": str(Path(qobf.sim.__file__).parents[1]),
               "PYTHONHASHSEED": str(seed)}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "a.qasm"), str(tmp_path / "b.qasm")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        fidelities.add(proc.stdout.strip())
    assert len(fidelities) == 1, sorted(fidelities)
