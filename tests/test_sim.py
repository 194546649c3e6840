import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from qobf.ir import Circuit, GateApp, GateKind, UNITARY_KINDS
from qobf.sim import (
    MAX_UNITARY_QUBITS,
    SimulationError,
    equivalent,
    gate_matrix,
    measure_distribution,
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
        from qobf.ir import ARITY

        rng = random.Random(17)
        n = 3
        for _ in range(4):
            qubits = tuple(rng.sample(range(n), ARITY[kind]))
            via_applier = unitary_of([GateApp(kind, qubits)], n_qubits=n)
            by_hand = self._embed_by_hand(kind, qubits, n)
            assert np.max(np.abs(via_applier - by_hand)) < 1e-12, (kind, qubits)


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

    def test_statevector_cap_fails_before_allocating(self):
        with pytest.raises(SimulationError, match="cap"):
            equivalent(Circuit(40), Circuit(40), "statevector")
