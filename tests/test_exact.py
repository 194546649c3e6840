import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qobf
import qobf.exact
import qobf.sim
from qobf.exact import (
    MAX_EXACT_QUBITS,
    ONE,
    ZERO,
    Dyadic,
    exact_amplitudes,
    exact_distribution,
    exact_probabilities,
    identity_phase,
)
from qobf._kernel import _basis_run
from qobf.ir import _INVERSE, ARITY, UNITARY_KINDS, Circuit, GateApp, GateKind, SimulationError, _kernel_gates
from qobf.miter import equivalent, reduced_miter
from qobf.passes import DELAYED_SEQUENCES, _instantiate, _span_phase
from qobf.predicates import (
    bell_predicate,
    branch_predicate,
    multi_pair_predicate,
    outcome_model,
    shroud_predicate,
)
from qobf.sim import measure_distribution, simulate, strip_measures

from strategies import circuits


def _sign(p: int, q: int) -> int:
    """Sign of p + q√2, decided in integers."""
    if p >= 0 and q >= 0:
        return int(p > 0 or q > 0)
    if p <= 0 and q <= 0:
        return -1
    bigger = p * p - 2 * q * q  # |p| vs |q|√2; never 0 with q != 0
    return (1 if bigger > 0 else -1) * (1 if p > 0 else -1)


def _compare(x: Dyadic, f: Fraction) -> int:
    """Sign of x - f, for a dyadic rational f."""
    num, den = f.numerator, f.denominator
    return _sign(x.p * den - num * (1 << x.k), x.q * den)


class TestDyadic:
    def test_canonical_form(self):
        assert Dyadic(4, 2, 2) == Dyadic(2, 1, 1)
        assert Dyadic(2, 0, 1) == ONE
        assert Dyadic(0, 0, 9) == ZERO

    def test_arithmetic(self):
        half_root2 = Dyadic(0, 1, 1)
        assert half_root2 * half_root2 == Dyadic(1, 0, 1)
        assert ONE - half_root2 + half_root2 == ONE
        assert float(half_root2) == math.sqrt(0.5)

    @given(st.integers(-2**80, 2**80), st.integers(-2**80, 2**80), st.integers(0, 200))
    @settings(max_examples=300, deadline=None)
    def test_float_is_correctly_rounded(self, p, q, k):
        x = Dyadic(p, q, k)
        f = float(x)
        if not x.q:
            assert f == float(Fraction(x.p, 1 << x.k))
            return
        # the exact value lies strictly inside f's rounding interval
        half_ulp = Fraction(math.ulp(f)) / 2
        assert _compare(x, Fraction(f) - half_ulp) > 0
        assert _compare(x, Fraction(f) + half_ulp) < 0


def _within_one_ulp(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= math.ulp(max(abs(a), abs(b)))


class TestAgainstDense:
    @given(circuits(max_qubits=3, max_gates=16))
    @settings(max_examples=200, deadline=None)
    def test_random_amplitudes(self, c):
        dense = simulate(c)
        assert np.max(np.abs(np.array(exact_amplitudes(c)) - dense)) <= 1e-12

    @given(circuits(max_qubits=3, max_gates=16, measure=True))
    @settings(max_examples=200, deadline=None)
    def test_random_distributions(self, c):
        exact, dense = exact_distribution(c), measure_distribution(c)
        assert set(exact) <= set(dense)  # dense may keep a rounding residue exact drops
        assert all(abs(exact.get(k, 0.0) - p) <= 1e-12 for k, p in dense.items())

    def test_bell(self):
        assert outcome_model(bell_predicate()) == {"00": 0.5, "11": 0.5}
        assert measure_distribution(bell_predicate().circuit) == {"00": 0.5, "11": 0.5}

    def test_shroud(self):
        exact = outcome_model(shroud_predicate())
        assert exact == (complex(math.sqrt(0.5)), complex(math.sqrt(0.5)))
        dense = simulate(shroud_predicate().circuit)
        assert all(_within_one_ulp(a.real, b.real) and a.imag == b.imag == 0
                   for a, b in zip(exact, dense))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_multi_pair(self, n):
        exact = outcome_model(multi_pair_predicate(n))
        assert exact == measure_distribution(multi_pair_predicate(n).circuit)
        assert len(exact) == 2**n and set(exact.values()) == {2.0**-n}

    def test_branch_seeds(self):
        # the exact values are correctly rounded (see TestDyadic); the dense
        # path, which normalises float marginals, misses them on four seeds
        ulps_off = {}
        for seed in range(3000):
            p = branch_predicate(seed)
            exact, dense = outcome_model(p), measure_distribution(p.circuit)
            assert list(exact) == list(dense), seed
            worst = max(abs(exact[k] - dense[k]) / math.ulp(exact[k]) for k in exact)
            if worst:
                ulps_off[seed] = worst
        assert ulps_off == {699: 2.0, 706: 1.0, 1915: 1.0, 1929: 1.0}


class TestCaps:
    def test_wide_component_refused(self):
        n = MAX_EXACT_QUBITS + 1
        chain = Circuit(n, 1, tuple(GateApp(GateKind.CX, (q, q + 1)) for q in range(n - 1))
                        + (GateApp(GateKind.MEASURE, (0,), cbit=0),))
        with pytest.raises(SimulationError, match="exact simulator cap"):
            exact_distribution(chain)
        with pytest.raises(SimulationError, match="exact simulator cap"):
            exact_amplitudes(strip_measures(chain))

    def test_many_narrow_components_run(self):
        dist = exact_probabilities(multi_pair_predicate(12).circuit)
        assert dist["1" * 24] == Dyadic(1, 0, 12)

    def test_measurements_rejected_for_amplitudes(self):
        with pytest.raises(SimulationError, match="measurements"):
            exact_amplitudes(bell_predicate().circuit)

    def test_unmeasured_rejected_for_distribution(self):
        with pytest.raises(SimulationError, match="no measurements"):
            exact_distribution(Circuit(2, 0, (GateApp(GateKind.H, (0,)),)))

    @pytest.mark.parametrize(
        "pairs, named", [(((0, 0), (0, 1)), "qubit 0"), (((0, 1), (1, 1)), "classical bit 1")]
    )
    def test_repeated_measurement_refused_by_both(self, pairs, named):
        measures = tuple(GateApp(GateKind.MEASURE, (q,), cbit=c) for q, c in pairs)
        c = Circuit(2, 2, (GateApp(GateKind.H, (0,)),) + measures)
        for distribution in (exact_distribution, measure_distribution):
            with pytest.raises(SimulationError, match=f"{named} is measured more than once"):
                distribution(c)


def test_mid_circuit_measurement_deferred():
    gates = (GateApp(GateKind.H, (0,)), GateApp(GateKind.MEASURE, (0,), cbit=1),
             GateApp(GateKind.T, (1,)), GateApp(GateKind.H, (1,)),
             GateApp(GateKind.MEASURE, (1,), cbit=0))
    c = Circuit(2, 2, gates)
    assert exact_distribution(c) == {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}


def _gates(*spec):
    return [GateApp(GateKind(name), qubits) for name, qubits in spec]


class TestIdentityPhase:
    @pytest.mark.parametrize(
        "gates, n",
        [
            (_gates(("x", (0,))), 1),  # a permutation with no fixed point
            (_gates(("swap", (0, 1))), 2),  # fixes |00> and |11>, moves the rest
            (_gates(("z", (0,))), 1),  # diagonal, not a scalar
            (_gates(("cz", (0, 1))), 2),
            (_gates(("h", (0,))), 1),
            (_gates(("x", (1,))), 2),  # the identity on qubit 0 only
        ],
        ids=["x", "swap", "z", "cz", "h", "x-on-one-of-two"],
    )
    def test_not_a_scalar(self, gates, n):
        assert identity_phase(gates, n) is None

    @pytest.mark.parametrize(
        "gates, n, phase",
        [
            ([], 2, 1),
            (_gates(("h", (0,)), ("h", (0,))), 1, 1),
            (_gates(("x", (0,)), ("z", (0,)), ("x", (0,)), ("z", (0,))), 1, -1),
            (_gates(("s", (0,)), ("h", (0,))) * 3, 1, complex(math.sqrt(0.5), math.sqrt(0.5))),
            (_gates(("cx", (0, 1)), ("cx", (1, 0)), ("cx", (0, 1)), ("swap", (0, 1))), 2, 1),
            (_gates(("ccx", (0, 1, 2)), ("barrier", (0, 1, 2)), ("ccx", (0, 1, 2))), 3, 1),
        ],
        ids=["empty", "hh", "xzxz", "sh-cubed", "cx3-swap", "ccx-ccx"],
    )
    def test_exact_phase(self, gates, n, phase):
        # == on floats: ω comes back as the correctly rounded √½ in both parts
        assert identity_phase(gates, n) == phase

    def test_measurement_refused(self):
        with pytest.raises(SimulationError, match="measurements"):
            identity_phase([GateApp(GateKind.MEASURE, (0,), cbit=0)], 1)

    @given(circuits(max_qubits=3, max_gates=10), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_without_h_agrees_with_the_basis_run(self, c, closed):
        """Without H, the phase test follows one index per basis state; it
        returns what the kernel's basis-state run of every column gives.
        ``closed`` appends the gates' inverse, so phases come up too."""
        gates = [g for g in c.gates if g.kind is not GateKind.H]
        if closed:
            gates += [GateApp(_INVERSE.get(g.kind, g.kind), g.qubits) for g in reversed(gates)]
        pairs = _kernel_gates(gates)
        expected = None
        for s in range(1 << c.n_qubits):
            state, k = _basis_run(pairs, c.n_qubits, s)
            column = [(0, 0, 0, 0)] * len(state)
            column[s] = state[0] if expected is None else expected[0]
            if state[s] == (0, 0, 0, 0) or state != column:
                expected = None
                break
            expected = (state[s], k)
        assert qobf.exact._monomial_phase(pairs, c.n_qubits) == expected


def _kinds(gates):
    return [(g.kind.value, g.qubits) for g in gates]


class TestReducedMiter:
    """Each rewrite of :func:`reduced_miter`, on miters of ``first`` and
    ``second``; an empty ``second`` leaves ``first`` as the whole miter."""

    def test_inverse_pair_cancels_across_other_qubits(self):
        first = _gates(("s", (0,)), ("h", (1,)), ("cx", (1, 2)), ("ccx", (1, 2, 3)))
        second = _gates(("s", (0,)))
        # s · (h, cx, ccx) · sdg: s meets sdg past the gates on qubits 1-3
        assert _kinds(reduced_miter(first, second)) == [("h", (1,)), ("cx", (1, 2)), ("ccx", (1, 2, 3))]

    def test_gate_on_shared_qubit_blocks(self):
        first = _gates(("cx", (0, 1)), ("h", (1,)), ("cx", (0, 1)))
        assert len(reduced_miter(first, [])) == 3

    def test_operand_order_must_match(self):
        first = _gates(("cx", (0, 1)), ("cx", (1, 0)))
        assert len(reduced_miter(first, [])) == 2
        assert reduced_miter(_gates(("cx", (0, 1))), _gates(("cx", (0, 1)))) == []

    def test_x_against_hzh_drops_as_one_run(self):
        assert reduced_miter(_gates(("x", (0,))), _gates(("h", (0,)), ("z", (0,)), ("h", (0,)))) == []

    def test_collapse_from_the_middle(self):
        # x and h z h drop as one phase, which leaves the cx pair, then the
        # t pair, on top
        first = _gates(("t", (0,)), ("cx", (0, 1)), ("x", (0,)))
        second = _gates(("t", (0,)), ("cx", (0, 1)), ("h", (0,)), ("z", (0,)), ("h", (0,)))
        assert reduced_miter(first, second) == []

    @pytest.mark.parametrize("a", [k for k in GateKind if ARITY[k] == 1 and k is not GateKind.MEASURE],
                             ids=lambda k: k.value)
    def test_two_one_qubit_kinds_make_a_phase_only_as_inverses(self, a):
        """Why the span rule's adjacent inverse cancel misses no phase of two
        one-qubit gates."""
        for b in GateKind:
            if ARITY[b] == 1 and b is not GateKind.MEASURE:
                pair = [GateApp(a, (0,)), GateApp(b, (0,))]
                assert (identity_phase(pair, 1) is not None) == (b is _INVERSE.get(a, a))

    def test_one_qubit_phase_read_past_gates_on_other_qubits(self):
        """h z h x on qubit 0 is a phase; the gates on qubits 1-3 between its
        gates stay."""
        first = _gates(("h", (0,)), ("cx", (1, 2)), ("z", (0,)), ("ccx", (1, 2, 3)), ("h", (0,)), ("x", (0,)))
        assert _kinds(reduced_miter(first, [])) == [("cx", (1, 2)), ("ccx", (1, 2, 3))]

    def test_hsh_kept(self):
        first = _gates(("h", (0,)), ("s", (0,)), ("h", (0,)))
        assert _kinds(reduced_miter(first, [])) == [("h", (0,)), ("s", (0,)), ("h", (0,))]

    def test_stray_t_survives(self):
        circuit = _gates(("h", (0,)), ("cx", (0, 1)), ("s", (1,)), ("h", (1,)))
        stray = circuit[:2] + _gates(("t", (1,))) + circuit[2:]
        # the tdg stays, and the cx pair on its qubit stays around it
        assert _kinds(reduced_miter(circuit, stray)) == [
            ("h", (0,)), ("cx", (0, 1)), ("tdg", (1,)), ("cx", (0, 1)), ("h", (0,))]

    def test_barriers_dropped_measurements_refused(self):
        first = _gates(("x", (0,)), ("barrier", (0, 1)), ("x", (0,)))
        assert reduced_miter(first, []) == []
        with pytest.raises(SimulationError, match="measurements"):
            reduced_miter([GateApp(GateKind.MEASURE, (0,), cbit=0)], [])

    @given(circuits(max_qubits=3, max_gates=14), circuits(max_qubits=3, max_gates=14))
    @settings(max_examples=60, deadline=None)
    def test_reduction_keeps_the_miter_up_to_phase(self, a, b):
        """The reduced miter is the unreduced one up to a global phase."""
        n = 1 + max(q for g in (*a.gates, *b.gates, GateApp(GateKind.H, (0,))) for q in g.qubits)
        inverted = [GateApp(_INVERSE.get(g.kind, g.kind), g.qubits) for g in reversed(b.gates)]
        reduced = reduced_miter(a.gates, b.gates)
        check = reduced + [GateApp(_INVERSE.get(g.kind, g.kind), g.qubits)
                           for g in reversed([*a.gates, *inverted])]
        assert identity_phase(check, n) is not None


    #: a delayed window with the longest wrapper and a three-gate block: in
    #: the miter it meets its block as b, w⁻¹, b⁻¹, w⁻¹, MAX_SPAN = 20 gates
    BLOCK = _gates(("y", (1,)), ("s", (0,)), ("cz", (1, 0)))
    WRAPPER = _gates(*[(kind, (1,)) for kind in ("h", "t", "t", "h", "t", "t", "h")])

    def test_delayed_window_drops_as_one_span(self):
        first, second = self.BLOCK, self.WRAPPER + self.BLOCK + self.WRAPPER
        assert reduced_miter(first, second) == []

    def test_span_limit(self):
        """The window's miter with its sdg written as tdg tdg is a phase of
        21 gates, none of whose runs of 2 to 20 gates is one: past MAX_SPAN,
        every gate stays."""
        miter = [(g.kind, g.qubits) for g in self.BLOCK]
        miter += [(_INVERSE.get(g.kind, g.kind), g.qubits)
                  for g in reversed(self.WRAPPER + self.BLOCK + self.WRAPPER)]
        at = miter.index((GateKind.SDG, (0,)))
        gates = _gates(*[(k.value, q) for k, q in miter[:at] + [(GateKind.TDG, (0,))] * 2 + miter[at + 1:]])
        assert len(gates) == 21 and identity_phase(gates, 2) is not None
        assert len(reduced_miter(gates, [])) == 21

    def test_stray_t_in_a_window_survives(self):
        second = self.WRAPPER + _gates(("t", (0,))) + self.BLOCK + self.WRAPPER
        assert reduced_miter(self.BLOCK, second) != []

    def test_first_circuit_gates_wait_for_their_windows(self):
        """The first window the miter meets (around ``x q[2]``) makes a phase
        with the two cx gates below it, which cancel each other; dropped
        with it, they would leave their own windows nothing to meet."""
        first = _gates(("cx", (0, 1)), ("h", (2,)), ("cx", (0, 1)), ("x", (2,)))
        szs = _gates(("s", (0,)), ("z", (0,)), ("sdg", (0,)))
        yxy = _gates(*[(kind, (2,)) for kind in ("y", "x", "y", "x", "y")])
        htt = _gates(*[(kind, (2,)) for kind in ("h", "t", "t", "h", "t", "t", "h")])
        second = (szs + first[:1] + szs + yxy + first[1:2] + yxy
                  + szs + first[2:3] + szs + htt + first[3:] + htt)
        assert reduced_miter(first, second) == []

    def test_block_holding_an_inverse_pair(self):
        """The second circuit's copy of the block ``cx cx`` cancels on its
        own, so the first circuit's copy is dropped as a phase of its own
        before the window below it can meet ``h q[0]``."""
        first = _gates(("h", (0,)), ("cx", (1, 2)), ("cx", (1, 2)))
        sxs = _gates(("swap", (1, 2)), ("x", (1,)), ("swap", (1, 2)))
        zhyhz = _gates(*[(kind, (0,)) for kind in ("z", "h", "y", "h", "z")])
        second = zhyhz + first[:1] + zhyhz + sxs + first[1:] + sxs
        assert reduced_miter(first, second) == []

    def test_block_copy_cancelled_on_its_own_is_retried(self):
        """Seed 9 of a sweep over small random circuits, cut down: the second
        circuit's copy of the block ``h q[1]; h q[1]`` cancels on its own,
        and the first circuit's copy blocks ``ccx q[0],q[3],q[1]`` below it
        until the span rule drops it as a phase of its own and pushes the
        second circuit's gates again. Read per qubit instead, the window
        ``s z sdg`` around ``cx q[0],q[2]; ccx q[1],q[0],q[2]`` stays."""
        first = _gates(("cx", (0, 2)), ("ccx", (1, 0, 2)), ("ccx", (0, 3, 1)), ("h", (1,)), ("h", (1,)))
        szs = _gates(*[(kind, (1,)) for kind in ("s", "z", "sdg")])
        yxyxy = _gates(*[(kind, (1,)) for kind in ("y", "x", "y", "x", "y")])
        second = szs + first[:2] + szs + first[2:3] + yxyxy + first[3:] + yxyxy
        assert reduced_miter(first, second) == []

    @staticmethod
    def seed_306_pair():
        """Seed 306 of a sweep over small random circuits, cut down: the
        wrapper half ``swap q[2],q[1]; x q[2]; swap q[2],q[1]`` acts as
        ``x q[1]`` and meets the block gate ``x q[1]`` of the window below
        first."""
        htt = _gates(*[(kind, (1,)) for kind in ("h", "t", "t", "h", "t", "t", "h")])
        sxs = _gates(("swap", (2, 1)), ("x", (2,)), ("swap", (2, 1)))
        first = _gates(("tdg", (0,)), ("s", (0,)), ("x", (1,)), ("h", (2,)))
        return first, htt + first[:3] + htt + sxs + first[3:] + sxs

    @pytest.mark.parametrize("mode", ["statevector", "unitary"])
    def test_seed_306_decided_by_the_dense_check(self, mode):
        """The full miter, unreduced, is a phase on the dense check too."""
        first, second = self.seed_306_pair()
        miter = first + [GateApp(_INVERSE.get(g.kind, g.kind), g.qubits) for g in reversed(second)]
        columns = qobf.sim._stimulus if mode == "statevector" else qobf.sim._identity
        equal, fidelity = qobf.sim._miter_check(miter, 3, columns)
        assert equal and abs(fidelity - 1) < 1e-9
        assert equivalent(Circuit(3, 0, tuple(first)), Circuit(3, 0, tuple(second)), mode) == (True, 1.0)

    def test_seed_306_reduces_to_nothing(self):
        assert reduced_miter(*self.seed_306_pair()) == []

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_delayed_windows_reduce_to_nothing(self, data):
        """A block of 1 to 3 gates on up to 3 qubits against w·b·w for any
        placement of a delayed wrapper w that commits (w·b·w acts as b up to
        a phase): at most 3 + 7 + 3 + 7 gates, which the span rule drops."""
        n = data.draw(st.integers(1, 3))
        kinds = sorted((k for k in UNITARY_KINDS if ARITY[k] <= n), key=lambda k: k.value)
        block = []
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(kinds))
            block.append(GateApp(kind, tuple(data.draw(st.permutations(range(n)))[:ARITY[kind]])))

        def commits(wrapper, slots):
            w = _instantiate(wrapper, slots)
            return _span_phase(w + block + w, block) is not None

        placements = [
            (wrapper, slots)
            for wrapper in DELAYED_SEQUENCES
            for slots in itertools.permutations(range(n), wrapper.n_slots)
            if commits(wrapper, slots)
        ]
        assume(placements)  # about 1 block in 10 has none
        wrapper, slots = data.draw(st.sampled_from(placements))
        w = _instantiate(wrapper, slots)
        assert reduced_miter(block, w + block + w) == []


class TestEquivalent:
    def test_one_object(self):
        assert qobf.equivalent is equivalent
        assert not hasattr(qobf.sim, "equivalent")

    @pytest.mark.parametrize("twice", [False, True], ids=["first", "second"])
    @pytest.mark.parametrize(
        "measures",
        [[], [(0, 0), (0, 1)], [(0, 0), (1, 0)]],
        ids=["none", "qubit-twice", "bit-twice"],
    )
    def test_distribution_refuses_what_the_dense_check_refuses(self, measures, twice):
        """Before its exact shortcut, distribution mode raises what the dense
        check raises, with the same message, for either circuit."""
        good = Circuit(2, 2, (GateApp(GateKind.X, (0,)), GateApp(GateKind.MEASURE, (0,), cbit=0)))
        bad = Circuit(2, 2, (GateApp(GateKind.X, (0,)),
                             *(GateApp(GateKind.MEASURE, (q,), cbit=c) for q, c in measures)))
        pair = (good, bad) if twice else (bad, good)
        with pytest.raises(SimulationError) as dense:
            qobf.sim._distribution_check(*pair)
        with pytest.raises(SimulationError) as exact:
            equivalent(*pair, "distribution")
        assert str(exact.value) == str(dense.value)

    def test_distribution_shortcut(self, monkeypatch):
        """Equal measured pairs and a miter reduced to no gate give exactly
        (True, 1.0) without the dense check; a miter that keeps a gate, or
        other measured pairs, reach it."""
        monkeypatch.setattr(qobf.sim, "_distribution_check", lambda c1, c2: "dense")
        measure = GateApp(GateKind.MEASURE, (0,), cbit=0)
        x = Circuit(1, 1, (GateApp(GateKind.X, (0,)), measure))
        hzh = Circuit(1, 1, (*_gates(("h", (0,)), ("z", (0,)), ("h", (0,))), measure))
        xt = Circuit(1, 1, (*_gates(("x", (0,)), ("t", (0,))), measure))
        assert equivalent(x, hzh, "distribution") == (True, 1.0)
        assert equivalent(x, xt, "distribution") == "dense"
        other_bit = Circuit(1, 2, (GateApp(GateKind.X, (0,)), measure._replace(cbit=1)))
        assert equivalent(x, other_bit, "distribution") == "dense"
