import math

import numpy as np
import pytest

from qobf.ir import GateKind
from qobf.predicates import (
    ELSE_KEY,
    BranchSemantics,
    BranchSpec,
    ModelMismatchError,
    PredicateCircuit,
    PredicateError,
    bell_predicate,
    branch_predicate,
    key_marginal,
    make_predicate,
    multi_pair_predicate,
    outcome_model,
    shroud_predicate,
)
from qobf.sim import measure_distribution, simulate, strip_measures
from qobf.wrapper import SourceBlock, wrap

S2 = 1 / math.sqrt(2)


class TestBell:
    def test_distribution(self):
        p = bell_predicate()
        dist = measure_distribution(p.circuit)
        assert dist == {"00": 0.5, "11": 0.5}
        assert dist.get("01", 0.0) == 0.0
        assert dist.get("10", 0.0) == 0.0

    def test_pre_measurement_state(self):
        p = bell_predicate()
        state = simulate(strip_measures(p.circuit))
        assert np.allclose(state, [S2, 0, 0, S2], atol=1e-12)

    def test_semantics(self):
        sem = bell_predicate().semantics
        assert [(b.outcome, b.role) for b in sem.branches] == [
            ("00", "live"), ("01", "dead"), ("10", "dead"), ("11", "live")]


class TestMultiPair:
    def test_single_pair(self):
        p = multi_pair_predicate(1)
        assert measure_distribution(p.circuit)["11"] == 0.5

    def test_eight_pairs_paper_point(self):
        p = multi_pair_predicate(8)
        assert measure_distribution(p.circuit)["1" * 16] == 1 / 256

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_ones_exact_power(self, n):
        p = multi_pair_predicate(n)
        assert measure_distribution(p.circuit)["1" * (2 * n)] == 2.0**-n

    def test_broken_pairs_have_zero_probability(self):
        dist = measure_distribution(multi_pair_predicate(4).circuit)
        assert len(dist) == 2**4
        for outcome in dist:
            pairs = [outcome[i : i + 2] for i in range(0, 8, 2)]
            assert all(pair in ("00", "11") for pair in pairs)

    @pytest.mark.parametrize("n", [0, 13, -1])
    def test_range_check(self, n):
        with pytest.raises(PredicateError):
            multi_pair_predicate(n)


class TestShroud:
    def test_amplitudes(self):
        p = shroud_predicate()
        state = simulate(p.circuit)
        assert abs(state[0] - S2) < 1e-12 and abs(state[1] - S2) < 1e-12

    def test_no_measurement(self):
        p = shroud_predicate()
        assert all(g.kind is not GateKind.MEASURE for g in p.circuit.gates)

    def test_both_branches_live(self):
        sem = shroud_predicate().semantics
        assert sem.kind == "amplitude_read"
        assert [(b.outcome, b.role) for b in sem.branches] == [("0", "live"), ("1", "live")]

    def test_without_h_one_branch_dies(self):
        # plain |0>: the |1>-amplitude guard would evaluate false
        from qobf.ir import Circuit

        state = simulate(Circuit(1))
        assert abs(state[0]) > 0 and state[1] == 0


class TestBranch:
    def test_marginal_is_deterministic(self):
        for seed in (0, 1, 7, 123):
            p = branch_predicate(seed)
            dist = measure_distribution(p.circuit)
            keyed = key_marginal(dist, (2, 3), (0, 1, 2, 3))
            assert set(keyed) == {"11"}
            assert keyed["11"] == pytest.approx(1.0, abs=1e-12)

    def test_marginal_sums_to_exactly_one_for_every_seed(self):
        # the decoy and core segments are normalized apart, so the decoy's
        # rounding cannot leak into the (c3, c2) marginal
        for seed in range(3000):
            dist = outcome_model(branch_predicate(seed))
            assert {k[:2] for k in dist} == {"11"}, seed
            assert math.fsum(dist.values()) == 1.0, seed

    def test_core_segment_maps_zero_to_all_ones(self):
        p = branch_predicate(0)
        core = [
            g
            for g in p.circuit.gates
            if g.kind is not GateKind.MEASURE and set(g.qubits) <= {2, 3, 4}
        ]
        from qobf.ir import Circuit, GateApp

        local = {2: 0, 3: 1, 4: 2}
        seg = Circuit(3, 0, tuple(GateApp(g.kind, tuple(local[q] for q in g.qubits)) for g in core))
        state = simulate(seg)
        assert abs(state[7] - 1.0) < 1e-12
        assert all(state[i] == 0 for i in range(7))

    def test_decoy_segment_never_touches_core_qubits(self):
        for seed in (0, 5, 99):
            p = branch_predicate(seed)
            decoys = [
                g
                for g in p.circuit.gates
                if g.kind is not GateKind.MEASURE and set(g.qubits) & {0, 1}
            ]
            assert 4 <= len(decoys) <= 8
            assert all(set(g.qubits) <= {0, 1} for g in decoys)

    def test_ancilla_unmeasured(self):
        p = branch_predicate(3)
        measured = {g.qubits[0] for g in p.circuit.gates if g.kind is GateKind.MEASURE}
        assert measured == {0, 1, 2, 3}

    def test_different_seeds_different_decoys_same_marginal(self):
        a = branch_predicate(1)
        b = branch_predicate(2)
        assert a.circuit.gates != b.circuit.gates
        for p in (a, b):
            keyed = key_marginal(measure_distribution(p.circuit), (2, 3), (0, 1, 2, 3))
            assert set(keyed) == {"11"}

    def test_gate_count_matches_manual_tally(self):
        from collections import Counter

        from qobf.ir import gate_count

        p = branch_predicate(7)
        manual = Counter(g.kind for g in p.circuit.gates)
        counts = gate_count(p.circuit)
        assert counts.counts == dict(manual)
        assert counts.total == sum(manual.values())
        # the interference segment contributes 6 H, 1 Z, 2 CX on top of the decoys
        assert counts.of(GateKind.MEASURE) == 4
        assert counts.of(GateKind.H) >= 6
        assert counts.of(GateKind.Z) >= 1
        assert counts.of(GateKind.CX) >= 2


class TestOutcomeModel:
    def test_bell_matches(self):
        model = outcome_model(bell_predicate())
        assert model == {"00": 0.5, "11": 0.5}

    def test_multi_three(self):
        model = outcome_model(multi_pair_predicate(3))
        assert model["111111"] == 0.125

    def test_shroud_returns_amplitudes(self):
        model = outcome_model(shroud_predicate())
        assert isinstance(model, tuple)
        assert abs(model[0] - S2) < 1e-12

    def test_mismatch_raises(self):
        good = bell_predicate()
        lying = PredicateCircuit(
            good.circuit,
            "bell",
            BranchSemantics(
                kind="measured",
                branches=(
                    BranchSpec("a", "live", "00"),
                    BranchSpec("b", "dead", "11"),  # wrong: 11 is live
                ),
                key_cbits=(0, 1),
            ),
            {},
        )
        with pytest.raises(ModelMismatchError):
            outcome_model(lying)

    def test_live_dead_key_raises_under_else_branch(self):
        # with an else row carrying the rest only the exact-zero check can catch it
        lying = PredicateCircuit(
            bell_predicate().circuit,
            "bell",
            BranchSemantics(
                kind="measured",
                branches=(BranchSpec("a", "dead", "11"), BranchSpec("b", "live", ELSE_KEY)),
                key_cbits=(0, 1),
            ),
            {},
        )
        with pytest.raises(ModelMismatchError, match="dead key '11' has probability 0.5"):
            outcome_model(lying)


    def test_uncovered_live_key_raises(self):
        # no row names "11" and there is no else row, so the rows miss half the probability
        lying = PredicateCircuit(
            bell_predicate().circuit,
            "bell",
            BranchSemantics(
                kind="measured",
                branches=(BranchSpec("a", "live", "00"), BranchSpec("b", "dead", "01")),
                key_cbits=(0, 1),
            ),
            {},
        )
        with pytest.raises(ModelMismatchError, match="live keys do not carry all probability"):
            outcome_model(lying)


class TestMakePredicate:
    def test_dispatch(self):
        assert make_predicate("bell").kind == "bell"
        assert make_predicate("multi_pair", {"n_pairs": 2}).params["n_pairs"] == 2
        assert make_predicate("branch", {"seed": 4}).params["seed"] == 4
        assert make_predicate("shroud").kind == "shroud"

    def test_unknown_kind(self):
        with pytest.raises(PredicateError):
            make_predicate("chsh")

    @pytest.mark.parametrize("seed", [-1, -5])
    def test_negative_branch_seed(self, seed):
        # Random(-s) is Random(s): the seed would alias another's circuit
        with pytest.raises(PredicateError, match=f"seed must be non-negative, got {seed}"):
            make_predicate("branch", {"seed": seed})
        with pytest.raises(PredicateError, match="seed must be non-negative"):
            branch_predicate(seed)

    @pytest.mark.parametrize(
        "kind, params",
        [("multi_pair", {"pairs": 3}), ("branch", {"n_pairs": 2}), ("bell", {"seed": 1}),
         ("shroud", {"n_pairs": 2})],
    )
    def test_parameter_the_kind_does_not_take(self, kind, params):
        (name,) = params
        with pytest.raises(PredicateError, match=f"{kind!r} takes no parameter {name!r}"):
            make_predicate(kind, params)
        with pytest.raises(PredicateError, match=f"takes no parameter {name!r}"):
            wrap(SourceBlock("print(1)\n"), kind, params)
