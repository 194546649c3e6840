import itertools
import random
import re
import warnings

import numpy as np
import pytest

import qobf.exact
import qobf.passes
import qobf.sim
from qobf.exact import _phase_numerator
from qobf.ir import ARITY, UNITARY_KINDS, Circuit, GateApp, GateKind, flatten, gate_count, same_gates
from qobf.miter import equivalent
from qobf.passes import (
    AUXILIARY_SEQUENCE,
    DELAYED_SEQUENCES,
    INVERSE_PAIRS,
    METHODS,
    ObfuscationConfig,
    PassWarning,
    RESTORE_SEQUENCE,
    RulesetError,
    SubstitutionRule,
    _instantiate,
    _span_phase,
    apply_pass,
    check_translation,
    cloaked_gates_pass,
    composite_gates_pass,
    default_verified_rules,
    delayed_gates_pass,
    effective_unitary,
    inverse_gates_pass,
    load_ruleset,
    undo,
    verify_ruleset,
)
from qobf.qasm import emit
from qobf.sim import gate_matrix, proportional, unitary_of
from strategies import random_circuit

K = GateKind


def _fresh_memo(monkeypatch) -> None:
    """An empty trie of phase verdicts, the package's one memo of them, for
    one test."""
    monkeypatch.setattr(qobf.exact, "_SPANS", [None, {}, 0])


def _commits(wrapper, wrapper_qubits, block) -> bool:
    """The delayed commit check as the pass asks it: the window D.B.D acts
    as B up to a global phase."""
    copy = _instantiate(wrapper, wrapper_qubits)
    return type(_span_phase(copy + block + copy, block)) is complex


def _float_verdict(wrapper, wrapper_slots, block) -> bool:
    """The dense float reference for a commit check: D.B.D ~ B within 1e-9."""
    m = 1 + max(*wrapper_slots, *(q for g in block for q in g.qubits))
    u_block = unitary_of(block, n_qubits=m)
    u_wrap = unitary_of(
        [GateApp(kind, tuple(wrapper_slots[s] for s in slots)) for kind, slots in wrapper.gates],
        n_qubits=m,
    )
    return proportional(u_wrap @ u_block @ u_wrap, u_block, tol=1e-9)[0]


def cfg(method: str, seed: int = 1, intensity: float = 1.0) -> ObfuscationConfig:
    """A config for a run of ``method``, which names the run only: the
    config does not hold the method."""
    return ObfuscationConfig(seed=seed, intensity=intensity)


def single_x() -> Circuit:
    return Circuit(1, 0, (GateApp(K.X, (0,)),))


class TestSequenceData:
    def test_nine_inverse_pairs_reduce_to_identity(self):
        assert len(INVERSE_PAIRS) == 9
        for pair in INVERSE_PAIRS:
            u = unitary_of(pair)
            assert np.max(np.abs(u - np.eye(len(u)))) < 1e-12, pair.name

    def test_auxiliary_then_restore_is_identity(self):
        combined = list(AUXILIARY_SEQUENCE.gates) + list(RESTORE_SEQUENCE.gates)
        u = unitary_of([GateApp(k, s) for k, s in combined])
        assert np.max(np.abs(u - np.eye(2))) < 1e-12

    def test_nine_delayed_sequences(self):
        assert len(DELAYED_SEQUENCES) == 9

    def test_effective_unitary_examples(self):
        by_name = {s.name: s for s in DELAYED_SEQUENCES}
        hh = effective_unitary(INVERSE_PAIRS[0])
        assert np.max(np.abs(hh - np.eye(2))) < 1e-12
        # T then S then Tdg: diagonal phases commute, so this is exactly S
        tst = effective_unitary(by_name["t-s-tdg"])
        assert np.max(np.abs(tst - np.diag([1, 1j]))) < 1e-12
        ysy = effective_unitary(by_name["y-s-y"])
        assert np.max(np.abs(ysy - 1j * gate_matrix(K.SDG))) < 1e-12


class TestVerifyRuleset:
    def test_default_verdicts(self):
        report = default_verified_rules()
        accepted = {r.replacement.name: r.phase_factor for r in report.accepted}
        rejected = {r.replacement.name for r in report.rejected}
        assert set(accepted) == {"h-z-h", "z-h-z-h-z", "sdg-y-s"}
        assert rejected == {"s-y-s", "h-y-h", "s-z-y-z-s"}
        # decided in the exact ring, so the phases are exact powers of ω
        assert accepted == {"h-z-h": 1, "z-h-z-h-z": -1, "sdg-y-s": -1}

    def test_long_rules_accepted_and_checked(self, tmp_path):
        """A rule is decided whole, however long: past the miter rules'
        reach of 20 gates, and with 64 gates on one qubit of the rule and its
        target. The groups such rules write pass the output check."""
        path = tmp_path / "long.rules"
        path.write_text(f"x: {'h ' * 24}x\nx: {'h ' * 62}x\ncx: {'s(1) sdg(1) ' * 12}cx\n")
        report = verify_ruleset(load_ruleset(path))
        assert report.rejected == ()
        assert [(r.target, len(r.replacement.gates), r.phase_factor) for r in report.accepted] == [
            (K.X, 25, 1), (K.X, 63, 1), (K.CX, 25, 1)
        ]
        c = Circuit(2, 0, (GateApp(K.X, (1,)), GateApp(K.CX, (1, 0)), GateApp(K.X, (0,))))
        for rule in report.accepted:
            out = cloaked_gates_pass(c, cfg("cloaked"), [rule])
            assert len(out.gates) > 25
            assert check_translation(c, out) is None
            assert equivalent(c, out, "unitary")[0]

    def test_rejected_carry_effective_unitary(self):
        report = default_verified_rules()
        for rej in report.rejected:
            assert rej.effective.shape == (2, 2)
            # every failing default entry is actually a Pauli-Y up to phase
            aligned = rej.effective / rej.effective[0, 1]
            assert np.max(np.abs(aligned - gate_matrix(K.Y) / gate_matrix(K.Y)[0, 1])) < 1e-9

    def test_accepted_rules_reverify_independently(self):
        for rule in default_verified_rules().accepted:
            u = effective_unitary(rule.replacement)
            target = gate_matrix(rule.target)
            assert np.max(np.abs(u - rule.phase_factor * target)) < 1e-10
            assert abs(abs(rule.phase_factor) - 1) < 1e-10

    def test_partition_covers_input(self):
        rules = load_ruleset()
        report = verify_ruleset(rules)
        assert len(report.accepted) + len(report.rejected) == len(rules)

    def test_summary_mentions_matrix(self):
        text = default_verified_rules().summary()
        assert "rejected" in text and "effective unitary" in text

    def test_ruleset_file_parse_error(self, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("x: frob\n")
        with pytest.raises(RulesetError, match="unknown gate"):
            load_ruleset(bad)

    def test_multi_qubit_slots(self):
        rules = verify_ruleset(
            [
                (
                    K.SWAP,
                    # swap via three alternating CNOTs
                    type(INVERSE_PAIRS[0])(
                        "cx3",
                        ((K.CX, (0, 1)), (K.CX, (1, 0)), (K.CX, (0, 1))),
                    ),
                )
            ]
        )
        assert len(rules.accepted) == 1
        assert rules.accepted[0].phase_factor == pytest.approx(1.0)

    def test_more_than_three_slots_raises(self):
        wide = type(INVERSE_PAIRS[0])("wide", ((K.CCX, (0, 1, 2)), (K.X, (3,))))
        with pytest.raises(RulesetError, match="4 slots"):
            verify_ruleset([(K.X, wide)])

    def test_more_slots_than_the_target_raises(self, tmp_path, monkeypatch):
        """A replacement acts on its target's qubits, so it may use no more
        slots than its target has; the rule is refused before any check."""
        monkeypatch.setattr(qobf.passes, "_span_phase", None)
        bad = tmp_path / "bad.rules"
        bad.write_text("h: h h h\nx: x cx(1,2) cx(1,2)\n")
        with pytest.raises(RulesetError, match=r"bad.rules:2: .*uses 3 slots; at most 1 allowed"):
            load_ruleset(bad)
        wide = type(INVERSE_PAIRS[0])("x-cx", ((K.X, (0,)), (K.CX, (1, 2)), (K.CX, (1, 2))))
        with pytest.raises(RulesetError, match="uses 3 slots; at most 1 allowed"):
            verify_ruleset([(K.X, wide)])

    @pytest.mark.parametrize(
        "rule, message",
        [
            ("x: cx(0,0)", r"cx\(0, 0\) needs distinct non-negative slots"),
            ("cx: x(-1)", r"x\(-1,\) needs distinct non-negative slots"),
            ("x: x(0,x)", r"x\(0,x\): slots must be integers"),
        ],
    )
    def test_malformed_slots_rejected_with_location(self, rule, message, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text(f"h: h h h\n{rule}\n")
        with pytest.raises(RulesetError, match=f"bad.rules:2: .*{message}"):
            load_ruleset(bad)

    @pytest.mark.parametrize(
        "rule, message",
        [
            ("x: h z h(0", r"h\(0: expected 'gate' or 'gate\(slot,...\)'"),
            ("swap: cx(0,1))) cx(1,0) cx(0,1)", r"cx\(0,1\)\)\): expected"),
            ("cx: cx(0, 1)", r"cx\(0, 1\): space inside a slot list"),
        ],
        ids=["unclosed", "over-closed", "spaced"],
    )
    def test_malformed_slot_lists_rejected_with_location(self, rule, message, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text(f"h: h h h\n{rule}\n")
        with pytest.raises(RulesetError, match=f"bad.rules:2: {message}"):
            load_ruleset(bad)

    @pytest.mark.parametrize(
        "rule, message",
        [
            ("h z h", r"expected 'target: gate gate \.\.\.'"),
            ("frob: h", "unknown target gate 'frob'"),
            ("measure: h", "unknown target gate 'measure'"),
            ("x: cx(0)", r"cx takes 2 slot\(s\)"),
            ("x:  # nothing", "empty replacement sequence"),
        ],
        ids=["no-colon", "unknown-target", "non-unitary-target", "slot-count", "empty"],
    )
    def test_malformed_rule_lines_rejected_with_location(self, rule, message, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text(f"h: h h h\n{rule}\n")
        with pytest.raises(RulesetError, match=f"bad.rules:2: {message}$"):
            load_ruleset(bad)

    @pytest.mark.parametrize(
        "gate, message",
        [
            ((K.CX, (0, 0)), "distinct non-negative slots"),
            ((K.CX, (-1, 0)), "distinct non-negative slots"),
            ((K.CX, (0,)), "not a unitary gate on its arity"),
            ((K.MEASURE, (0,)), "not a unitary gate on its arity"),
        ],
        ids=["repeated", "negative", "short", "measure"],
    )
    def test_malformed_slots_rejected_before_simulation(self, gate, message, monkeypatch):
        def no_simulation(*args):
            raise AssertionError("simulated a malformed rule")

        monkeypatch.setattr(qobf.exact, "_phase_numerator", no_simulation)
        monkeypatch.setattr(qobf.sim, "unitary_of", no_simulation)
        seq = type(INVERSE_PAIRS[0])("bad", (gate,))
        with pytest.raises(RulesetError, match=message):
            verify_ruleset([(K.CX, seq)])


class TestInversePass:
    def test_single_gate_gains_adjacent_pairs(self):
        out = inverse_gates_pass(single_x(), cfg("inverse", seed=4))
        inserted = [g for g in out.gates if g.origin == "inserted"]
        assert inserted and len(inserted) % 2 == 0
        # inserted gates come in adjacent pairs on identical qubits
        positions = [i for i, g in enumerate(out.gates) if g.origin == "inserted"]
        for a, b in zip(positions[::2], positions[1::2]):
            assert b == a + 1
            assert out.gates[a].qubits == out.gates[b].qubits
        assert equivalent(single_x(), out)[0]

    def test_empty_circuit_warns(self):
        empty = Circuit(1)
        with pytest.warns(PassWarning):
            out = inverse_gates_pass(empty, cfg("inverse"))
        assert out == empty

    def test_measured_qubit_not_touched_after_measure(self, bv6):
        out = inverse_gates_pass(bv6, cfg("inverse", seed=9))
        from qobf.ir import validate

        assert validate(out) == []

    def test_multiqubit_pairs_used_when_possible(self, period7):
        out = inverse_gates_pass(period7, cfg("inverse", seed=2))
        kinds = {g.kind for g in out.gates if g.origin == "inserted"}
        assert any(k in kinds for k in (K.CX, K.CZ, K.CY, K.CCX))


class TestCompositePass:
    def test_empty_circuit_single_insertion(self):
        out = composite_gates_pass(Circuit(1), cfg("composite", seed=0))
        assert len(out.gates) == 12
        assert len(set(g.box for g in out.gates)) == 2
        u = unitary_of(out)
        assert np.max(np.abs(u - np.eye(2))) < 1e-12

    def test_decoy_boxes_only_group_original_gates(self, qaoa4):
        out = composite_gates_pass(qaoa4, cfg("composite", seed=3))
        survivors = [g for g in out.gates if g.origin != "inserted"]
        assert same_gates(
            flatten(out.with_gates(survivors)), flatten(qaoa4)
        )
        decoy_boxes = {g.box for g in out.gates if g.origin == "original" and g.box is not None}
        assert decoy_boxes, "no decoy boxes created at intensity 1"

    def test_box_names_are_uniform(self, bv6):
        out = composite_gates_pass(bv6, cfg("composite", seed=5))
        boxes = sorted({g.box for g in out.gates if g.box is not None})
        assert boxes == list(range(len(boxes)))
        markers = [ln for ln in emit(out).splitlines() if ln.startswith("// begin composite")]
        assert len(markers) == len(boxes)
        assert all(re.fullmatch(r"// begin composite grp\d+", ln) for ln in markers)


class TestCloakedPass:
    def test_x_to_hzh_under_single_rule(self):
        report = verify_ruleset(load_ruleset())
        rule = next(r for r in report.accepted if r.replacement.name == "h-z-h")
        out = cloaked_gates_pass(single_x(), cfg("cloaked"), [rule])
        assert [g.kind for g in out.gates] == [K.H, K.Z, K.H]
        assert all(g.origin == "substituted" for g in out.gates)
        assert equivalent(single_x(), out)[0]

    def test_phase_minus_one_rule_is_safe(self):
        report = verify_ruleset(load_ruleset())
        rule = next(r for r in report.accepted if r.replacement.name == "z-h-z-h-z")
        out = cloaked_gates_pass(single_x(), cfg("cloaked"), [rule])
        assert len(out.gates) == 5
        assert equivalent(single_x(), out, "statevector")[0]
        assert equivalent(single_x(), out, "unitary")[0]

    def test_intensity_one_leaves_no_original_targets(self, bv6):
        rules = default_verified_rules().accepted
        out = cloaked_gates_pass(bv6, cfg("cloaked"), rules)
        leftover = [g for g in out.gates if g.kind is K.X and g.origin == "original"]
        assert leftover == []

    def test_unverified_rule_rejected(self):
        bogus = SubstitutionRule(K.X, INVERSE_PAIRS[0], verified=False, phase_factor=1.0)
        with pytest.raises(RulesetError, match="unverified"):
            cloaked_gates_pass(single_x(), cfg("cloaked"), [bogus])

    def test_substitution_respects_qubits(self):
        rules = default_verified_rules().accepted
        c = Circuit(3, 0, (GateApp(K.X, (2,)),))
        out = cloaked_gates_pass(c, cfg("cloaked", seed=8), rules)
        assert all(g.qubits == (2,) for g in out.gates)


class TestDelayedPass:
    def test_commit_check_examples(self):
        by_name = {s.name: s for s in DELAYED_SEQUENCES}
        x_block = [GateApp(K.X, (0,))]
        z_block = [GateApp(K.Z, (0,))]
        # the worked identity: [X,H,Z,H,X] . X . [X,H,Z,H,X] = X
        assert _commits(by_name["x-h-z-h-x"], (0,), x_block)
        # Y,S,Y acts as S-dagger up to phase; conjugating Z by it drifts to the identity
        assert not _commits(by_name["y-s-y"], (0,), z_block)
        # S,Z,Sdg acts as Z; ZXZ = -X commits (global phase)
        assert _commits(by_name["s-z-sdg"], (0,), x_block)
        # two-qubit wrapper on a two-qubit block
        assert _commits(by_name["swap-x-swap"], (0, 1), [GateApp(K.Z, (1,))])

    def test_wrapped_blocks_stay_equivalent(self, period7):
        out = delayed_gates_pass(period7, cfg("delayed", seed=6))
        assert gate_count(out).total > gate_count(period7).total
        assert equivalent(period7, out)[0]

    def test_lone_h_commits_via_anticommuting_wrapper(self):
        # H lies in span{X, Z}, so a Y-acting wrapper flips only a global sign
        lone_h = Circuit(1, 0, (GateApp(K.H, (0,)),))
        out = delayed_gates_pass(lone_h, cfg("delayed", seed=0))
        assert gate_count(out).total > 1
        assert equivalent(lone_h, out, "unitary")[0]

    @pytest.mark.parametrize("seed", range(6))
    def test_no_gate_after_mid_circuit_measure(self, seed):
        c = Circuit(
            3,
            1,
            (
                GateApp(K.H, (0,)),
                GateApp(K.MEASURE, (0,), cbit=0),
                GateApp(K.X, (1,)),
                GateApp(K.CX, (1, 2)),
                GateApp(K.Z, (2,)),
            ),
        )
        out = delayed_gates_pass(c, cfg("delayed", seed=seed))
        measure_at = next(i for i, g in enumerate(out.gates) if g.kind is K.MEASURE)
        assert all(0 not in g.qubits for g in out.gates[measure_at + 1 :])
        assert equivalent(c, out, "unitary")[0]

    def test_measure_only_circuit_warns(self):
        c = Circuit(1, 1, (GateApp(K.MEASURE, (0,), cbit=0),))
        with pytest.warns(PassWarning, match="no committable"):
            out = delayed_gates_pass(c, cfg("delayed", seed=0))
        assert out == c

    def test_empty_circuit_warns(self):
        with pytest.warns(PassWarning, match="no eligible"):
            delayed_gates_pass(Circuit(1), cfg("delayed"))

    def test_cached_verdict_matches_fresh_check(self, monkeypatch):
        """The memoised check agrees with D.B.D ~ B computed on the block's own
        qubits of a 5-qubit register, without relabelling or memo; a window
        past 3 qubits is refused, and a second ask is answered from the memo."""
        rng = random.Random(11)
        kinds = sorted(UNITARY_KINDS, key=lambda k: k.value)
        calls = []

        def counting(pairs, n):
            calls.append(n)
            return _phase_numerator(pairs, n)

        monkeypatch.setattr(qobf.exact, "_phase_numerator", counting)
        _fresh_memo(monkeypatch)
        verdicts = []
        checked = 0
        for _ in range(400):
            block = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.choice(kinds)
                block.append(GateApp(kind, tuple(rng.sample(range(5), ARITY[kind]))))
            block_qubits = list(dict.fromkeys(q for g in block for q in g.qubits))
            wrapper = rng.choice(DELAYED_SEQUENCES)
            extras = [q for q in range(5) if q not in block_qubits]
            if wrapper.n_slots <= len(block_qubits):
                wrapper_qubits = rng.sample(block_qubits, wrapper.n_slots)
            else:
                wrapper_qubits = block_qubits + rng.sample(extras, wrapper.n_slots - len(block_qubits))
            u_block = unitary_of(block, n_qubits=5)
            u_wrap = unitary_of(
                [GateApp(k, tuple(wrapper_qubits[s] for s in slots)) for k, slots in wrapper.gates],
                n_qubits=5,
            )
            width = len(set(block_qubits) | set(wrapper_qubits))
            want = width <= 3 and proportional(u_wrap @ u_block @ u_wrap, u_block, tol=1e-9)[0]
            checked += width <= 3
            copy = _instantiate(wrapper, wrapper_qubits)
            phase = _span_phase(copy + block + copy, block)
            asked = len(calls)
            # the second ask is answered from the memo
            assert _span_phase(copy + block + copy, block) == phase and len(calls) == asked
            assert (type(phase) is complex) == want
            assert width <= 3 or phase == f"touches {width} qubits; at most 3 allowed"
            verdicts.append(want)
        assert any(verdicts) and not all(verdicts)
        assert len(calls) <= checked and checked > 200

    def test_identity_checked_once_per_distinct_key(self, monkeypatch):
        """Draws repeat the pass's int keys; each distinct one asks
        ``_span_phase`` once, and that decides each of its patterns once."""
        calls = {"_phase_numerator": 0}
        asks, draws = [], []

        def counting_phase_numerator(*args):
            calls["_phase_numerator"] += 1
            return _phase_numerator(*args)

        def recording_span_phase(span, originals):
            asks.append((span, originals))
            return _span_phase(span, originals)

        class RecordingCommits(dict):
            def get(self, key):
                draws.append(key)
                return super().get(key)

        monkeypatch.setattr(qobf.exact, "_phase_numerator", counting_phase_numerator)
        monkeypatch.setattr(qobf.passes, "_span_phase", recording_span_phase)
        monkeypatch.setattr(qobf.passes, "_COMMITS", RecordingCommits())
        _fresh_memo(monkeypatch)
        c = random_circuit(random.Random(5), max_qubits=6, max_gates=300)
        out = delayed_gates_pass(c, cfg("delayed", seed=5))
        assert gate_count(out).total > gate_count(c).total
        assert len(draws) > 2 * len(set(draws))
        assert len(asks) == len(set(draws))
        assert 0 < calls["_phase_numerator"] <= len(set(draws))

    def test_every_one_gate_key_matches_float_reference(self):
        """Every placement of a wrapper around a one-gate block, on the qubits
        of the block and one more, gets the dense float verdict."""
        accepted = checked = 0
        for kind in sorted(UNITARY_KINDS, key=lambda k: k.value):
            block = [GateApp(kind, tuple(range(ARITY[kind])))]
            for wrapper in DELAYED_SEQUENCES:
                width = max(ARITY[kind], wrapper.n_slots)
                for slots in itertools.permutations(range(width), wrapper.n_slots):
                    verdict = _commits(wrapper, slots, block)
                    assert verdict == _float_verdict(wrapper, slots, block), (kind, wrapper.name, slots)
                    accepted += verdict
                    checked += 1
        assert checked == 182 and 0 < accepted < checked


class TestPassProperties:
    @pytest.mark.parametrize("method", METHODS)
    def test_determinism_identical_bytes(self, method, qaoa4):
        config = cfg(method, seed=77, intensity=0.7)
        first = emit(apply_pass(method, qaoa4, config))
        second = emit(apply_pass(method, qaoa4, config))
        assert first == second

    @pytest.mark.parametrize("method", METHODS)
    def test_monotone_growth(self, method, fixtures):
        for c in fixtures.values():
            out = apply_pass(method, c, cfg(method, seed=3, intensity=0.5))
            assert gate_count(out).total >= gate_count(c).total

    @pytest.mark.parametrize("method", METHODS)
    def test_equivalence_small_sweep(self, method, fixtures):
        for c in fixtures.values():
            for seed in (1, 2, 3):
                out = apply_pass(method, c, cfg(method, seed=seed, intensity=0.8))
                ok, fidelity = equivalent(c, out, "statevector")
                assert ok, f"{method} seed {seed}: fidelity {fidelity}"

    @pytest.mark.parametrize("method", METHODS)
    def test_provenance_undo(self, method, fixtures):
        for c in fixtures.values():
            out = apply_pass(method, c, cfg(method, seed=11, intensity=1.0))
            restored = undo(out)
            assert same_gates(restored, c)
            assert all(g.origin == "original" for g in restored.gates)

    def test_random_circuit_equivalence(self):
        rng = random.Random(99)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PassWarning)
            for _ in range(20):
                c = random_circuit(rng, max_qubits=4, max_gates=10, measure=True)
                method = rng.choice(METHODS)
                out = apply_pass(method, c, cfg(method, seed=rng.randrange(1000)))
                assert equivalent(c, out)[0]

    def test_undo_rolls_back_stacked_passes(self, bv6):
        rules = default_verified_rules().accepted
        step1 = inverse_gates_pass(bv6, cfg("inverse", seed=1, intensity=0.6))
        step2 = cloaked_gates_pass(step1, cfg("cloaked", seed=2), rules)
        step3 = composite_gates_pass(step2, cfg("composite", seed=3, intensity=0.4))
        # the cloaked step must have rewritten at least one pass-inserted X
        assert any(
            g.origin == "inserted"
            for g in step3.subst_originals.values()
        )
        assert same_gates(undo(step3), bv6)
        assert equivalent(bv6, step3)[0]

    def test_undo_names_a_group_with_no_recorded_original(self):
        out = Circuit(1, 0, (GateApp(K.X, (0,), group=0),))
        with pytest.raises(ValueError, match="gate 0: group 0 has no recorded original"):
            undo(out)

    def test_undo_keeps_only_the_unused_originals(self):
        out = Circuit(1, 0, (GateApp(K.H, (0,), group=0),),
                      subst_originals={0: GateApp(K.X, (0,)), 1: GateApp(K.Z, (0,))})
        assert undo(out).subst_originals == {1: GateApp(K.Z, (0,))}


class TestCheckTranslation:
    """The exact window check accepts what the passes write, and the dense
    oracle agrees on each output; what it cannot place, it refuses."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("fixture", ["bv6", "qaoa_ring4", "period7"])
    def test_accepts_every_fixture_output(self, method, fixture, fixtures):
        c = fixtures[fixture]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PassWarning)
            for seed in range(50):
                for intensity in (1.0, 0.5):
                    out = apply_pass(method, c, cfg(method, seed=seed, intensity=intensity))
                    assert check_translation(c, out) is None, (seed, intensity)
                    assert equivalent(c, out)[0], (seed, intensity)

    def test_accepts_random_circuit_outputs(self):
        rng = random.Random(2021)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PassWarning)
            for _ in range(200):
                c = random_circuit(rng, max_qubits=10, max_gates=40,
                                   measure=rng.random() < 0.5, barriers=True)
                for method in METHODS:
                    out = apply_pass(method, c, cfg(method, seed=rng.randrange(1000)))
                    assert check_translation(c, out) is None, (emit(c), method)
                    assert equivalent(c, out)[0], (emit(c), method)

    def test_refuses_a_source_with_pass_provenance(self, bv6):
        step1 = inverse_gates_pass(bv6, cfg("inverse", seed=1, intensity=0.6))
        step2 = inverse_gates_pass(step1, cfg("inverse", seed=2, intensity=0.6))
        assert equivalent(step1, step2)[0]
        # the second pass splits the first's windows, and undo rolls back both
        assert check_translation(step1, step2) is not None
        assert check_translation(bv6, step2) is not None

    def test_refuses_a_window_past_three_qubits(self):
        # two inverse pairs under one window id: the identity, but on 4 qubits
        pair = [GateApp(K.CX, (0, 1), window=0),
                GateApp(K.CX, (2, 3), window=0)] * 2
        problem = check_translation(Circuit(4), Circuit(4, 0, tuple(pair)))
        assert problem == "window 0 (gates 0-3) touches 4 qubits; at most 3 allowed"

    def test_refuses_a_group_with_no_recorded_original(self):
        out = Circuit(1, 0, (GateApp(K.X, (0,), group=0),))
        assert check_translation(single_x(), out) == "group 0 replaces no recorded original gate"

    def test_refuses_a_gate_with_a_window_and_a_group(self):
        out = Circuit(1, 0, (GateApp(K.X, (0,), group=0, window=0),),
                      subst_originals={0: GateApp(K.X, (0,))})
        assert check_translation(single_x(), out) == (
            "gate 0 (x, inserted, window 0, group 0) fits no window or group"
        )

    def test_refuses_a_measurement_inside_a_window(self):
        measure = GateApp(K.MEASURE, (1,), cbit=0)
        out = Circuit(2, 1, (GateApp(K.X, (0,), window=0), measure, GateApp(K.X, (0,), window=0)))
        assert check_translation(Circuit(2, 1, (measure,)), out) == (
            "window 0 (gates 0-2) holds a measure"
        )

    def test_rule_verdicts_serve_cloaked_groups(self, period7, monkeypatch):
        # verify_ruleset decides each rule through the same memoised check
        # that check_translation asks of a substitution group
        _fresh_memo(monkeypatch)
        rules = verify_ruleset(load_ruleset()).accepted
        calls = []

        def counting(pairs, n):
            calls.append(n)
            return _phase_numerator(pairs, n)

        monkeypatch.setattr(qobf.exact, "_phase_numerator", counting)
        out = cloaked_gates_pass(period7, cfg("cloaked", seed=3), rules)
        assert any(g.group is not None for g in out.gates)
        assert check_translation(period7, out) is None
        assert calls == []

    def test_delayed_windows_decided_by_the_pass(self, monkeypatch):
        # the pass asks of each window what check_translation asks of it, so
        # the check finds every verdict in the memo the pass filled
        monkeypatch.setattr(qobf.passes, "_COMMITS", {})
        _fresh_memo(monkeypatch)
        c = random_circuit(random.Random(1), min_qubits=8, max_qubits=8,
                           min_gates=1000, max_gates=1000)
        out = delayed_gates_pass(c, cfg("delayed", seed=1))
        calls = []

        def counting(pairs, n):
            calls.append(n)
            return _phase_numerator(pairs, n)

        monkeypatch.setattr(qobf.exact, "_phase_numerator", counting)
        assert sum(g.window is not None for g in out.gates) > 100
        assert check_translation(c, out) is None
        assert calls == []

    def test_memo_key_is_faithful(self, monkeypatch):
        """Patterns that differ only in their labels, or only in which side a
        gate is on, get their own verdicts in one process."""
        _fresh_memo(monkeypatch)
        cx01, cx10, s = GateApp(K.CX, (0, 1)), GateApp(K.CX, (1, 0)), GateApp(K.S, (0,))
        asks = [
            ([cx01, cx01], [], 1),
            ([cx01, cx10], [], None),
            ([s], [s], 1),
            ([s, s], [], None),
            ([], [s, s], None),
            ([cx01], [cx01], 1),
            ([cx01], [cx10], None),
        ]
        for span, originals, phase in asks + asks[::-1]:
            assert _span_phase(span, originals) == phase, (span, originals)


class TestConfig:
    def test_intensity_range(self):
        with pytest.raises(ValueError):
            ObfuscationConfig(seed=0, intensity=0.0)
        with pytest.raises(ValueError):
            ObfuscationConfig(seed=0, intensity=1.5)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            ObfuscationConfig(seed=-1)
        with pytest.raises(ValueError):
            ObfuscationConfig(seed=2**64)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'mystery'"):
            apply_pass("mystery", single_x(), cfg("inverse"))
