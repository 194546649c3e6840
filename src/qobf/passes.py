"""Circuit-level obfuscation passes, and the exact check of what they write.

Four transforms, each a seeded deterministic Circuit -> Circuit function:

  * inverse_gates_pass   - insert adjacent (G, G_inverse) pairs at random sites
  * composite_gates_pass - insert an auxiliary/restore block pair (product is
    the identity) as composite boxes, plus decoy boxes around original gates
  * cloaked_gates_pass   - replace gates with verified equivalent
    substitution sequences
  * delayed_gates_pass   - wrap a gate block B in a sequence D on both sides;
    committed only when D.B.D acts like B up to global phase

Both checks, and :func:`check_translation`, ask one function,
``_span_phase``, whether a span of gates acts as some original gates up to a
global phase: :func:`qobf.exact._phase_suffix` decides, in the ring
Z[1/√2, i] and with no tolerance, whether a rule's replacement followed by
the target's inverse, or D.B.D.B⁻¹, is a global phase times the identity on
its own few qubits. Its trie, the package's one memo of phase verdicts,
decides each pattern once per process, whichever caller asks first.

Every insertion carries a window id and every substitution a group id, the
only provenance a gate has, so :func:`check_translation` can check a pass's
output against its input window by window, exactly and in time linear in the
gates, with no dense simulation (translation validation). This module does
not load numpy: only ``RejectedRule.effective`` and :func:`effective_unitary`
build matrices, and they import the dense simulator when called.

Insertion sites are chosen by an independent coin per site with probability
equal to ``intensity``, drawn from a generator seeded by ``seed``, so a given
(input, config) always produces byte-identical output. Gates are never placed
on a qubit after that qubit has been measured.
"""

from __future__ import annotations

import random
import re
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .exact import MAX_SPAN_QUBITS, _phase_suffix
from .ir import (
    ARITY,
    METHODS,  # noqa: F401 (re-exported)
    Circuit,
    GateApp,
    GateKind,
    GateSequence,
    UNITARY_KINDS,
    _INVERSE,
    _KIND_CODE,
    same_gates,
)

if TYPE_CHECKING:
    import numpy as np

MAX_DRAWS = 32


class PassWarning(UserWarning):
    """A pass could not act (no eligible site / no committable insertion)."""


class RulesetError(ValueError):
    """An unverified or malformed substitution rule reached a pass."""


class _ObfuscationConfig(NamedTuple):
    seed: int
    intensity: float = 1.0


class ObfuscationConfig(_ObfuscationConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ObfuscationConfig":
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 0 < self.intensity <= 1:
            raise ValueError("intensity must lie in (0, 1]")
        return self


def _seq(name: str, *gates: tuple[GateKind, tuple[int, ...]]) -> GateSequence:
    return GateSequence(name, tuple(gates))


def _g1(kind: GateKind) -> tuple[GateKind, tuple[int, ...]]:
    return (kind, (0,))


#: gate / inverse-gate insertion pairs (each two-gate sequence multiplies to I)
INVERSE_PAIRS: tuple[GateSequence, ...] = (
    _seq("h-h", _g1(GateKind.H), _g1(GateKind.H)),
    _seq("x-x", _g1(GateKind.X), _g1(GateKind.X)),
    _seq("z-z", _g1(GateKind.Z), _g1(GateKind.Z)),
    _seq("s-sdg", _g1(GateKind.S), _g1(GateKind.SDG)),
    _seq("t-tdg", _g1(GateKind.T), _g1(GateKind.TDG)),
    _seq("cx-cx", (GateKind.CX, (0, 1)), (GateKind.CX, (0, 1))),
    _seq("cz-cz", (GateKind.CZ, (0, 1)), (GateKind.CZ, (0, 1))),
    _seq("cy-cy", (GateKind.CY, (0, 1)), (GateKind.CY, (0, 1))),
    _seq("ccx-ccx", (GateKind.CCX, (0, 1, 2)), (GateKind.CCX, (0, 1, 2))),
)

#: the auxiliary block and the restore block that undoes it
AUXILIARY_SEQUENCE = _seq(
    "auxiliary",
    _g1(GateKind.H), _g1(GateKind.H), _g1(GateKind.Z),
    _g1(GateKind.X), _g1(GateKind.Z), _g1(GateKind.X),
)
RESTORE_SEQUENCE = _seq(
    "restore",
    _g1(GateKind.X), _g1(GateKind.Z), _g1(GateKind.X),
    _g1(GateKind.Z), _g1(GateKind.H), _g1(GateKind.H),
)

#: wrapper sequences for the delayed-cancellation pass
DELAYED_SEQUENCES: tuple[GateSequence, ...] = (
    _seq("y-s-y", _g1(GateKind.Y), _g1(GateKind.S), _g1(GateKind.Y)),
    _seq("h-s-h-s-h", *( _g1(k) for k in (GateKind.H, GateKind.S, GateKind.H, GateKind.S, GateKind.H))),
    _seq("x-h-z-h-x", *( _g1(k) for k in (GateKind.X, GateKind.H, GateKind.Z, GateKind.H, GateKind.X))),
    _seq("h-t-t-h-t-t-h", *( _g1(k) for k in (GateKind.H, GateKind.T, GateKind.T, GateKind.H, GateKind.T, GateKind.T, GateKind.H))),
    _seq("z-h-y-h-z", *( _g1(k) for k in (GateKind.Z, GateKind.H, GateKind.Y, GateKind.H, GateKind.Z))),
    _seq("s-z-sdg", _g1(GateKind.S), _g1(GateKind.Z), _g1(GateKind.SDG)),
    _seq("t-s-tdg", _g1(GateKind.T), _g1(GateKind.S), _g1(GateKind.TDG)),
    _seq("swap-x-swap", (GateKind.SWAP, (0, 1)), _g1(GateKind.X), (GateKind.SWAP, (0, 1))),
    _seq("y-x-y-x-y", *( _g1(k) for k in (GateKind.Y, GateKind.X, GateKind.Y, GateKind.X, GateKind.Y))),
)


class SubstitutionRule(NamedTuple):
    target: GateKind
    replacement: GateSequence
    verified: bool
    phase_factor: complex


class RejectedRule(NamedTuple):
    target: GateKind
    replacement: GateSequence

    @property
    def effective(self) -> np.ndarray:
        """The computed unitary that failed the check, built on access."""
        return effective_unitary(self.replacement, n_qubits=ARITY[self.target])


class RulesetReport(NamedTuple):
    accepted: tuple[SubstitutionRule, ...]
    rejected: tuple[RejectedRule, ...]

    def summary(self) -> str:
        lines = []
        for rule in self.accepted:
            lines.append(
                f"accepted {rule.target.value} <- {rule.replacement.name}"
                f" (phase {rule.phase_factor:.3g})"
            )
        for rej in self.rejected:
            lines.append(
                f"rejected {rej.target.value} <- {rej.replacement.name}:"
                f" effective unitary {rej.effective.round(6).tolist()}"
            )
        return "\n".join(lines)


def _check_slots(seq: GateSequence, arity: int = 3) -> None:
    """Refuse a gate that is not unitary or has the wrong number of slots, a
    negative slot, a slot named twice by one gate, or more slots in all than
    ``arity`` (a rule's replacement acts on its target's qubits, at most 3),
    before anything is simulated."""
    for kind, slots in seq.gates:
        if kind not in UNITARY_KINDS or len(slots) != ARITY[kind]:
            raise RulesetError(
                f"sequence {seq.name!r}: {kind.value}{slots} is not a unitary gate on its arity"
            )
        if min(slots) < 0 or len(set(slots)) != len(slots):
            raise RulesetError(
                f"sequence {seq.name!r}: {kind.value}{slots} needs distinct non-negative slots"
            )
    if seq.n_slots > arity:
        raise RulesetError(f"sequence {seq.name!r} uses {seq.n_slots} slots; at most {arity} allowed")


def effective_unitary(seq: GateSequence, n_qubits: int | None = None) -> np.ndarray:
    """Matrix of a slot sequence in application order (computed, never trusted),
    on ``n_qubits`` qubits (default: the sequence's own slot count). Imports
    the dense simulator when called."""
    from .sim import unitary_of

    _check_slots(seq)
    return unitary_of(seq, n_qubits=n_qubits)


def verify_ruleset(rules: Iterable[tuple[GateKind, GateSequence]]) -> RulesetReport:
    """Check every rule exactly: the replacement must act as the target up to
    a global phase (:func:`_span_phase`), and that phase, a power of ω, is
    the rule's ``phase_factor``. Rules that fail come back in ``rejected``,
    whose ``effective`` unitary is built on access, and are never applied by
    any pass. Each verdict lands in the memo ``check_translation`` reads.
    """
    accepted: list[SubstitutionRule] = []
    rejected: list[RejectedRule] = []
    for target, seq in rules:
        if target not in UNITARY_KINDS:
            raise RulesetError(f"rule target {target.value!r} is not a unitary gate")
        _check_slots(seq, ARITY[target])
        original = GateApp(target, tuple(range(ARITY[target])))
        phase = _span_phase(_instantiate(seq, range(3)), (original,))
        if phase is None:
            rejected.append(RejectedRule(target, seq))
        else:
            accepted.append(SubstitutionRule(target, seq, True, phase))
    return RulesetReport(tuple(accepted), tuple(rejected))


#: one replacement gate: a name, or a name and a bracketed slot list
_GATE_TOKEN = re.compile(r"(\w+)(?:\(([^()]*)\))?")
#: a slot list with a space inside, which would split it into two tokens
_SPACED_SLOTS = re.compile(r"\w*\([^()]*\s[^()]*\)")


def load_ruleset(path: str | Path | None = None) -> list[tuple[GateKind, GateSequence]]:
    """Read substitution rules from a text file: one rule per line,
    ``target: gate gate ...``. Multi-qubit gates in a replacement take an
    explicit slot list without spaces, e.g. ``cx(0,1)``; a bare name means
    slots 0..arity-1. ``#`` starts a comment. Passing None loads the shipped
    default file. Errors name the line as ``path:lineno``.
    """
    if path is None:
        path = Path(__file__).parent / "data" / "rules" / "default_cloaked.rules"
    text = Path(path).read_text(encoding="utf-8")
    names = {k.value: k for k in GateKind}
    rules: list[tuple[GateKind, GateSequence]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise RulesetError(f"{path}:{lineno}: expected 'target: gate gate ...'")
        target_name, rhs = line.split(":", 1)
        target_name = target_name.strip().lower()
        if target_name not in names or names[target_name] not in UNITARY_KINDS:
            raise RulesetError(f"{path}:{lineno}: unknown target gate {target_name!r}")
        target = names[target_name]
        spaced = _SPACED_SLOTS.search(rhs)
        if spaced:
            raise RulesetError(f"{path}:{lineno}: {spaced.group(0)}: space inside a slot list")
        gates: list[tuple[GateKind, tuple[int, ...]]] = []
        for tok in rhs.split():
            match = _GATE_TOKEN.fullmatch(tok)
            if match is None:
                raise RulesetError(f"{path}:{lineno}: {tok}: expected 'gate' or 'gate(slot,...)'")
            name, slot_text = match.group(1).lower(), match.group(2)
            if name not in names or names[name] not in UNITARY_KINDS:
                raise RulesetError(f"{path}:{lineno}: unknown gate {name!r}")
            kind = names[name]
            if slot_text is not None:
                try:
                    slots = tuple(int(s) for s in slot_text.split(","))
                except ValueError:
                    raise RulesetError(f"{path}:{lineno}: {tok}: slots must be integers") from None
            else:
                slots = tuple(range(ARITY[kind]))
            if len(slots) != ARITY[kind]:
                raise RulesetError(f"{path}:{lineno}: {name} takes {ARITY[kind]} slot(s)")
            gates.append((kind, slots))
        if not gates:
            raise RulesetError(f"{path}:{lineno}: empty replacement sequence")
        seq = GateSequence("-".join(rhs.split()), tuple(gates))
        try:
            _check_slots(seq, ARITY[target])
        except RulesetError as exc:
            raise RulesetError(f"{path}:{lineno}: {exc}") from None
        rules.append((target, seq))
    return rules


def default_verified_rules() -> RulesetReport:
    """Verify and return the shipped default ruleset."""
    return verify_ruleset(load_ruleset())


# --------------------------------------------------------------------------
# shared pass machinery
# --------------------------------------------------------------------------


def _free_qubits(circuit: Circuit) -> list[list[int]]:
    """For each insertion site s (0..len(gates)), the qubits not measured
    before s, ascending. The sites between two measurements share one list,
    which no caller changes. Site 0 comes before every gate, so every qubit
    is free there."""
    free = list(range(circuit.n_qubits))
    sites = [free]
    for g in circuit.gates:
        if g.kind is GateKind.MEASURE:
            free = [q for q in free if q not in g.qubits]
        sites.append(free)
    return sites


def _instantiate(seq: GateSequence, qubits: Sequence[int], box: int | None = None,
                 group: int | None = None, window: int | None = None) -> list[GateApp]:
    return [
        GateApp(kind, tuple(map(qubits.__getitem__, slots)), None, box, group, window)
        for kind, slots in seq.gates
    ]


def _next_box_id(circuit: Circuit) -> int:
    return 1 + max((g.box for g in circuit.gates if g.box is not None), default=-1)


def _next_group_id(circuit: Circuit) -> int:
    return 1 + max(circuit.subst_originals.keys(), default=-1)


def _next_window_id(circuit: Circuit) -> int:
    return 1 + max((g.window for g in circuit.gates if g.window is not None), default=-1)


def inverse_gates_pass(circuit: Circuit, cfg: ObfuscationConfig) -> Circuit:
    """Insert adjacent gate/inverse pairs between existing gates.

    Every boundary between consecutive gate positions (including before the
    first and after the last gate) is a candidate site, and a pair goes on
    qubits that are not measured before its site (:func:`_free_qubits`). An
    empty circuit has no sites and is returned unchanged with a warning.
    """
    rng = random.Random(cfg.seed)
    if not circuit.gates:
        warnings.warn("inverse pass: no eligible insertion site", PassWarning)
        return circuit
    free = _free_qubits(circuit)
    out: list[GateApp] = []
    window = _next_window_id(circuit)
    for site, available in enumerate(free):
        if rng.random() < cfg.intensity and available:
            for _ in range(MAX_DRAWS):
                pair = rng.choice(INVERSE_PAIRS)
                if pair.n_slots > len(available):
                    continue  # redraw: no qubits of the required arity here
                qubits = rng.sample(available, pair.n_slots)
                out.extend(_instantiate(pair, qubits, window=window))
                window += 1
                break
        if site < len(circuit.gates):
            out.append(circuit.gates[site])
    return circuit.with_gates(out)


def composite_gates_pass(circuit: Circuit, cfg: ObfuscationConfig) -> Circuit:
    """Insert auxiliary+restore composite boxes and wrap decoy boxes.

    At each selected site the auxiliary sequence and its restore sequence go
    in as two adjacent boxes on one random qubit (their product is the
    identity). Afterwards random runs of 2-4 consecutive box-free original
    gates are grouped into decoy boxes so inserted and original boxes look
    alike. The pair goes on a qubit that is not measured before its site
    (:func:`_free_qubits`). Unlike the inverse pass, an empty circuit still
    has one site, so a bare identity block can be produced.
    """
    rng = random.Random(cfg.seed)
    free = _free_qubits(circuit)
    next_box = _next_box_id(circuit)
    window = _next_window_id(circuit)

    # decoy boxes first, over runs of 2-4 consecutive box-free original gates,
    # so identity insertions afterwards cannot break the runs apart
    grouped: list[GateApp] = list(circuit.gates)
    i = 0
    while i < len(grouped):
        eligible = grouped[i].origin == "original" and grouped[i].box is None
        if eligible and rng.random() < cfg.intensity:
            run_len = rng.randint(2, 4)
            j = i
            while (
                j < len(grouped)
                and j - i < run_len
                and grouped[j].origin == "original"
                and grouped[j].box is None
            ):
                j += 1
            if j - i >= 2:
                for k in range(i, j):
                    grouped[k] = grouped[k]._replace(box=next_box)
                next_box += 1
                i = j
                continue
        i += 1

    def splits_a_box(site: int) -> bool:
        if site == 0 or site == len(grouped):
            return False
        left, right = grouped[site - 1].box, grouped[site].box
        return left is not None and left == right

    out: list[GateApp] = []
    for site, available in enumerate(free):
        if not splits_a_box(site) and rng.random() < cfg.intensity and available:
            q = rng.choice(available)
            out.extend(_instantiate(AUXILIARY_SEQUENCE, [q], next_box, window=window))
            out.extend(_instantiate(RESTORE_SEQUENCE, [q], next_box + 1, window=window))
            next_box += 2
            window += 1
        if site < len(grouped):
            out.append(grouped[site])
    return circuit.with_gates(out)


def cloaked_gates_pass(
    circuit: Circuit, cfg: ObfuscationConfig, ruleset: Sequence[SubstitutionRule]
) -> Circuit:
    """Replace gates with verified substitution sequences.

    Each gate whose kind matches some verified rule is replaced with
    probability ``intensity`` by a randomly chosen matching rule's sequence
    mapped onto the gate's qubits. Any rule with verified=False is refused
    outright: only the oracle decides what is equivalent. Phase factors are
    global by the verification invariant, so every verified rule is safe.
    """
    for rule in ruleset:
        if not rule.verified:
            raise RulesetError(
                f"unverified rule {rule.target.value} <- {rule.replacement.name} in ruleset"
            )
    by_target: dict[GateKind, list[SubstitutionRule]] = {}
    for rule in ruleset:
        by_target.setdefault(rule.target, []).append(rule)
    rng = random.Random(cfg.seed)
    subst = dict(circuit.subst_originals)
    next_group = _next_group_id(circuit)
    out: list[GateApp] = []
    for g in circuit.gates:
        rules = by_target.get(g.kind)
        if rules and rng.random() < cfg.intensity:
            rule = rng.choice(rules)
            subst[next_group] = g
            out.extend(_instantiate(rule.replacement, g.qubits, box=g.box, group=next_group))
            next_group += 1
        else:
            out.append(g)
    return circuit.with_gates(out, subst_originals=subst)


#: the delayed wrappers as draws take them: DELAYED_SEQUENCES's order (a
#: draw from this tuple makes the same random call and picks the same
#: wrapper), each with its index and slot count
_WRAPPERS = tuple((i, seq, seq.n_slots) for i, seq in enumerate(DELAYED_SEQUENCES))

#: the delayed pass's commit verdicts, keyed by one int: the block's gates on
#: first-touch labels, the wrapper's index and its slot labels; cleared past
#: 2**14 keys. Most draws repeat a key (4,878 draws come to 180 keys on an
#: 8-qubit, 1,000-gate random circuit), and asking ``_span_phase`` of each
#: draw's window instead took the pass from about 44 to 67 ms
_COMMITS: dict[int, bool] = {}


def _site_block(work: list[GateApp], start: int, length: int) -> tuple:
    """The block of up to ``length`` gates at ``start`` (original unitary
    gates, in no window or group), its qubits in first-touch order, and its
    code: each gate's kind and first-touch labels in 10 bits under a leading
    1, or 0 past 3 qubits."""
    block: list[GateApp] = []
    for g in work[start : start + length]:
        if g.window is not None or g.group is not None or g.kind not in UNITARY_KINDS:
            break
        block.append(g)
    label: dict[int, int] = {}
    code = 1
    for g in block:
        code = code << 10 | _KIND_CODE[g.kind]
        for shift, q in enumerate(g.qubits, 2):
            code |= label.setdefault(q, len(label)) << 2 * shift
    return block, list(label), code if len(label) <= 3 else 0


def delayed_gates_pass(circuit: Circuit, cfg: ObfuscationConfig) -> Circuit:
    """Wrap contiguous blocks of 1-3 original gates in a delayed sequence.

    For each candidate block start (coin per original unitary gate), up to
    MAX_DRAWS (wrapper, block, qubit-mapping) combinations are tried; an
    insertion is committed only when the wrapped block acts exactly like the
    block alone, up to global phase: ``_span_phase`` of the window against
    the block, asked once per distinct int key of ``_COMMITS``. That is the
    question :func:`check_translation` asks of the window, so the pass
    commits a window exactly when the check accepts it, and the check finds
    the verdict in the memo behind ``_span_phase``. A wrapper reaches past the
    block's qubits only onto qubits not measured before the block
    (:func:`_free_qubits`). Sites are processed right to left so committed
    insertions do not shift pending candidate positions. Each site builds
    its candidate blocks once, on the first draw of their length.
    """
    rng = random.Random(cfg.seed)
    if not circuit.gates:
        warnings.warn("delayed pass: no eligible insertion site", PassWarning)
        return circuit
    work: list[GateApp] = list(circuit.gates)
    # sites run right to left and insertions land at ``start`` or later, so
    # work[:start] is always circuit.gates[:start]
    free = _free_qubits(circuit)
    committed = 0
    window = _next_window_id(circuit)
    for start in range(len(work) - 1, -1, -1):
        g = work[start]
        # only original unitary gates, in no window or group, start a block
        if g.window is not None or g.group is not None or g.kind not in UNITARY_KINDS:
            continue
        if rng.random() >= cfg.intensity:
            continue
        blocks: list = [None] * 4
        for _ in range(MAX_DRAWS):
            length = rng.randint(1, 3)
            if blocks[length] is None:
                blocks[length] = _site_block(work, start, length)
            block, block_qubits, code = blocks[length]
            index, wrapper, need = rng.choice(_WRAPPERS)
            if need <= len(block_qubits):
                wrapper_qubits = rng.sample(block_qubits, need)
                if not code:
                    continue  # past 3 qubits
                slots = 0
                for q in reversed(wrapper_qubits):
                    slots = slots << 2 | block_qubits.index(q)
            else:
                extras = [q for q in free[start] if q not in block_qubits]
                if not extras:
                    continue
                wrapper_qubits = block_qubits + rng.sample(extras, need - len(block_qubits))
                slots = 0b0100  # labels 0, 1
            key = (code << 4 | index) << 4 | slots
            verdict = _COMMITS.get(key)
            if verdict is None:
                if len(_COMMITS) >= 2**14:
                    _COMMITS.clear()
                copy = _instantiate(wrapper, wrapper_qubits)
                verdict = _COMMITS[key] = _span_phase(copy + block + copy, block) is not None
            if not verdict:
                continue
            # both copies of the wrapper, and the block between them, form one window
            copy = _instantiate(wrapper, wrapper_qubits, window=window)
            work[start + len(block) : start + len(block)] = copy
            work[start:start] = copy
            committed += 1
            window += 1
            break
    if committed == 0:
        warnings.warn("delayed pass: no committable insertion found", PassWarning)
        return circuit
    return circuit.with_gates(work)


def apply_pass(
    method: str,
    circuit: Circuit,
    cfg: ObfuscationConfig,
    ruleset: Sequence[SubstitutionRule] | None = None,
) -> Circuit:
    """Dispatch a pass by method name (CLI entry point)."""
    if method == "inverse":
        return inverse_gates_pass(circuit, cfg)
    if method == "composite":
        return composite_gates_pass(circuit, cfg)
    if method == "cloaked":
        if ruleset is None:
            ruleset = default_verified_rules().accepted
        return cloaked_gates_pass(circuit, cfg, ruleset)
    if method == "delayed":
        return delayed_gates_pass(circuit, cfg)
    raise ValueError(f"unknown method {method!r}")


def undo(circuit: Circuit) -> Circuit:
    """Provenance rollback: drop inserted gates, collapse substitution groups
    back to their recorded original gates, and clear box grouping. Rolls all
    the way back to the unobfuscated circuit even for stacked pass outputs (a
    substituted group whose recorded original was itself an inserted gate is
    dropped like any other insertion). A group with no recorded original
    raises ValueError.
    """
    out: list[GateApp] = []
    seen_groups: set[int] = set()
    for pos, g in enumerate(circuit.gates):
        if g.group is not None:
            if g.group not in seen_groups:
                seen_groups.add(g.group)
                original = circuit.subst_originals.get(g.group)
                if original is None:
                    raise ValueError(f"gate {pos}: group {g.group} has no recorded original")
                if original.origin != "inserted":
                    out.append(original if original.box is None else original._replace(box=None))
            continue
        if g.window is not None:  # inserted
            continue
        out.append(g if g.box is None else g._replace(box=None))
    remaining = {
        gid: g for gid, g in circuit.subst_originals.items() if gid not in seen_groups
    }
    return circuit.with_gates(out, subst_originals=remaining)


# --------------------------------------------------------------------------
# translation validation: the exact check of a pass's output
# --------------------------------------------------------------------------


def _span_phase(span: Sequence[GateApp], originals: Sequence[GateApp]) -> complex | str | None:
    """The global phase c with span = c · originals, exactly, or None if
    there is none; or why the two cannot be compared: a gate that is not
    unitary, or more than MAX_SPAN_QUBITS qubits in all.

    The one exact check of this module: rule verification, the delayed
    commit check and :func:`check_translation` all ask here. It asks
    :func:`qobf.exact._phase_suffix`, the package's one memo of phase
    verdicts, whether the whole miter span . originals⁻¹ is c · I, so a
    pattern is decided once per process, whichever caller asks first.
    """
    for g in (*span, *originals):
        if g.kind not in UNITARY_KINDS:
            return f"holds a {g.kind.value}"
    miter = [(g.kind, g.qubits) for g in span]
    miter += [(_INVERSE.get(g.kind, g.kind), g.qubits) for g in reversed(originals)]
    # only the whole list is asked, never its shorter suffixes
    found = _phase_suffix(miter, len(miter), 0, len(miter), len(miter))
    if found is not None:
        return found[1]
    # the walk refuses a list on more qubits, so only a refusal counts them
    width = len({q for _, qubits in miter for q in qubits})
    if width > MAX_SPAN_QUBITS:
        return f"touches {width} qubits; at most {MAX_SPAN_QUBITS} allowed"
    return None


def check_translation(source: Circuit, output: Circuit) -> str | None:
    """Why ``output`` is not a sound rewrite of ``source`` by one pass, or None.

    Translation validation (Pnueli, Siegel & Singerman, TACAS 1998): the check
    uses how the pass derived its output instead of simulating it. The output
    must split into contiguous spans of three shapes:

      * an original gate standing alone;
      * a window: the inserted gates that carry one window id, from the first
        to the last, with nothing but original gates between them (a delayed
        wrapper's block);
      * a substitution group: the gates that carry one group id, with nothing
        between them.

    Each window and group touches at most 3 qubits and must act as its
    originals (the window's original gates, or the group's recorded original
    gate) up to a global phase, decided exactly by ``_span_phase``. Then
    ``undo(output)`` must equal ``source`` gate for gate, measurements
    included. Replacing each span by its originals changes the circuit only
    by a global phase, and what is left is ``source``, so the two are
    equivalent. Whatever the check cannot
    place fails closed; that includes a ``source`` that already carries a
    pass's provenance, since undo rolls back every pass at once. Each span
    is asked of ``_span_phase``, which decides each pattern once per
    process, so the windows of a ``delayed`` output and the groups of a
    ``cloaked`` one were decided when the pass committed them or the
    ruleset was verified.
    """
    gates = output.gates
    last: dict[tuple[str, int], int] = {}
    for pos, g in enumerate(gates):
        if g.group is None:
            if g.window is not None:
                last["window", g.window] = pos
        elif g.window is None:
            last["group", g.group] = pos
        else:
            return (f"gate {pos} ({g.kind.value}, {g.origin}, window {g.window},"
                    f" group {g.group}) fits no window or group")
    pos = 0
    while pos < len(gates):
        g = gates[pos]
        if g.window is None and g.group is None:
            pos += 1
            continue
        key = ("window", g.window) if g.group is None else ("group", g.group)
        end = last[key]
        what = f"{key[0]} {key[1]}"
        span = gates[pos : end + 1]
        for inner, h in enumerate(span, pos):
            # a window holds its block's original gates; nothing else may sit inside
            if h.group != g.group or h.window is not None and h.window != g.window:
                return f"{what} appears in two separate runs, split by gate {inner}"
        if key[0] == "group":
            recorded = output.subst_originals.get(key[1])
            if recorded is None or recorded.origin != "original":
                return f"{what} replaces no recorded original gate"
            originals = (recorded,)
        else:
            originals = [h for h in span if h.window is None]
        phase = _span_phase(span, originals)
        if phase is None:
            phase = "does not act as its original gates up to a global phase"
        if isinstance(phase, str):
            return f"{what} (gates {pos}-{end}) {phase}"
        pos = end + 1
    if not same_gates(undo(output), source):
        return "undoing the pass does not give back the input"
    return None
