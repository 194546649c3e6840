"""The equivalence oracle's exact front: the miter of two circuits, reduced
by exact rewrites, and :func:`equivalent`, the oracle of ``verify`` and the
reports. Standard library only.

A miter reduced to no gate is equal, decided without numpy, in distribution
mode too when both circuits measure the same pairs. The miter of a circuit
and the output of any pass reduces so. Only a miter that keeps a gate, or
distribution mode on circuits that measure different pairs, loads the dense
float simulator in :mod:`qobf.sim`. The rewrites' phase tests run on the
exact ring of :mod:`qobf.exact`. Only ``verify`` and the reports load this
module, so the commands that do not compare circuits never compile it.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import Sequence

from .exact import _phase_numerator
from .ir import (
    _INVERSE,
    _KIND_CODE,
    _MONOMIAL,
    Circuit,
    GateApp,
    GateKind,
    SimulationError,
    _check_cap,
    _check_unitary_cap,
    _key_pairs,
    measured_pairs,
)

#: the longest one-qubit run :func:`reduced_miter`'s stack pass multiplies
#: out: in a miter, a delayed block b and wrapper w meet b, w⁻¹, b⁻¹, w⁻¹
#: (1 + 7 + 1 + 7 gates)
MAX_RUN = 16

#: the most kept gates and qubits a suffix dropped by :func:`reduced_miter`'s
#: span rule may have: a delayed window meets its block as b, w⁻¹, b⁻¹, w⁻¹
#: (3 + 7 + 3 + 7 gates) on at most 3 qubits
MAX_SPAN = 20
MAX_SPAN_QUBITS = 3

#: the span rule's trie is cleared when it grows past this many nodes
MAX_SPAN_NODES = 2**15

#: the kinds of which a phase on at most 3 qubits holds an even number: c·I
#: on m qubits has determinant c^(2^m), c a power of ω, and an odd number of
#: them gives the product a determinant that is no such power
_ODD_KINDS = frozenset({GateKind.T, GateKind.TDG, GateKind.CCX})


def reduced_miter(first: Sequence[GateApp], second: Sequence[GateApp]) -> list[GateApp]:
    """The miter of two gate lists, less what exact rewrites cancel: gates
    that act as a phase times the identity exactly when ``first`` and
    ``second`` act alike up to a global phase.

    The miter, ``first`` then ``second`` reversed and inverted (barriers
    dropped, a measurement refused), is built from the middle, as in
    Burgholzer & Wille (IEEE TCAD 2021). Dropping a phase is exact whatever
    is dropped; the rules' limits only make them fast and make them catch
    what the passes of ``obfuscate`` write.

    First the span rule (:func:`_drop_phase_suffixes`) runs over the plain
    list: after each push of a gate of ``second``, it drops the shortest
    suffix of 2 to MAX_SPAN kept gates on at most MAX_SPAN_QUBITS qubits
    that :func:`qobf.exact.identity_phase` finds a phase, memoised on
    first-touch labels. It drops a delayed
    window, where a block's gate on more qubits meets its inverse only
    across the wrapper. What it keeps goes through the span rule once more,
    the gates of both lists alike. Then a stack of kept gates per qubit
    cancels a gate against the last kept gate on its qubits when that gate
    is the last on every one of them and is its inverse on the same operand
    tuple, across gates on other qubits, and drops a run (kept one-qubit
    gates on one qubit, no kept gate on more qubits between them) of 3 to
    MAX_RUN gates that is a phase, memoised by kinds. Two one-qubit kinds
    make a phase only as an inverse pair.
    """
    miter = [(g.kind, g.qubits) for g in first if g.kind is not GateKind.BARRIER]
    middle = len(miter)
    miter += [(_INVERSE.get(g.kind, g.kind), g.qubits)
              for g in reversed(second) if g.kind is not GateKind.BARRIER]
    if any(kind is GateKind.MEASURE for kind, _ in miter):
        raise SimulationError("circuit contains measurements; strip them first")
    kept = _drop_phase_suffixes(miter, middle)
    if kept:
        kept = _drop_phase_suffixes(kept, 0)
    return [GateApp(*gate) for gate in _cancel_on_stacks(kept)]


def _drop_phase_suffixes(miter: list[tuple], middle: int) -> list[tuple]:
    """The span rule over the plain miter, whose first ``middle`` gates come
    from the first circuit; returns the gates it keeps.

    The first circuit's gates are pushed as they are. Each gate of the
    second then cancels an inverse on top, or is pushed and may end a
    suffix that :func:`_phase_suffix` drops. Such a suffix's gates of the
    first circuit sit only on qubits its gates of the second touch, and are
    no more than those: a window of the second circuit meets its own block,
    not the first circuit's gates below, whose windows come later.

    The second circuit's copy of a phase in the first, such as a block
    holding an inverse pair, can cancel on its own. The first circuit's
    copy then blocks the gates below it, and the second circuit's gates
    pile up above it. So when they outgrow MAX_SPAN, and at the end, the
    first circuit's gates drop their shortest phase suffix, if they have
    one, and the second circuit's gates above are pushed again.
    """
    kept = miter[:middle]
    # kept[:base] are untouched gates of the first circuit
    base = middle
    retried = None
    todo = miter[middle:][::-1]
    while todo or retried != base:
        if todo:
            gate = todo.pop()
            kind, qubits = gate
            if kept and kept[-1] == (_INVERSE.get(kind, kind), qubits):
                kept.pop()
                base = min(base, len(kept))
                continue
            kept.append(gate)
            if len(kept) - base <= MAX_SPAN:
                start = _phase_suffix(kept, len(kept), base)
                if start is not None:
                    del kept[start:]
                    base = min(base, start)
                continue
            if retried == base:
                continue
        # stuck, or at the end: the first circuit's top drops a phase of its
        # own, and the second circuit's gates above it are pushed again
        retried = base
        start = _phase_suffix(kept, base, 0)
        if start is not None:
            todo += reversed(kept[base:])
            del kept[start:]
            base = start
    return kept


#: the span rule's verdicts: a trie of suffixes walked back from the top on
#: first-touch labels. Each node is [verdict, children, state]: the verdict is
#: None until asked, and False from the start for a suffix that cannot be a
#: phase; the state counts the suffix's gates on each label, 6 bits a label,
#: and above them the parity of its kinds in ``_ODD_KINDS``.
_SPANS: list = [None, {}, 0]
_span_nodes = 0

#: the state's parity bit, and each kind's step to it
_ODD = 1 << 6 * MAX_SPAN_QUBITS
_PARITY = {kind: _ODD if kind in _ODD_KINDS else 0 for kind in GateKind}
#: per number of labels n, (add, closed): 30 added to a count carries into
#: its bit 5 just when the count is at least 2, so each of the first n counts
#: is when (state + add) & closed == closed
_CLOSED = [(sum(30 << 6 * l for l in range(n)), sum(32 << 6 * l for l in range(n)))
           for n in range(MAX_SPAN_QUBITS + 1)]


def _phase_suffix(kept: list[tuple], top: int, base: int) -> int | None:
    """Where the shortest suffix of ``kept[:top]`` that the span rule drops
    starts, or None. Below ``base``, a gate joins only on qubits the gates
    above ``base`` touch, and there are no more such gates than those.

    A phase has at least two gates on each qubit it touches (no gate of the
    alphabet acts on one of its qubits as the identity) and an even number
    of the kinds in ``_ODD_KINDS``; only a suffix that passes both is run.
    Both depend on the suffix's labelled gates alone, so each trie node
    decides them once, when it is made.
    """
    global _span_nodes
    label: dict[int, int] = {}
    labelled = label.get
    node = _SPANS
    for i in range(top - 1, max(-1, top - 1 - MAX_SPAN, 2 * base - top - 1), -1):
        kind, qubits = kept[i]
        # the gate on labels, as one int: the kind's code, then 2 bits a label
        key = _KIND_CODE[kind]
        shift = 4
        for q in qubits:
            local = labelled(q)
            if local is None:
                if i < base or len(label) == MAX_SPAN_QUBITS:
                    return None
                local = label[q] = len(label)
            key |= local << shift
            shift += 2
        parent = node
        node = parent[1].get(key)
        if node is None:
            if _span_nodes >= MAX_SPAN_NODES:
                _SPANS[1].clear()
                _span_nodes = 0
            state = parent[2] ^ _PARITY[kind]
            for q in qubits:
                state += 1 << 6 * label[q]
            add, closed = _CLOSED[len(label)]
            shut = not state & _ODD and (state + add) & closed == closed
            node = parent[1][key] = [None if shut else False, {}, state]
            _span_nodes += 1
        verdict = node[0]
        if verdict is None:
            pairs = [(_MONOMIAL.get(k), tuple(map(label.__getitem__, qs))) for k, qs in kept[i:top]]
            verdict = node[0] = _phase_numerator(pairs, len(label)) is not None
        if verdict:
            return i
    return None


def _cancel_on_stacks(miter: list[tuple]) -> list[tuple]:
    """The stack pass of :func:`reduced_miter`: the gates it keeps."""
    kept: list[tuple[GateKind, tuple[int, ...]] | None] = []
    # per qubit, each kept gate's index in kept and the kinds of the one-qubit
    # run it ends: () for a gate on more qubits, None past MAX_RUN
    stacks: dict[int, list[tuple[int, tuple[GateKind, ...] | None]]] = defaultdict(list)
    for gate in miter:
        kind, qubits = gate
        stack = stacks[qubits[0]]
        below = ()
        if stack:
            top, below = stack[-1]
            if kept[top] == (_INVERSE.get(kind, kind), qubits) and (
                    len(qubits) == 1 or all(stacks[q][-1][0] == top for q in qubits[1:])):
                kept[top] = None
                for q in qubits:
                    stacks[q].pop()
                continue
        index = len(kept)
        kept.append(gate)
        if len(qubits) > 1:
            for q in qubits:
                stacks[q].append((index, ()))
            continue
        run = None if below is None or len(below) == MAX_RUN else below + (kind,)
        stack.append((index, run))
        if run is not None and len(run) > 2 and _is_phase(run):
            for i, _ in stack[-len(run):]:
                kept[i] = None
            del stack[-len(run):]
    return [gate for gate in kept if gate is not None]


def _deciding_mode(c1: Circuit, c2: Circuit, mode: str) -> str:
    """The mode :func:`equivalent` decides in: ``distribution`` in place of
    ``statevector`` or ``unitary``, which strip measurements, when the sorted
    (qubit, classical bit) measurement pairs differ; else ``mode``."""
    if mode in ("statevector", "unitary") and sorted(measured_pairs(c1)) != sorted(measured_pairs(c2)):
        return "distribution"
    return mode


def equivalent(c1: Circuit, c2: Circuit, mode: str = "statevector") -> tuple[bool, float]:
    """Decide circuit equivalence up to global phase; returns (equal, fidelity).

    Modes:
      * ``statevector`` - the miter W of the two circuits, measurements
        stripped, less what :func:`reduced_miter` cancels exactly, runs once
        on one dense random state psi drawn from a fixed seed; equal when
        W psi == phase * psi within 1e-9 per entry. Relative phases count.
        Fidelity is the overlap |<psi|W psi>| = |<U1 psi|U2 psi>|.
      * ``unitary``     - W == phase * I within 1e-9 per entry (n <= 10);
        fidelity is |tr W| / 2**n = |tr(U1^dagger U2)| / 2**n.
      * ``distribution`` - total-variation distance of exact outcome
        distributions <= 1e-9; fidelity is 1 - TV.

    When the sorted (qubit, classical bit) measurement pairs differ,
    ``distribution`` decides in place of the two modes that strip
    measurements. Every mode keeps the dense simulator's caps. A miter
    reduced to no gate is W = phase * I exactly, so it gives (True, 1.0)
    without the dense simulator or numpy. So does distribution mode when,
    too, both circuits measure the same sorted (qubit, classical bit) pairs:
    no gate follows a measurement (an IR invariant), so both distributions
    are those of one state. It refuses what the dense check refuses first: a
    circuit that measures nothing, or a qubit or classical bit twice. Any
    other pair runs on :mod:`qobf.sim`.
    """
    n = c1.n_qubits
    if n != c2.n_qubits:
        raise SimulationError(f"qubit-count mismatch: {n} vs {c2.n_qubits}")
    mode = _deciding_mode(c1, c2, mode)
    if mode not in ("statevector", "unitary", "distribution"):
        raise SimulationError(f"unknown equivalence mode {mode!r}")
    (_check_unitary_cap if mode == "unitary" else _check_cap)(n)
    if mode == "distribution":
        # the dense check's refusals, in its order
        pairs = [sorted(_key_pairs(c)) for c in (c1, c2)]
        if pairs[0] == pairs[1] and not _unitary_miter(c1, c2):
            return True, 1.0
        from .sim import _distribution_check

        return _distribution_check(c1, c2)
    miter = _unitary_miter(c1, c2)
    if not miter:
        return True, 1.0
    from . import sim

    return sim._miter_check(miter, n, sim._stimulus if mode == "statevector" else sim._identity)


def _unitary_miter(c1: Circuit, c2: Circuit) -> list[GateApp]:
    """:func:`reduced_miter` of two circuits, measurements stripped."""
    return reduced_miter(*([g for g in c.gates if g.kind is not GateKind.MEASURE] for c in (c1, c2)))


@lru_cache(maxsize=2**14)
def _is_phase(run: tuple[GateKind, ...]) -> bool:
    return _phase_numerator([(_MONOMIAL.get(kind), (0,)) for kind in run], 1) is not None
