"""The equivalence oracle's exact front: the miter of two circuits, reduced
by exact rewrites, and :func:`equivalent`, the oracle of ``verify`` and the
reports. Standard library only.

A miter reduced to no gate is equal, decided without numpy, in distribution
mode too when both circuits measure the same pairs. The miter of a circuit
and the output of any pass reduces so, but for a rare ``delayed`` output of
a small circuit. Only a miter that keeps a gate, or distribution mode on
circuits that measure different pairs, loads the dense float simulator in
:mod:`qobf.sim`. But for an adjacent inverse pair, every phase the rewrites
drop is decided on the exact ring by :func:`qobf.exact._phase_suffix`, the
package's one memo of phase verdicts, which ``obfuscate`` shares. Only
``verify`` and the reports load this module, so the commands that do not
compare circuits never compile it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from .exact import MAX_SPAN_QUBITS, _phase_suffix
from .ir import (
    _INVERSE,
    Circuit,
    GateApp,
    GateKind,
    SimulationError,
    _check_cap,
    _check_unitary_cap,
    _key_pairs,
    measured_pairs,
)

#: the most kept gates a phase dropped by :func:`reduced_miter`'s rules may
#: have, on at most MAX_SPAN_QUBITS qubits: a delayed window meets its block
#: as b, w⁻¹, b⁻¹, w⁻¹ (3 + 7 + 3 + 7 gates)
MAX_SPAN = 20


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
    that is a phase, such as a delayed window, where a block's gate on more
    qubits meets its inverse only across the wrapper. Then the frontier rule
    (:func:`_drop_frontier_phases`) drops, at each gate of what is left, the
    shortest such phase read per qubit past gates on other qubits, such as a
    wrapper half that met a block gate of the window below first. Both ask
    :func:`qobf.exact._phase_suffix`, which decides a suffix exactly,
    memoised on first-touch labels.
    """
    miter = [(g.kind, g.qubits) for g in first if g.kind is not GateKind.BARRIER]
    middle = len(miter)
    miter += [(_INVERSE.get(g.kind, g.kind), g.qubits)
              for g in reversed(second) if g.kind is not GateKind.BARRIER]
    if any(kind is GateKind.MEASURE for kind, _ in miter):
        raise SimulationError("circuit contains measurements; strip them first")
    kept = _drop_phase_suffixes(miter, middle)
    return [GateApp(*gate) for gate in _drop_frontier_phases(kept)]


def _drop_phase_suffixes(miter: list[tuple], middle: int) -> list[tuple]:
    """The span rule over the plain miter, whose first ``middle`` gates come
    from the first circuit; returns the gates it keeps.

    The first circuit's gates are pushed as they are. Each gate of the
    second then cancels an inverse on top, or is pushed and may end a
    suffix that :func:`qobf.exact._phase_suffix` drops. Such a suffix's
    gates of the first circuit sit only on qubits its gates of the second
    touch, and are no more than those: a window of the second circuit meets its own block,
    not the first circuit's gates below, whose windows come later.

    The second circuit's copy of a phase in the first, such as a block
    holding an inverse pair, can cancel on its own. The first circuit's
    copy then blocks the gates below it, and the second circuit's gates
    pile up above it. So when they outgrow MAX_SPAN, and at the end, the
    first circuit's gates drop their shortest phase suffix, if they have
    one, and the second circuit's gates above are pushed again. The frontier
    rule that follows reads only down from each gate, so it cannot stand in
    for this retry.
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
                found = _phase_suffix(kept, len(kept), base, MAX_SPAN)
                if found is not None:
                    del kept[found[0]:]
                    base = min(base, found[0])
                continue
            if retried == base:
                continue
        # stuck, or at the end: the first circuit's top drops a phase of its
        # own, and the second circuit's gates above it are pushed again
        retried = base
        found = _phase_suffix(kept, base, 0, MAX_SPAN)
        if found is not None:
            todo += reversed(kept[base:])
            del kept[found[0]:]
            base = found[0]
    return kept


def _drop_frontier_phases(miter: list[tuple]) -> list[tuple]:
    """The frontier rule over what the span rule kept: the gates it keeps.

    Each gate is pushed onto a stack per qubit, and the stacks of its qubits
    are read down, newest gate first. A qubit joins only where its top is
    the next gate read, so every kept gate above the point reached acts on
    other qubits and commutes past the gates read. So dropping the fewest
    gates read, from the newest, that :func:`qobf.exact._phase_suffix` finds
    a phase is exact.
    """
    kept: list[tuple | None] = []
    # per qubit, the indices in kept of its kept gates, above a floor of -1
    stacks: dict[int, list[int]] = defaultdict(lambda: [-1])
    for index, gate in enumerate(miter):
        kept.append(gate)
        for q in gate[1]:
            stacks[q].append(index)
        # a phase has two gates on each of its qubits
        if any(len(stacks[q]) < 3 for q in gate[1]):
            continue
        # per qubit reached, the stack position of its next gate to read
        at = {q: len(stacks[q]) - 1 for q in gate[1]}
        read: list[int] = []
        i = index
        while i >= 0 and len(read) < MAX_SPAN:
            # a new qubit joins only where its top is the gate read
            joins = [q for q in kept[i][1] if q not in at]
            if len(at) + len(joins) > MAX_SPAN_QUBITS or any(stacks[q][-1] != i for q in joins):
                break
            for q in kept[i][1]:
                at[q] = at.get(q, len(stacks[q]) - 1) - 1
            read.append(i)
            i = max(stacks[q][p] for q, p in at.items())
        span = [kept[i] for i in reversed(read)]
        found = _phase_suffix(span, len(span), 0, MAX_SPAN)
        if found is not None:
            for i in read[:len(span) - found[0]]:
                for q in kept[i][1]:
                    stacks[q].pop()
                kept[i] = None
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
