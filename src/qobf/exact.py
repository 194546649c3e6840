"""Exact simulation of small Clifford+T circuits, without numpy.

Every amplitude of a Clifford+T circuit started in a basis state lies in the
ring Z[1/√2, i], and every probability is a :class:`Dyadic` (p + q√2)/2^k, so
a dead outcome is exactly zero and a total is exactly one. The ring
arithmetic, the gate table, the basis-state run and the single rounding live
in :mod:`qobf._kernel`, which wrapped programs embed; this module runs it on
the pairs ``ir._kernel_gates`` makes of the IR's gates, as the float
simulator does. The classical-bit key layout is ``_kernel._measured_parts``,
which the float simulator calls too.

Each connected component of the qubit-interaction graph runs on its own
state, and a component wider than MAX_EXACT_QUBITS raises SimulationError.
Values leave the ring once, at the end, each rounded to the nearest float.

This is the predicate side's simulator: opaque-predicate models and branch
resolution use it. It also holds the package's one up-to-phase check of
short gate lists: :func:`_phase_suffix` tells whether a list on at most
MAX_SPAN_QUBITS qubits, or a suffix of it, acts as the identity up to a
global phase, by exact equality, with no tolerance, and keeps each verdict
and its phase in one trie. ``obfuscate`` asks it of the whole miter of a
substitution rule, a delayed wrapper with its block, or any window
:func:`qobf.passes.check_translation` checks; ``verify`` asks it of the
suffixes :mod:`qobf.miter` may drop from the miter of two whole circuits.
Whole-circuit states are too large for the ring, so what that miter keeps
runs on the dense float simulator in :mod:`qobf.sim`.
:func:`identity_phase` is the same test without the memo.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from ._kernel import (
    _ZERO_AMPLITUDE,
    _Dyadic,
    _basis_run,
    _complex,
    _distribution,
    _measured_parts,
    _times_omega,
)
from .ir import _KIND_CODE, _MONOMIAL, Circuit, GateApp, GateKind, SimulationError, _kernel_gates, _key_pairs

#: widest component simulated; the widest predicate (branch) has five qubits,
#: so it stays in range even if a pass joins its two segments
MAX_EXACT_QUBITS = 5

#: an amplitude's numerator a + bω + cω² + dω³, as (a, b, c, d)
Amplitude = tuple[int, int, int, int]

#: the real number (p + q√2) / 2**k, stored with the smallest such k
Dyadic = _Dyadic
ZERO = Dyadic(0)
ONE = Dyadic(1)


def _check_width(n: int) -> None:
    if n > MAX_EXACT_QUBITS:
        raise SimulationError(
            f"{n}-qubit component exceeds the {MAX_EXACT_QUBITS}-qubit exact simulator cap"
        )


def _run(pairs: Sequence[tuple], n: int) -> tuple[list[Amplitude], int]:
    """Numerators of the state the kernel's (table entry, qubits) pairs make
    from |0...0>, and their shared k."""
    _check_width(n)
    return _basis_run(pairs, n)


def identity_phase(gates: Sequence[GateApp], n: int) -> complex | None:
    """c if the unmeasured gates act on n qubits as c·I, else None.

    Runs each basis state |s> and asks that it come back as c·|s>, with one
    numerator c for every s and no other nonzero entry. Every s shares one k
    (the number of H gates) and the numerator's four integers are unique, so
    this is exact equality of unitaries up to a global phase; c then has unit
    modulus and is a power of ω. It is rounded once, as an amplitude is.
    """
    _check_width(n)
    phase = _phase_numerator(_kernel_gates(gates), n)
    return None if phase is None else _complex(*phase)


def _phase_numerator(pairs: Sequence[tuple], n: int) -> tuple[Amplitude, int] | None:
    """:func:`identity_phase` on the kernel's (table entry, qubits) pairs:
    c's numerator and k, or None."""
    if all(table is not None for table, _ in pairs):
        return _monomial_phase(pairs, n)
    phase = None
    for s in range(1 << n):
        state, k = _basis_run(pairs, n, s)
        if phase is None:
            phase = state[s]
        column = [_ZERO_AMPLITUDE] * len(state)
        column[s] = phase
        if phase == _ZERO_AMPLITUDE or state != column:
            return None
    return phase, k


def _monomial_phase(pairs: Sequence[tuple], n: int) -> tuple[Amplitude, int] | None:
    """:func:`_phase_numerator` without H: each gate takes a basis state to
    one basis state times a power of ω, so one index and one exponent
    follow each basis state through the gates."""
    phase = None
    for s in range(1 << n):
        i, e = s, 0
        for table, qubits in pairs:
            v = 0
            for q in qubits:
                v = v << 1 | (i >> q) & 1
            w, shift = table[v]
            e += shift
            for q in reversed(qubits):
                i = i & ~(1 << q) | (w & 1) << q
                w >>= 1
        if i != s or phase not in (None, e % 8):
            return None
        phase = e % 8
    return _times_omega((1, 0, 0, 0), phase), 0


#: the widest gate list the trie below decides, in qubits
MAX_SPAN_QUBITS = 3

#: the trie is cleared when it grows past this many nodes
MAX_SPAN_NODES = 2**15

#: the kinds of which a phase on at most 3 qubits holds an even number: c·I
#: on m qubits has determinant c^(2^m), c a power of ω, and an odd number of
#: them gives the product a determinant that is no such power
_ODD_KINDS = frozenset({GateKind.T, GateKind.TDG, GateKind.CCX})

#: the package's one memo of phase verdicts: a trie of gate lists walked
#: back from the top on first-touch labels. Each node is [verdict, children,
#: state]: the verdict is None until asked, then the list's phase or False,
#: and False from the start for a list that cannot be a phase; the state
#: counts the list's gates on each label, 2 bits a label that stop at 2, and
#: above them the parity of its kinds in ``_ODD_KINDS``. The root, the empty
#: list, is never asked.
_SPANS: list = [None, {}, 0]
_span_nodes = 0

#: the state's parity bit, and each kind's step to it
_ODD = 1 << 2 * MAX_SPAN_QUBITS
_PARITY = {kind: _ODD if kind in _ODD_KINDS else 0 for kind in GateKind}
#: per number of labels n, the state's bits that are set when each of the
#: first n counts has reached 2
_CLOSED = [sum(2 << 2 * l for l in range(n)) for n in range(MAX_SPAN_QUBITS + 1)]


def _phase_suffix(gates: Sequence[tuple], top: int, base: int, reach: int,
                  shortest: int = 1) -> tuple[int, complex] | None:
    """The shortest suffix of ``gates[:top]``, (kind, qubits) pairs, of
    ``shortest`` to ``reach`` gates on at most MAX_SPAN_QUBITS qubits that
    acts as a phase c times the identity: where it starts, and c as
    :func:`identity_phase` gives it; or None. Below ``base``, a gate joins
    only on qubits the gates above ``base`` touch, and there are no more
    such gates than those.

    Shorter suffixes are walked, to reach the longer ones, but not asked. A
    phase has at least two gates on each qubit it touches (no unitary gate
    acts on one of its qubits as the identity) and an even number of the
    kinds in ``_ODD_KINDS``; only a suffix that passes both is run. Both
    depend on the suffix's labelled gates alone, so each trie node decides
    them once, when it is made, and runs the exact check at most once.
    """
    global _span_nodes
    label: dict[int, int] = {}
    labelled = label.get
    node = _SPANS
    for i in range(top - 1, max(-1, top - 1 - reach, 2 * base - top - 1), -1):
        kind, qubits = gates[i]
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
                if not state >> 2 * label[q] & 2:
                    state += 1 << 2 * label[q]
            closed = _CLOSED[len(label)]
            shut = not state & _ODD and state & closed == closed
            node = parent[1][key] = [None if shut else False, {}, state]
            _span_nodes += 1
        if top - i < shortest:
            continue
        verdict = node[0]
        if verdict is None:
            pairs = [(_MONOMIAL.get(k), tuple(map(label.__getitem__, qs))) for k, qs in gates[i:top]]
            phase = _phase_numerator(pairs, len(label))
            verdict = node[0] = False if phase is None else _complex(*phase)
        if verdict:
            return i, verdict
    return None


def exact_probabilities(circuit: Circuit) -> dict[str, Dyadic]:
    """Exact Born-rule distribution over the measured classical bits.

    Keys are laid out as in :func:`qobf.sim.measure_distribution` (both use
    ``_kernel._measured_parts``): the lowest measured classical index is the
    rightmost character, keys ascend, and outcomes of probability zero are
    omitted. Each component with a measured qubit runs on its own; a
    component with none never runs. Measurements may appear mid-circuit: no
    gate touches a qubit after it is measured (an IR invariant), so
    deferring them to the end is exact. The last few distributions are
    memoised by gates and width, so a predicate that is checked and then
    resolved in one process is simulated once.
    """
    return dict(_probabilities(circuit.gates, circuit.n_qubits))


@lru_cache(maxsize=16)
def _probabilities(gates: tuple[GateApp, ...], n_qubits: int) -> dict[str, Dyadic]:
    keys = _key_pairs(Circuit(n_qubits, gates=gates))
    unitary = _kernel_gates([g for g in gates if g.kind is not GateKind.MEASURE])
    return _distribution(*_measured_parts(unitary, keys, n_qubits), _run)


def exact_distribution(circuit: Circuit) -> dict[str, float]:
    """:func:`exact_probabilities`, each value rounded once to the nearest float."""
    return {key: float(p) for key, p in exact_probabilities(circuit).items()}


def exact_amplitudes(circuit: Circuit) -> tuple[complex, ...]:
    """Amplitudes of an unmeasured circuit run from |0...0>, each part
    rounded once to the nearest float. Index convention as
    :func:`qobf.sim.simulate`; the whole register is one state, so the cap
    applies to the circuit's width.
    """
    state, k = _run(_kernel_gates(circuit.gates), circuit.n_qubits)
    return tuple(_complex(z, k) for z in state)
