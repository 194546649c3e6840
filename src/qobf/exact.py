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
resolution use it. It also decides the circuit passes' small equivalences:
:func:`identity_phase` tells whether a substitution rule, a delayed wrapper
with its block, or any window ``obfuscate`` checks
(:func:`qobf.passes.check_translation`) acts as the identity up to a global
phase, by exact equality, with no tolerance.

:func:`equivalent`, the oracle of ``verify`` and the reports, lives here
too. It reduces the miter of two whole circuits exactly
(:func:`reduced_miter`); a miter reduced to no gate is equal, decided
without numpy. Only a miter that keeps a gate, or distribution mode, loads
the dense float simulator in :mod:`qobf.sim`, whose whole-circuit states are
too large for the ring.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import Sequence

from ._kernel import _ZERO_AMPLITUDE, _Dyadic, _basis_run, _complex, _distribution, _measured_parts
from .ir import (
    _INVERSE,
    Circuit,
    GateApp,
    GateKind,
    SimulationError,
    _check_cap,
    _check_unitary_cap,
    _kernel_gates,
    _key_pairs,
    measured_pairs,
)

#: widest component simulated; the widest predicate (branch) has five qubits,
#: so it stays in range even if a pass joins its two segments
MAX_EXACT_QUBITS = 5

#: the longest one-qubit run :func:`reduced_miter` multiplies out: in a miter,
#: a delayed block b and wrapper w meet b, w⁻¹, b⁻¹, w⁻¹ (1 + 7 + 1 + 7 gates)
MAX_RUN = 16

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


def _run(pairs: Sequence[tuple], n: int, start: int = 0) -> tuple[list[Amplitude], int]:
    """Numerators of the state the kernel's (table entry, qubits) pairs make
    from basis state |start>, and their shared k."""
    _check_width(n)
    return _basis_run(pairs, n, start)


def identity_phase(gates: Sequence[GateApp], n: int) -> complex | None:
    """c if the unmeasured gates act on n qubits as c·I, else None.

    Runs each basis state |s> and asks that it come back as c·|s>, with one
    numerator c for every s and no other nonzero entry. Every s shares one k
    (the number of H gates) and the numerator's four integers are unique, so
    this is exact equality of unitaries up to a global phase; c then has unit
    modulus and is a power of ω. It is rounded once, as an amplitude is.
    """
    _check_width(n)
    pairs = _kernel_gates(gates)
    phase = None
    for s in range(1 << n):
        state, k = _basis_run(pairs, n, s)
        if phase is None:
            phase = state[s]
        column = [_ZERO_AMPLITUDE] * len(state)
        column[s] = phase
        if phase == _ZERO_AMPLITUDE or state != column:
            return None
    return _complex(phase, k)


def reduced_miter(first: Sequence[GateApp], second: Sequence[GateApp]) -> list[GateApp]:
    """The miter of two gate lists, less what exact rewrites cancel: gates
    that act as a phase times the identity exactly when ``first`` and
    ``second`` act alike up to a global phase.

    The miter, ``first`` then ``second`` reversed and inverted (barriers
    dropped, a measurement refused), is built from the middle, as in
    Burgholzer & Wille (IEEE TCAD 2021). With a stack of kept gates per
    qubit, one pass cancels a gate against the last kept gate on its qubits
    when that gate is the last on every one of them and is its inverse on
    the same operand tuple, and drops a run (kept one-qubit gates on one
    qubit, no kept gate on more qubits between them) of 3 to MAX_RUN gates
    when :func:`identity_phase` finds its product a phase, memoised by
    kinds. Two one-qubit kinds make a phase only as an inverse pair.
    """
    miter = [(g.kind, g.qubits) for g in first if g.kind is not GateKind.BARRIER]
    miter += [(_INVERSE.get(g.kind, g.kind), g.qubits)
              for g in reversed(second) if g.kind is not GateKind.BARRIER]
    kept: list[tuple[GateKind, tuple[int, ...]] | None] = []
    # per qubit, each kept gate's index in kept and the kinds of the one-qubit
    # run it ends: () for a gate on more qubits, None past MAX_RUN
    stacks: dict[int, list[tuple[int, tuple[GateKind, ...] | None]]] = defaultdict(list)
    for gate in miter:
        kind, qubits = gate
        if kind is GateKind.MEASURE:
            raise SimulationError("circuit contains measurements; strip them first")
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
    return [GateApp(*gate) for gate in kept if gate is not None]


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
    without the dense simulator or numpy; any other miter, and distribution
    mode, run on :mod:`qobf.sim`.
    """
    n = c1.n_qubits
    if n != c2.n_qubits:
        raise SimulationError(f"qubit-count mismatch: {n} vs {c2.n_qubits}")
    mode = _deciding_mode(c1, c2, mode)
    if mode not in ("statevector", "unitary", "distribution"):
        raise SimulationError(f"unknown equivalence mode {mode!r}")
    (_check_unitary_cap if mode == "unitary" else _check_cap)(n)
    if mode == "distribution":
        from .sim import _distribution_check

        return _distribution_check(c1, c2)
    miter = reduced_miter(*([g for g in c.gates if g.kind is not GateKind.MEASURE] for c in (c1, c2)))
    if not miter:
        return True, 1.0
    from . import sim

    return sim._miter_check(miter, n, sim._stimulus if mode == "statevector" else sim._identity)


@lru_cache(maxsize=2**14)
def _is_phase(run: tuple[GateKind, ...]) -> bool:
    return identity_phase([GateApp(kind, (0,)) for kind in run], 1) is not None


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
