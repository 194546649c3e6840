"""Circuit intermediate representation shared by every transform and oracle.

A Circuit is an immutable ordered list of gate applications over flat qubit
and classical-bit index spaces (registers are flattened on parse). Insertion
windows, substitution groups and composite-box ids are internal metadata
(box ids reach QASM only as ``grp<id>`` comments); a gate's provenance
(original / inserted / substituted) is derived from its window and group, so
its tags cannot contradict each other. They record how a pass derived its
output, so that :func:`qobf.passes.check_translation` can check it window by
window and tests can check that transforms only touch what they claim to
touch.

:func:`validate` checks each distinct gate's qubit operands once, and runs
the checks that depend on earlier gates for every gate.

Conventions:
  * qubit 0 is the least significant bit of a basis-state index;
  * BARRIER is variadic (any number of distinct qubits) and is not a unitary:
    it forces a layer boundary in ``depth`` and is excluded from gate totals.

The meaning of each gate but H is written down once, in the gate table of
:mod:`qobf._kernel`, and so are the component split and the classical-bit key
layout of a measured distribution. ``_MONOMIAL`` is the table by GateKind.
``_kernel_gates`` is the one place where GateApps become the kernel's
(table entry, qubits) pairs, and both simulators, the float one
(:mod:`qobf.sim`) and the exact one (:mod:`qobf.exact`), run those pairs,
split them with ``_kernel._components`` and lay out measured keys with
``_kernel._measured_parts`` over ``_key_pairs``. They differ only in their
arithmetic.
"""

from __future__ import annotations

from collections import Counter, abc
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

from . import _kernel
from . import _METHODS as METHODS, _PREDICATE_KINDS as PREDICATE_KINDS  # noqa: F401 (re-exported)
from .diagnostics import Diagnostic


class SimulationError(Exception):
    """Raised for contract violations: size caps, measurement misuse, mismatched circuits."""


#: widest register the dense simulator runs, and so the widest any command loads
MAX_SIM_QUBITS = 24


#: widest circuit whose full unitary the dense simulator builds or compares
MAX_UNITARY_QUBITS = 10


def _check_cap(n: int) -> None:
    if n > MAX_SIM_QUBITS:
        raise SimulationError(f"{n} qubits exceeds the {MAX_SIM_QUBITS}-qubit simulator cap")


def _check_unitary_cap(n: int) -> None:
    if n > MAX_UNITARY_QUBITS:
        raise SimulationError(f"{n} qubits exceeds the {MAX_UNITARY_QUBITS}-qubit unitary cap")


class GateKind(Enum):
    # members are singletons that compare by identity, so the identity hash
    # agrees with ==; it runs in C, where Enum.__hash__ (hash of the name) is
    # a Python call on every lookup in the tables keyed by kind
    __hash__ = object.__hash__

    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    SWAP = "swap"
    CX = "cx"
    CZ = "cz"
    CY = "cy"
    CCX = "ccx"
    MEASURE = "measure"
    BARRIER = "barrier"


#: qubit arity per kind; BARRIER is variadic (None).
ARITY: dict[GateKind, int | None] = {
    GateKind.H: 1,
    GateKind.X: 1,
    GateKind.Y: 1,
    GateKind.Z: 1,
    GateKind.S: 1,
    GateKind.SDG: 1,
    GateKind.T: 1,
    GateKind.TDG: 1,
    GateKind.SWAP: 2,
    GateKind.CX: 2,
    GateKind.CZ: 2,
    GateKind.CY: 2,
    GateKind.CCX: 3,
    GateKind.MEASURE: 1,
    GateKind.BARRIER: None,
}

UNITARY_KINDS = frozenset(
    k for k in GateKind if k not in (GateKind.MEASURE, GateKind.BARRIER)
)

#: the kernel's gate table (``_kernel._GATES``) keyed by kind, H left out:
#: each kind's (w, e) per basis state v of its operands. ``.get`` gives None,
#: which the kernel reads as H, for MEASURE and BARRIER too, so only
#: ``_kernel_gates``, which drops or refuses those two, builds pairs from kinds
_MONOMIAL: dict[GateKind, tuple[tuple[int, int], ...]] = {
    GateKind(name): table for name, table in _kernel._GATES.items() if table is not None
}

#: the inverse of each kind that is not its own inverse
_INVERSE: dict[GateKind, GateKind] = {
    GateKind.S: GateKind.SDG,
    GateKind.SDG: GateKind.S,
    GateKind.T: GateKind.TDG,
    GateKind.TDG: GateKind.T,
}

#: each kind's code, below 16, for keys that pack gates into one int
_KIND_CODE: dict[GateKind, int] = {kind: code for code, kind in enumerate(GateKind)}

class GateApp(NamedTuple):
    """One gate application.

    ``cbit`` is set only for MEASURE. ``box`` groups gates into a composite
    box (emitted as ``grp<id>`` comment markers); ``group`` ties substituted
    gates back to the original gate they replaced (see
    Circuit.subst_originals); ``window`` ties inserted gates to the insertion
    they belong to: an inverse pair, an auxiliary/restore box pair, or both
    copies of a delayed wrapper.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    cbit: int | None = None
    box: int | None = None
    group: int | None = None
    window: int | None = None

    @property
    def origin(self) -> str:
        """Provenance, derived from the tags: "inserted" when ``window`` is
        set, "substituted" when ``group`` is set, else "original"."""
        if self.window is not None:
            return "inserted"
        return "original" if self.group is None else "substituted"

    @property
    def signature(self) -> tuple:
        """Structural identity: kind, operands, classical target."""
        return (self.kind, self.qubits, self.cbit)


class _NoEntries(abc.Mapping):
    """The default of ``Circuit.subst_originals``: an empty mapping that
    cannot be written to, so one instance serves every Circuit, and that
    pickles, which a ``types.MappingProxyType`` does not."""

    __slots__ = ()

    def __getitem__(self, key):
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"


_NO_ENTRIES = _NoEntries()


class Circuit(NamedTuple):
    n_qubits: int
    n_cbits: int = 0
    gates: tuple[GateApp, ...] = ()
    #: substitution-group id -> the original gate the group replaced
    subst_originals: Mapping[int, GateApp] = _NO_ENTRIES

    def with_gates(self, gates: Iterable[GateApp], **updates) -> "Circuit":
        return self._replace(gates=tuple(gates), **updates)


class GateSequence(NamedTuple):
    """A named gate sequence over relative qubit slots.

    Used for insertion pairs, composite blocks, substitution replacements and
    delayed wrappers. ``gates`` entries are (kind, slot tuple); slot indices
    are remapped onto concrete qubits when the sequence is applied.
    """

    name: str
    gates: tuple[tuple[GateKind, tuple[int, ...]], ...]

    @property
    def n_slots(self) -> int:
        return 1 + max(s for _, slots in self.gates for s in slots)


class GateCounts(NamedTuple):
    counts: Mapping[GateKind, int]
    total: int

    def of(self, kind: GateKind) -> int:
        return self.counts.get(kind, 0)


def _operands_ok(g: GateApp, n_qubits: int) -> bool:
    """Whether ``g`` passes :func:`validate`'s checks on its qubit operands:
    arity, distinctness and range."""
    arity = ARITY[g.kind]
    return (
        (len(g.qubits) == arity if arity is not None else bool(g.qubits))
        and len(set(g.qubits)) == len(g.qubits)
        and all(0 <= q < n_qubits for q in g.qubits)
    )


def validate(circuit: Circuit) -> list[Diagnostic]:
    """Check all structural invariants; returns [] iff the circuit is well formed.

    Violations are reported, not raised, so malformed circuits can be
    inspected. Checks: index ranges, operand arity and distinctness, MEASURE
    classical targets (present, in range, written once), and that no gate
    touches a qubit after that qubit has been measured.

    The checks on qubit operands (arity, distinctness, range) run once per
    distinct (kind, qubits); a gate that passes them has only the cheap
    classical-target checks and the checks that depend on earlier
    gates left to run. A gate that fails them runs every check, so the
    diagnostics and their order are those of checking every gate in full.
    """
    diags: list[Diagnostic] = []

    def err(msg: str) -> None:
        diags.append(Diagnostic("error", msg))

    def gate_err(pos: int, g: GateApp, msg: str) -> None:
        err(f"gate {pos} ({g.kind.value}): {msg}")

    if circuit.n_qubits < 1:
        err(f"circuit must declare at least one qubit (got {circuit.n_qubits})")
    if circuit.n_cbits < 0:
        err(f"negative classical register size {circuit.n_cbits}")

    operands_ok: dict[tuple, bool] = {}
    measured: set[int] = set()
    written_cbits: set[int] = set()
    for pos, g in enumerate(circuit.gates):
        ok = operands_ok.get((g.kind, g.qubits))
        if ok is None:
            ok = operands_ok[g.kind, g.qubits] = _operands_ok(g, circuit.n_qubits)
        if not ok:
            arity = ARITY[g.kind]
            if arity is not None and len(g.qubits) != arity:
                gate_err(pos, g, f"expected {arity} qubit operand(s), got {len(g.qubits)}")
            if g.kind is GateKind.BARRIER and not g.qubits:
                gate_err(pos, g, "barrier needs at least one qubit")
            if len(set(g.qubits)) != len(g.qubits):
                gate_err(pos, g, "duplicate qubit operand")
        if not ok or measured:
            for q in g.qubits:
                if not ok and not 0 <= q < circuit.n_qubits:
                    gate_err(pos, g, f"qubit index {q} out of range [0, {circuit.n_qubits})")
                elif q in measured and g.kind is not GateKind.BARRIER:
                    gate_err(pos, g, f"gate after measurement of qubit {q}")
        if g.kind is GateKind.MEASURE:
            if g.cbit is None:
                gate_err(pos, g, "measurement without classical target")
            elif not 0 <= g.cbit < circuit.n_cbits:
                gate_err(pos, g, f"classical index {g.cbit} out of range [0, {circuit.n_cbits})")
            elif g.cbit in written_cbits:
                gate_err(pos, g, f"classical bit {g.cbit} measured twice")
            else:
                written_cbits.add(g.cbit)
            measured.update(q for q in g.qubits if 0 <= q < circuit.n_qubits)
        elif g.cbit is not None:
            gate_err(pos, g, "classical target on a non-measurement gate")
    return diags


def depth(circuit: Circuit) -> int:
    """Greedy layer-packed circuit depth.

    Gates touching disjoint qubits share a layer; MEASURE costs one layer on
    its qubit; BARRIER synchronizes its qubits' timelines without occupying a
    layer itself.
    """
    clocks = [0] * circuit.n_qubits
    for g in circuit.gates:
        if g.kind is GateKind.BARRIER:
            sync = max(clocks[q] for q in g.qubits)
            for q in g.qubits:
                clocks[q] = sync
        else:
            layer = 1 + max(clocks[q] for q in g.qubits)
            for q in g.qubits:
                clocks[q] = layer
    return max(clocks, default=0)


def gate_count(circuit: Circuit) -> GateCounts:
    """Histogram of gate kinds. BARRIER appears in the map but not the total."""
    counts = Counter(g.kind for g in circuit.gates)
    total = sum(n for k, n in counts.items() if k is not GateKind.BARRIER)
    return GateCounts(counts=dict(counts), total=total)


def flatten(circuit: Circuit) -> Circuit:
    """Drop all composite-box grouping; gate order and identity are unchanged."""
    if all(g.box is None for g in circuit.gates):
        return circuit
    return circuit.with_gates(g._replace(box=None) for g in circuit.gates)


def same_gates(a: Circuit, b: Circuit) -> bool:
    """Gate-for-gate structural equality, ignoring provenance and boxes."""
    return (
        a.n_qubits == b.n_qubits
        and a.n_cbits == b.n_cbits
        and len(a.gates) == len(b.gates)
        and all(x.signature == y.signature for x, y in zip(a.gates, b.gates))
    )


def measured_pairs(circuit: Circuit) -> list[tuple[int, int]]:
    """(qubit, classical bit) measurement pairs in circuit order."""
    return [
        (g.qubits[0], g.cbit)
        for g in circuit.gates
        if g.kind is GateKind.MEASURE and g.cbit is not None
    ]


def _kernel_gates(gates: Iterable[GateApp]) -> list[tuple[tuple | None, tuple[int, ...]]]:
    """The gates as both simulators run them: the kernel's (gate table
    entry, qubits) pairs, H's entry None. Barriers are dropped (they are
    no-ops); a measurement is refused."""
    pairs = []
    for g in gates:
        if g.kind is GateKind.MEASURE:
            raise SimulationError(
                "circuit contains measurements; use measure_distribution or exact_distribution"
            )
        if g.kind is not GateKind.BARRIER:
            pairs.append((_MONOMIAL.get(g.kind), g.qubits))
    return pairs


def _key_pairs(circuit: Circuit) -> list[tuple[int, int]]:
    """The (qubit, classical bit) pairs that lay out the keys of a measured
    distribution. Raises SimulationError when nothing is measured, or a
    qubit or a classical bit is measured more than once."""
    pairs = measured_pairs(circuit)
    if not pairs:
        raise SimulationError("circuit has no measurements")
    for what, seen in zip(("qubit", "classical bit"), zip(*pairs)):
        twice = [x for x, times in Counter(seen).items() if times > 1]
        if twice:
            raise SimulationError(f"{what} {twice[0]} is measured more than once")
    return pairs
