"""Quantum opaque-predicate generators.

Each generator returns a PredicateCircuit: the circuit itself plus an
analytic outcome model that declares the branch rows a wrapped program emits
(id, role live/dead/restart, and the key or amplitude index selecting each)
and, for shroud, the amplitudes that must be present. The model is
oracle-checked at construction time, so a PredicateCircuit in hand is
already proven to behave as advertised. ``KINDS`` gives each kind its
generator, its parameter and default, and the decoy mode ``wrap`` requires.

Models are computed by the exact Clifford+T simulator (:mod:`qobf.exact`),
which splits each predicate into the connected components of its
qubit-interaction graph and keeps every probability in Z[√2]/2^k. A dead row
is checked against exact zero and the other rows together against exact one;
each reported value is rounded to a float once, so multi_pair's all-ones key is
exactly 2**-n, bell's live keys are exactly 0.5, and branch's (c2, c3) key
"11" carries probability exactly 1. The module never imports numpy.

Four kinds:
  * bell       - one entangled pair; keys 00/11 live with probability 1/2
                 each, 01/10 dead (probability exactly zero)
  * multi_pair - n independent entangled pairs; the all-ones key has
                 probability exactly 2**-n and backs a restart/false branch
  * shroud     - one qubit in equal superposition, never measured; branches
                 guard on the amplitudes directly, so both are always live
  * branch     - a five-qubit circuit in two disconnected segments whose
                 interference forces the (c2, c3) key to "11" deterministically
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, TypeVar

from .exact import ONE, ZERO, Dyadic, exact_amplitudes, exact_probabilities
from .ir import (  # noqa: F401 (PREDICATE_KINDS re-exported)
    PREDICATE_KINDS,
    Circuit,
    GateApp,
    GateKind,
    measured_pairs,
)

#: key used in outcome->branch maps for "every other outcome"
ELSE_KEY = "else"


class PredicateError(ValueError):
    """Bad generator parameters."""


class ModelMismatchError(AssertionError):
    """The oracle-computed behavior disagrees with the analytic model: a construction bug."""


class BranchSpec(NamedTuple):
    """One branch of a wrapped program."""

    id: str
    role: str  # live | dead | restart
    outcome: str  # key bitstring, ELSE_KEY, or amplitude index for shroud


class BranchSemantics(NamedTuple):
    """Analytic outcome model of a predicate: its branch rows, in emission order.

    For ``kind == "measured"``, each row's outcome is a bitstring over
    ``key_cbits`` (lowest classical index rightmost) or ``ELSE_KEY``, "every
    key no other row names". Dead rows have probability exactly zero, and
    the live and restart rows together carry probability exactly one (a
    restart row may carry some: multi_pair's all-ones branch). For
    ``kind == "amplitude_read"`` each row's outcome is an amplitude index,
    every row is live, and the model records the expected statevector
    amplitudes, each part the nearest float to its exact value.
    """

    kind: str  # "measured" | "amplitude_read"
    branches: tuple[BranchSpec, ...]
    key_cbits: tuple[int, ...] = ()
    amplitudes: tuple[complex, ...] | None = None


class PredicateCircuit(NamedTuple):
    circuit: Circuit
    kind: str
    semantics: BranchSemantics
    params: Mapping[str, int]


P = TypeVar("P")


def key_marginal(dist: Mapping[str, P], key_cbits: tuple[int, ...],
                 measured_cbits: tuple[int, ...]) -> dict[str, P]:
    """Marginalize a measured distribution onto a subset of classical bits.

    Key strings follow the same convention as distributions: the lowest
    classical index in ``key_cbits`` is the rightmost character. Values may
    be floats or exact :class:`qobf.exact.Dyadic` probabilities.
    """
    order = sorted(measured_cbits, reverse=True)
    positions = {c: i for i, c in enumerate(order)}
    wanted = sorted(key_cbits, reverse=True)
    if wanted == order:  # the key is the whole outcome (bell, multi_pair)
        return dict(dist)
    out: dict[str, P] = {}
    for outcome, p in dist.items():
        key = "".join(outcome[positions[c]] for c in wanted)
        out[key] = out[key] + p if key in out else p
    return out


def _branch_probabilities(circuit: Circuit, key_cbits: tuple[int, ...],
                          branches: tuple[BranchSpec, ...]) -> dict[str, Dyadic]:
    """Exact probability of each measured branch row, by id: the keyed
    marginal of its key, or for the ELSE_KEY row one minus the other rows.
    Rows with an explicit key come first, as the emitted guards test them."""
    measured_cbits = tuple(c for _, c in measured_pairs(circuit))
    keyed = key_marginal(exact_probabilities(circuit), key_cbits, measured_cbits)
    out = {b.id: keyed.get(b.outcome, ZERO) for b in branches if b.outcome != ELSE_KEY}
    rest = ONE - sum(out.values(), ZERO)
    out.update((b.id, rest) for b in branches if b.outcome == ELSE_KEY)
    return out


def _check_measured_model(p: PredicateCircuit) -> dict[str, float]:
    exact = exact_probabilities(p.circuit)
    if sum(exact.values(), ZERO) != ONE:
        raise ModelMismatchError("outcome probabilities do not sum to 1")
    sem = p.semantics
    probs = _branch_probabilities(p.circuit, sem.key_cbits, sem.branches)
    for b in sem.branches:
        if b.role == "dead" and probs[b.id] != ZERO:
            raise ModelMismatchError(f"dead key {b.outcome!r} has probability {float(probs[b.id])}")
    if sum((probs[b.id] for b in sem.branches if b.role != "dead"), ZERO) != ONE:
        raise ModelMismatchError("live keys do not carry all probability")
    return {key: float(prob) for key, prob in exact.items()}


def _check_amplitude_model(p: PredicateCircuit) -> tuple[complex, ...]:
    state = exact_amplitudes(p.circuit)
    if state != p.semantics.amplitudes:
        raise ModelMismatchError("amplitudes disagree with the analytic model")
    return state


def outcome_model(p: PredicateCircuit) -> dict[str, float] | tuple[complex, ...]:
    """Recompute the predicate's behavior with the exact simulator and check
    it against the stored semantics: dead keys must have probability exactly
    zero, the keys must carry probability exactly one, and amplitudes must
    round to the stored ones. Any disagreement raises ModelMismatchError.
    Returns the distribution (measured kinds) or the statevector amplitudes
    (shroud), each value the nearest float to the exact one.
    """
    if p.semantics.kind == "measured":
        return _check_measured_model(p)
    return _check_amplitude_model(p)


def bell_predicate() -> PredicateCircuit:
    """Entangle one pair and measure it: outcomes 00 and 11 only, equal odds."""
    circuit = Circuit(
        n_qubits=2,
        n_cbits=2,
        gates=(
            GateApp(GateKind.H, (0,)),
            GateApp(GateKind.CX, (0, 1)),
            GateApp(GateKind.MEASURE, (0,), cbit=0),
            GateApp(GateKind.MEASURE, (1,), cbit=1),
        ),
    )
    sem = BranchSemantics(
        kind="measured",
        branches=tuple(
            BranchSpec(f"bell-{key}", "live" if key in ("00", "11") else "dead", key)
            for key in ("00", "01", "10", "11")
        ),
        key_cbits=(0, 1),
    )
    p = PredicateCircuit(circuit, "bell", sem, {})
    outcome_model(p)
    return p


def multi_pair_predicate(n_pairs: int) -> PredicateCircuit:
    """n independent entangled pairs, all qubits measured.

    P(all bits 1) = 2**-n exactly; that key backs the false/restart branch
    while every other observable key is live. Keys with a broken pair (01 or
    10 within a pair) are dead with probability exactly zero.
    """
    if not 1 <= n_pairs <= 12:
        raise PredicateError(f"n_pairs must be in 1..12, got {n_pairs}")
    gates: list[GateApp] = []
    for i in range(n_pairs):
        gates.append(GateApp(GateKind.H, (2 * i,)))
        gates.append(GateApp(GateKind.CX, (2 * i, 2 * i + 1)))
    for q in range(2 * n_pairs):
        gates.append(GateApp(GateKind.MEASURE, (q,), cbit=q))
    circuit = Circuit(n_qubits=2 * n_pairs, n_cbits=2 * n_pairs, gates=tuple(gates))
    sem = BranchSemantics(
        kind="measured",
        branches=(
            BranchSpec("pairs-allones", "restart", "1" * (2 * n_pairs)),
            BranchSpec("pairs-live", "live", ELSE_KEY),  # anything not all ones
        ),
        key_cbits=tuple(range(2 * n_pairs)),
    )
    p = PredicateCircuit(circuit, "multi_pair", sem, {"n_pairs": n_pairs})
    dist = outcome_model(p)
    assert isinstance(dist, dict)
    if dist.get("1" * (2 * n_pairs)) != 2.0**-n_pairs:
        raise ModelMismatchError("all-ones probability is not exactly 2**-n")
    return p


def shroud_predicate() -> PredicateCircuit:
    """One qubit in equal superposition, never measured.

    Consumers read the statevector amplitudes instead of measuring, so code
    guarded on the presence of the |0> component and code guarded on the |1>
    component both run.
    """
    amp = math.sqrt(0.5)  # correctly rounded, so the nearest float to 1/√2
    circuit = Circuit(n_qubits=1, gates=(GateApp(GateKind.H, (0,)),))
    sem = BranchSemantics(
        kind="amplitude_read",
        branches=(BranchSpec("shroud-0", "live", "0"), BranchSpec("shroud-1", "live", "1")),
        amplitudes=(complex(amp), complex(amp)),
    )
    p = PredicateCircuit(circuit, "shroud", sem, {})
    outcome_model(p)
    return p


_DECOY_1Q = (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z,
             GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG)
_DECOY_2Q = (GateKind.SWAP, GateKind.CX, GateKind.CZ, GateKind.CY)


def branch_predicate(seed: int = 0) -> PredicateCircuit:
    """Five-qubit deterministic-branch predicate in two disconnected segments.

    The core segment on q2, q3, q4 sandwiches Z(q4) and two CNOTs onto the
    ancilla q4 between Hadamard walls; interference cancels every outcome
    except q2 = q3 = 1, so the (c2, c3) key is "11" with probability one. The
    decoy segment on q0, q1 is 4-8 seeded random gates, measured but ignored
    (never touching q2, q3 or q4). The ancilla q4 stays unmeasured. A
    negative seed raises PredicateError: ``random.Random`` takes the absolute
    value, so -s would silently write seed s's circuit.
    """
    if seed < 0:
        raise PredicateError(f"seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    gates: list[GateApp] = []
    for _ in range(rng.randint(4, 8)):
        if rng.random() < 0.5:
            gates.append(GateApp(rng.choice(_DECOY_1Q), (rng.randrange(2),)))
        else:
            a, b = rng.sample((0, 1), 2)
            gates.append(GateApp(rng.choice(_DECOY_2Q), (a, b)))
    gates += [
        GateApp(GateKind.H, (2,)),
        GateApp(GateKind.H, (3,)),
        GateApp(GateKind.H, (4,)),
        GateApp(GateKind.Z, (4,)),
        GateApp(GateKind.CX, (2, 4)),
        GateApp(GateKind.CX, (3, 4)),
        GateApp(GateKind.H, (2,)),
        GateApp(GateKind.H, (3,)),
        GateApp(GateKind.H, (4,)),
    ]
    for q in range(4):
        gates.append(GateApp(GateKind.MEASURE, (q,), cbit=q))
    circuit = Circuit(n_qubits=5, n_cbits=4, gates=tuple(gates))
    sem = BranchSemantics(
        kind="measured",
        branches=tuple(
            BranchSpec(f"superpos-{key}", "live" if key == "11" else "dead", key)
            for key in ("00", "01", "10", "11")
        ),
        key_cbits=(2, 3),
    )
    p = PredicateCircuit(circuit, "branch", sem, {"seed": seed})
    outcome_model(p)
    return p


class _Kind(NamedTuple):
    generator: Callable[..., PredicateCircuit]
    parameter: str  # the generator's one parameter, "" if it takes none
    default: int
    mode: str  # the decoy-policy mode wrap requires


#: every predicate kind, in ``ir.PREDICATE_KINDS`` order
KINDS: dict[str, _Kind] = {
    "bell": _Kind(bell_predicate, "", 0, "duplicate_payload"),
    "multi_pair": _Kind(multi_pair_predicate, "n_pairs", 8, "restart"),
    "shroud": _Kind(shroud_predicate, "", 0, "dead_decoy"),
    "branch": _Kind(branch_predicate, "seed", 0, "dead_decoy"),
}

#: the decoy-policy mode each predicate kind supports
REQUIRED_MODE = {kind: spec.mode for kind, spec in KINDS.items()}


def make_predicate(kind: str, params: Mapping[str, int] | None = None) -> PredicateCircuit:
    """Build a predicate by kind name (used by the wrapper and the CLI).

    An omitted parameter takes the kind's default; a name the kind does not
    take raises PredicateError. Each kind and parameter is built, and its
    model checked, once per process; a later call returns the same frozen
    predicate.
    """
    if kind not in KINDS:
        raise PredicateError(f"unknown predicate kind {kind!r}")
    _, name, default, _ = KINDS[kind]
    params = dict(params or {})
    for key in params:
        if key != name:
            raise PredicateError(f"predicate kind {kind!r} takes no parameter {key!r}")
    return _built(kind, int(params.get(name, default)))


@lru_cache(maxsize=32)
def _built(kind: str, param: int) -> PredicateCircuit:
    spec = KINDS[kind]
    return spec.generator(param) if spec.parameter else spec.generator()
