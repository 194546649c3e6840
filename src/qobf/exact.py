"""Exact simulation of small Clifford+T circuits, without numpy.

Every gate in the alphabet is Clifford+T, so every amplitude of a circuit
started in a basis state lies in the ring Z[1/√2, i]: it is
(a + bω + cω² + dω³)/√2^k with ω = e^{iπ/4} and integers a, b, c, d
(Giles & Selinger, "Exact synthesis of multiqubit Clifford+T circuits",
arXiv:1212.0506). A state shares one k among its amplitudes: H adds and
subtracts pairs of entries and raises k by one, and every other gate permutes
basis states and multiplies entries by a power of ω, which rotates the four
integers. A probability is then (p + q√2)/2^k (a :class:`Dyadic`), so a dead
outcome is exactly zero and a total is exactly one. The per-gate permutation
and powers of ω are the table ``ir._MONOMIAL``, and the classical-bit key
layout is ``ir._measured_components``: the float simulator reads both too.

Each connected component of the qubit-interaction graph runs on its own
state, and a component wider than MAX_EXACT_QUBITS raises SimulationError.
Values leave the ring once, at the end, each rounded to the nearest float.

This is the predicate side's simulator: opaque-predicate models, branch
resolution and wrapped programs use it. It also decides the circuit passes'
small equivalences: :func:`identity_phase` tells whether a substitution rule,
a delayed wrapper with its block, or any window ``obfuscate`` checks
(:func:`qobf.passes.check_translation`) acts as the identity up to a global
phase, by exact equality, with no tolerance. The dense float simulator in
:mod:`qobf.sim` serves ``verify``, the reports and the tests' cross-check,
whose whole-circuit states are too large for the ring.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .ir import Circuit, GateApp, GateKind, SimulationError, _MONOMIAL, _measured_components

#: widest component simulated; the widest predicate (branch) has five qubits,
#: so it stays in range even if a pass joins its two segments
MAX_EXACT_QUBITS = 5

#: an amplitude's numerator a + bω + cω² + dω³, as (a, b, c, d)
Amplitude = tuple[int, int, int, int]
_ZERO_AMPLITUDE: Amplitude = (0, 0, 0, 0)


class Dyadic:
    """The real number (p + q√2) / 2**k, with integers p, q and k >= 0.

    Stored with the smallest such k, so equal numbers have equal fields.
    """

    __slots__ = ("p", "q", "k")

    def __init__(self, p: int, q: int = 0, k: int = 0) -> None:
        while k and not (p | q) & 1:
            p, q, k = p >> 1, q >> 1, k - 1
        self.p, self.q, self.k = p, q, k

    def _aligned(self, other: Dyadic) -> tuple[int, int, int, int, int]:
        k = max(self.k, other.k)
        s, o = k - self.k, k - other.k
        return self.p << s, self.q << s, other.p << o, other.q << o, k

    def __add__(self, other: Dyadic) -> Dyadic:
        p1, q1, p2, q2, k = self._aligned(other)
        return Dyadic(p1 + p2, q1 + q2, k)

    def __sub__(self, other: Dyadic) -> Dyadic:
        p1, q1, p2, q2, k = self._aligned(other)
        return Dyadic(p1 - p2, q1 - q2, k)

    def __mul__(self, other: Dyadic) -> Dyadic:
        return Dyadic(self.p * other.p + 2 * self.q * other.q,
                      self.p * other.q + self.q * other.p, self.k + other.k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return (self.p, self.q, self.k) == (other.p, other.q, other.k)

    def __float__(self) -> float:
        """The nearest float (ties cannot occur when q != 0: the value is irrational)."""
        p, q, k = self.p, self.q, self.k
        if not q:
            # int / int rounds correctly, as float(Fraction(p, 2**k)) does
            return p / (1 << k)
        # bracket q√2·2^m between the integers r and r + 1 (never equal to
        # either, as √2 is irrational) and refine until both ends of the
        # bracket round to the same float
        m = 64
        while True:
            r = math.isqrt(2 * q * q << 2 * m)
            lo = (p << m) + r if q > 0 else (p << m) - r - 1
            scale = 1 << (k + m)
            lo_float, hi_float = lo / scale, (lo + 1) / scale
            if lo_float == hi_float:
                return lo_float
            m *= 2

    def __repr__(self) -> str:
        return f"Dyadic({self.p}, {self.q}, {self.k})"


ZERO = Dyadic(0)
ONE = Dyadic(1)


def _times_omega(z: Amplitude, e: int) -> Amplitude:
    """z·ω^e; ω·(a + bω + cω² + dω³) = -d + aω + bω² + cω³ since ω⁴ = -1."""
    a, b, c, d = z
    for _ in range(e & 3):
        a, b, c, d = -d, a, b, c
    return (-a, -b, -c, -d) if e & 4 else (a, b, c, d)


def _run(gates: Sequence[GateApp], n: int, start: int = 0) -> tuple[list[Amplitude], int]:
    """Numerators of the state the gates make from basis state |start>, and
    their shared k."""
    if n > MAX_EXACT_QUBITS:
        raise SimulationError(
            f"{n}-qubit component exceeds the {MAX_EXACT_QUBITS}-qubit exact simulator cap"
        )
    state = [_ZERO_AMPLITUDE] * (1 << n)
    state[start] = (1, 0, 0, 0)
    k = 0
    for g in gates:
        if g.kind is GateKind.BARRIER:
            continue
        if g.kind is GateKind.MEASURE:
            raise SimulationError("circuit contains measurements; use exact_distribution")
        if g.kind is GateKind.H:
            bit = 1 << g.qubits[0]
            for i in range(len(state)):
                if not i & bit:
                    u, v = state[i], state[i | bit]
                    state[i] = (u[0] + v[0], u[1] + v[1], u[2] + v[2], u[3] + v[3])
                    state[i | bit] = (u[0] - v[0], u[1] - v[1], u[2] - v[2], u[3] - v[3])
            k += 1
            continue
        table = _MONOMIAL[g.kind]
        width = len(g.qubits)
        moved = [_ZERO_AMPLITUDE] * len(state)
        for i, z in enumerate(state):
            v = 0
            for q in g.qubits:
                v = v << 1 | (i >> q) & 1
            w, e = table[v]
            j = i
            for pos, q in enumerate(g.qubits):
                j = j & ~(1 << q) | ((w >> (width - 1 - pos)) & 1) << q
            moved[j] = _times_omega(z, e)
        state = moved
    return state, k


def _probability(z: Amplitude, k: int) -> Dyadic:
    """|z|²/2^k: |a + bω + cω² + dω³|² = a² + b² + c² + d² + √2(ab - ad + bc + cd)."""
    a, b, c, d = z
    return Dyadic(a * a + b * b + c * c + d * d, a * b - a * d + b * c + c * d, k)


def _real_part(x: int, y: int, k: int) -> Dyadic:
    """(x + y/√2) / √2^k as a Dyadic."""
    j, odd = divmod(k, 2)
    return Dyadic(y, x, j + 1) if odd else Dyadic(2 * x, y, j + 1)


def _complex(z: Amplitude, k: int) -> complex:
    """z/√2^k, each part rounded once to the nearest float."""
    # a + bω + cω² + dω³ = (a + (b - d)/√2) + i(c + (b + d)/√2)
    a, b, c, d = z
    return complex(float(_real_part(a, b - d, k)), float(_real_part(c, b + d, k)))


def identity_phase(gates: Sequence[GateApp], n: int) -> complex | None:
    """c if the unmeasured gates act on n qubits as c·I, else None.

    Runs each basis state |s> and asks that it come back as c·|s>, with one
    numerator c for every s and no other nonzero entry. Every s shares one k
    (the number of H gates) and the numerator's four integers are unique, so
    this is exact equality of unitaries up to a global phase; c then has unit
    modulus and is a power of ω. It is rounded once, as an amplitude is.
    """
    phase = None
    for s in range(1 << n):
        state, k = _run(gates, n, s)
        if phase is None:
            phase = state[s]
        column = [_ZERO_AMPLITUDE] * len(state)
        column[s] = phase
        if phase == _ZERO_AMPLITUDE or state != column:
            return None
    return _complex(phase, k)


def exact_probabilities(circuit: Circuit) -> dict[str, Dyadic]:
    """Exact Born-rule distribution over the measured classical bits.

    Keys are laid out as in :func:`qobf.sim.measure_distribution` (both use
    ``ir._measured_components``): the lowest measured classical index is the
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
    width, parts = _measured_components(Circuit(n_qubits, gates=gates))
    dist = {0: ONE}
    for qubits, component, measured in parts:
        state, k = _run(component, len(qubits))
        marginal: dict[int, Dyadic] = {}
        for index, z in enumerate(state):
            if z != _ZERO_AMPLITUDE:
                key = sum(((index >> i) & 1) << at for i, at in measured)
                p = _probability(z, k)
                marginal[key] = marginal[key] + p if key in marginal else p
        dist = {a | b: pa * pb for a, pa in dist.items() for b, pb in marginal.items()}
    return {format(key, f"0{width}b"): dist[key] for key in sorted(dist)}


def exact_distribution(circuit: Circuit) -> dict[str, float]:
    """:func:`exact_probabilities`, each value rounded once to the nearest float."""
    return {key: float(p) for key, p in exact_probabilities(circuit).items()}


def exact_amplitudes(circuit: Circuit) -> tuple[complex, ...]:
    """Amplitudes of an unmeasured circuit run from |0...0>, each part
    rounded once to the nearest float. Index convention as
    :func:`qobf.sim.simulate`; the whole register is one state, so the cap
    applies to the circuit's width.
    """
    state, k = _run(circuit.gates, circuit.n_qubits)
    return tuple(_complex(z, k) for z in state)
