"""Exact ring kernel: Clifford+T circuits run in Z[1/√2, i] with Python integers.

Every gate in the alphabet is Clifford+T, so every amplitude of a circuit
started in a basis state lies in the ring Z[1/√2, i]: it is
(a + bω + cω² + dω³)/√2^k with ω = e^{iπ/4} and integers a, b, c, d
(Giles & Selinger, "Exact synthesis of multiqubit Clifford+T circuits",
arXiv:1212.0506). A state shares one k among its amplitudes: H adds and
subtracts pairs of entries and raises k by one, and every other gate permutes
basis states and multiplies entries by a power of ω, which rotates the four
integers. A probability is then (p + q√2)/2^k (a ``_Dyadic``), so a dead
outcome is exactly zero and a total is exactly one. Values leave the ring
once, at the end, each rounded to the nearest float.

This file is the one home of the gate table, the basis-state run, the
probability, the rounding, the component split and the measured-key layout.
The package's ``ir``, ``exact`` and ``sim`` modules import them from here,
and the ``wrap`` command pastes this file, byte for byte, into every program
it writes from a template with an ``{EVALUATOR}`` placeholder. So it imports
only the standard library, nothing relative and nothing from ``__future__``,
and it binds no name without a leading underscore.

A gate is a pair (op, qubits). The run takes op to be the gate's ``_GATES``
entry; the component split carries any op along untouched.
"""

import math as _math

#: every unitary gate by its QASM name. H (None) mixes basis states, so its
#: action is written once per number type. Every other gate maps basis state
#: |v> of its operands (operand 0 the most significant bit) to ω^e |w>; these
#: are the (w, e) per v. Each v -> w is an involution.
_GATES = {
    "h": None,
    "x": ((1, 0), (0, 0)),
    "y": ((1, 2), (0, 6)),
    "z": ((0, 0), (1, 4)),
    "s": ((0, 0), (1, 2)),
    "sdg": ((0, 0), (1, 6)),
    "t": ((0, 0), (1, 1)),
    "tdg": ((0, 0), (1, 7)),
    "swap": ((0, 0), (2, 0), (1, 0), (3, 0)),
    "cx": ((0, 0), (1, 0), (3, 0), (2, 0)),
    "cz": ((0, 0), (1, 0), (2, 0), (3, 4)),
    "cy": ((0, 0), (1, 0), (3, 2), (2, 6)),
    "ccx": ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (7, 0), (6, 0)),
}

#: an amplitude's numerator a + bω + cω² + dω³, as (a, b, c, d)
_ZERO_AMPLITUDE = (0, 0, 0, 0)


class _Dyadic:
    """The real number (p + q√2) / 2**k, with integers p, q and k >= 0.

    Stored with the smallest such k, so equal numbers have equal fields.
    """

    __slots__ = ("p", "q", "k")

    def __init__(self, p, q=0, k=0):
        while k and not (p | q) & 1:
            p, q, k = p >> 1, q >> 1, k - 1
        self.p, self.q, self.k = p, q, k

    def _aligned(self, other):
        k = max(self.k, other.k)
        s, o = k - self.k, k - other.k
        return self.p << s, self.q << s, other.p << o, other.q << o, k

    def __add__(self, other):
        p1, q1, p2, q2, k = self._aligned(other)
        return _Dyadic(p1 + p2, q1 + q2, k)

    def __sub__(self, other):
        p1, q1, p2, q2, k = self._aligned(other)
        return _Dyadic(p1 - p2, q1 - q2, k)

    def __mul__(self, other):
        return _Dyadic(self.p * other.p + 2 * self.q * other.q,
                       self.p * other.q + self.q * other.p, self.k + other.k)

    def __eq__(self, other):
        if not isinstance(other, _Dyadic):
            return NotImplemented
        return (self.p, self.q, self.k) == (other.p, other.q, other.k)

    def __float__(self):
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
            r = _math.isqrt(2 * q * q << 2 * m)
            lo = (p << m) + r if q > 0 else (p << m) - r - 1
            scale = 1 << (k + m)
            lo_float, hi_float = lo / scale, (lo + 1) / scale
            if lo_float == hi_float:
                return lo_float
            m *= 2

    def __repr__(self):
        return f"Dyadic({self.p}, {self.q}, {self.k})"


def _times_omega(z, e):
    """z·ω^e; ω·(a + bω + cω² + dω³) = -d + aω + bω² + cω³ since ω⁴ = -1."""
    a, b, c, d = z
    for _ in range(e & 3):
        a, b, c, d = -d, a, b, c
    return (-a, -b, -c, -d) if e & 4 else (a, b, c, d)


def _basis_run(gates, n, start=0):
    """Numerators of the state the unitary gates make on n qubits from basis
    state |start>, and their shared k. Qubit 0 is the least significant bit
    of a basis-state index."""
    state = [_ZERO_AMPLITUDE] * (1 << n)
    state[start] = (1, 0, 0, 0)
    k = 0
    for table, qubits in gates:
        if table is None:  # H
            bit = 1 << qubits[0]
            for i in range(len(state)):
                if not i & bit:
                    u, v = state[i], state[i | bit]
                    state[i] = (u[0] + v[0], u[1] + v[1], u[2] + v[2], u[3] + v[3])
                    state[i | bit] = (u[0] - v[0], u[1] - v[1], u[2] - v[2], u[3] - v[3])
            k += 1
            continue
        width = len(qubits)
        moved = [_ZERO_AMPLITUDE] * len(state)
        for i, z in enumerate(state):
            v = 0
            for q in qubits:
                v = v << 1 | (i >> q) & 1
            w, e = table[v]
            j = i
            for pos, q in enumerate(qubits):
                j = j & ~(1 << q) | ((w >> (width - 1 - pos)) & 1) << q
            moved[j] = _times_omega(z, e)
        state = moved
    return state, k


def _probability(z, k):
    """|z|²/2^k: |a + bω + cω² + dω³|² = a² + b² + c² + d² + √2(ab - ad + bc + cd)."""
    a, b, c, d = z
    return _Dyadic(a * a + b * b + c * c + d * d, a * b - a * d + b * c + c * d, k)


def _real_part(x, y, k):
    """(x + y/√2) / √2^k as a _Dyadic."""
    j, odd = divmod(k, 2)
    return _Dyadic(y, x, j + 1) if odd else _Dyadic(2 * x, y, j + 1)


def _complex(z, k):
    """z/√2^k, each part rounded once to the nearest float."""
    # a + bω + cω² + dω³ = (a + (b - d)/√2) + i(c + (b + d)/√2)
    a, b, c, d = z
    return complex(float(_real_part(a, b - d, k)), float(_real_part(c, b + d, k)))


def _components(gates, n):
    """Split gates on n qubits into the connected components of their
    qubit-interaction graph.

    Two qubits are connected when a gate acts on both. Every qubit lies in
    exactly one component, an untouched qubit in one of its own. Returns
    (qubits, gates) per component, ordered by lowest qubit, with the qubits
    ascending and each gate's qubits relabelled onto local indices in that
    order, so a component's state keeps the global bit order.
    """
    parent = list(range(n))

    def find(q):
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    for _, qubits in gates:
        if len(qubits) > 1:
            root = find(qubits[0])
            for q in qubits[1:]:
                parent[find(q)] = root
    roots = [find(q) for q in range(n)]
    if len(set(roots)) == 1:
        # connected: the relabelling is the identity
        return [(list(range(n)), list(gates))]
    local = [0] * n
    parts = {}
    for q, root in enumerate(roots):
        qubits, _ = parts.setdefault(root, ([], []))
        local[q] = len(qubits)
        qubits.append(q)
    for op, qubits in gates:
        parts[roots[qubits[0]]][1].append((op, tuple(local[q] for q in qubits)))
    return list(parts.values())


def _measured_parts(gates, measured, n):
    """The key layout of a measured distribution, per component.

    ``measured`` holds (qubit, classical bit) pairs, each qubit and each
    classical bit at most once. A key has one character per pair, the lowest
    classical bit rightmost. Returns the key width and, for each component of
    the unitary ``gates`` (see ``_components``) that has a measured qubit,
    (qubits, gates, places): ``places`` lists (local qubit, key place) pairs
    by ascending place, a place counted from the right of the key.
    """
    cbit_of = dict(measured)
    place = {c: i for i, c in enumerate(sorted(cbit_of.values()))}
    parts = []
    for qubits, local in _components(gates, n):
        places = sorted(
            ((i, place[cbit_of[q]]) for i, q in enumerate(qubits) if q in cbit_of),
            key=lambda m: m[1],
        )
        if places:
            parts.append((qubits, local, places))
    return len(measured), parts


def _distribution(width, parts, run):
    """Exact Born-rule probability of every key of nonzero probability, as a
    _Dyadic, keys ascending; ``width`` and ``parts`` are ``_measured_parts``'s.

    ``run(gates, n)`` runs one component from |0...0> and returns its
    numerators and k (``_basis_run`` for kernel gates). Each component runs on
    its own and the distribution is the product of their marginals.
    """
    dist = {0: _Dyadic(1)}
    for qubits, gates, places in parts:
        state, k = run(gates, len(qubits))
        marginal = {}
        for index, z in enumerate(state):
            if z != _ZERO_AMPLITUDE:
                key = sum(((index >> i) & 1) << at for i, at in places)
                p = _probability(z, k)
                marginal[key] = marginal[key] + p if key in marginal else p
        dist = {a | b: pa * pb for a, pa in dist.items() for b, pb in marginal.items()}
    return {format(key, f"0{width}b"): dist[key] for key in sorted(dist)}


def _number(text, prefix, low, high, end=""):
    """i of the text ``prefix[i]end``, with i an ASCII decimal, low <= i < high."""
    digits = text[len(prefix) + 1:len(text) - len(end) - 1]
    if (text != f"{prefix}[{digits}]{end}" or not (digits.isascii() and digits.isdigit())
            or not low <= int(digits) < high):
        raise ValueError(f"unsupported QASM {text!r}")
    return int(digits)


def _read_qasm(text):
    """Width, gates and measured (qubit, classical bit) pairs of a circuit in
    the QASM subset the emitter writes for predicates.

    The subset is the OPENQASM 2.0 header, the qelib1.inc include,
    ``qreg q[n];``, an optional ``creg c[m];``, then one statement per line:
    a gate of ``_GATES`` or ``measure q[i] -> c[j];``. Anything else raises
    ValueError, and so does a gate on a measured qubit or a qubit or bit
    measured twice, so deferring every measurement to the end is exact.
    """
    lines = text.splitlines()
    if lines[:2] != ["OPENQASM 2.0;", 'include "qelib1.inc";'] or len(lines) < 3:
        raise ValueError("missing the OPENQASM 2.0 header")
    n = _number(lines[2], "qreg q", 1, _math.inf, ";")
    body = lines[3:]
    m = 0
    if body and body[0].startswith("creg "):
        m = _number(body.pop(0), "creg c", 1, _math.inf, ";")
    gates, measured, measured_qubits, measured_cbits = [], [], set(), set()
    for line in body:
        name, _, operands = line.partition(" ")
        if line[-1:] != ";" or name != "measure" and name not in _GATES:
            raise ValueError(f"unsupported QASM {line!r}")
        if name == "measure":
            q, _, c = operands[:-1].partition(" -> ")
            q, c = _number(q, "q", 0, n), _number(c, "c", 0, m)
            if q in measured_qubits or c in measured_cbits:
                raise ValueError(f"measured twice: {line!r}")
            measured.append((q, c))
            measured_qubits.add(q)
            measured_cbits.add(c)
            continue
        table = _GATES[name]
        qubits = tuple(_number(o, "q", 0, n) for o in operands[:-1].split(","))
        arity = 1 if table is None else len(table).bit_length() - 1
        if len(set(qubits)) != arity or len(qubits) != arity or measured_qubits & set(qubits):
            raise ValueError(f"unsupported gate {line!r}")
        gates.append((table, qubits))
    return n, gates, measured


def _evaluate(text):
    """The circuit ``text`` evaluated exactly, each value rounded once: its
    distribution over the measured classical bits and None when it measures,
    else None and its amplitudes from |0...0>."""
    n, gates, measured = _read_qasm(text)
    if not measured:
        state, k = _basis_run(gates, n)
        return None, tuple(_complex(z, k) for z in state)
    dist = _distribution(*_measured_parts(gates, measured, n), _basis_run)
    return {key: float(p) for key, p in dist.items()}, None
