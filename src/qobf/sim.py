"""Dense state-vector simulator, unitary builder, and the equivalence
oracle's float checks.

It gives Born-rule outcome distributions (no shot noise) and runs the dense
side of :func:`qobf.miter.equivalent`: the reduced miter of two circuits in statevector and unitary mode, when
:func:`qobf.miter.reduced_miter` leaves a gate, and both circuits' measured
distributions in distribution mode. A pair whose miter reduces to no gate is
decided without this module, in distribution mode too when both circuits
measure the same pairs. It is the only float simulator and the only one
that needs numpy; ``verify`` on a pair that keeps a gate, ``report``,
``obfuscate --report``, ``simulate`` and the tests use it. ``obfuscate``
itself checks its output window by window, and predicate models use the
exact simulator in :mod:`qobf.exact`. Both simulators run the same gates:
``ir._kernel_gates`` turns a circuit into the (table entry, qubits) pairs of
the gate table of :mod:`qobf._kernel`, and the kernel's ``_components`` and
``_measured_parts`` split those pairs into components and lay out measured
keys. The textbook matrices of :func:`gate_matrix` are kept apart from that
table, as the independent reference the applier is tested against.

Index convention (fixed, see README): qubit 0 is the least significant bit of
a basis-state index, and classical bit 0 is the rightmost character of an
outcome bitstring. Multi-qubit gate matrices are given in operand order with
operand 0 as the most significant local bit (CX: first operand control,
second target; CCX: first two operands control).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _kernel
from .ir import (  # MAX_SIM_QUBITS, MAX_UNITARY_QUBITS and their checks are re-exported
    MAX_SIM_QUBITS,
    MAX_UNITARY_QUBITS,
    Circuit,
    GateApp,
    GateKind,
    GateSequence,
    SimulationError,
    UNITARY_KINDS,
    _check_cap,
    _check_unitary_cap,
    _kernel_gates,
    _key_pairs,
)

#: max entry deviation of the phase-aligned output states (statevector mode)
#: or unitaries (unitary mode)
PHASE_TOL = 1e-9
#: total-variation threshold for distribution-mode equivalence
DIST_TOL = 1e-9


_SQRT1_2 = 1.0 / math.sqrt(2.0)
_T_PHASE = np.exp(1j * np.pi / 4)

_MATRICES: dict[GateKind, np.ndarray] = {
    GateKind.H: _SQRT1_2 * np.array([[1, 1], [1, -1]], dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, _T_PHASE]], dtype=complex),
    GateKind.TDG: np.array([[1, 0], [0, np.conj(_T_PHASE)]], dtype=complex),
    GateKind.SWAP: np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    GateKind.CX: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    GateKind.CZ: np.diag([1, 1, 1, -1]).astype(complex),
    GateKind.CY: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]], dtype=complex
    ),
}

_ccx = np.eye(8, dtype=complex)
_ccx[[6, 7]] = _ccx[[7, 6]]
_MATRICES[GateKind.CCX] = _ccx
del _ccx


def gate_matrix(kind: GateKind) -> np.ndarray:
    """Textbook matrix of a unitary gate kind, in operand order (see module docs)."""
    if kind not in UNITARY_KINDS:
        raise SimulationError(f"{kind.value} has no unitary matrix")
    return _MATRICES[kind].copy()


def _as_gate_apps(obj: Circuit | GateSequence | Iterable[GateApp]) -> tuple[tuple[GateApp, ...], int | None]:
    """Normalize the accepted inputs to a gate list plus an implied qubit count."""
    if isinstance(obj, Circuit):
        return obj.gates, obj.n_qubits
    if isinstance(obj, GateSequence):
        gates = tuple(GateApp(kind, slots) for kind, slots in obj.gates)
        return gates, obj.n_slots
    gates = tuple(obj)
    implied = 1 + max((q for g in gates for q in g.qubits), default=0)
    return gates, implied


def _operand_views(state: np.ndarray, qubits: Sequence[int], n: int,
                   spare: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The ``2**k`` views of a flat ``(2**n, *batch)`` state where its ``k``
    operands read each local basis state, indexed by that state (operand 0
    the most significant bit), and a view of ``spare`` of the same shape for
    a gate's temporary.

    One reshape gives each operand bit its own length-2 axis, highest qubit
    first: ``(outer, 2, mid, 2, inner, *batch)`` for two operands. Indexing
    those axes gives writable views, never copies, as long as ``state`` is
    C-contiguous.
    """
    shape: list[int] = []
    axis: dict[int, int] = {}
    above = n
    for q in sorted(qubits, reverse=True):
        axis[q] = len(shape) + 1
        shape += [1 << (above - 1 - q), 2]
        above = q
    shape.append(1 << above)
    tensor = state.reshape(tuple(shape) + state.shape[1:])
    k = len(qubits)
    views = []
    for v in range(1 << k):
        idx: list = [slice(None)] * len(shape)
        for pos, q in enumerate(qubits):
            idx[axis[q]] = (v >> (k - 1 - pos)) & 1
        views.append(tensor[tuple(idx)])
    return views, spare[: views[0].size].reshape(views[0].shape)


#: ω^e for ω = e^{iπ/4}, indexed by e; the constants the table's phases use
_OMEGA = (1, _T_PHASE, 1j, 1j * _T_PHASE, -1, -_T_PHASE, -1j, np.conj(_T_PHASE))


def _apply_gates(state: np.ndarray, gates: Sequence[tuple], n: int) -> np.ndarray:
    """Apply the kernel's (table entry, qubits) pairs (``ir._kernel_gates``)
    in order to a C-contiguous flat state of shape (2**n,) (+ batch axes).

    Mutates ``state`` in place and returns it. Trailing batch axes ride along
    untouched, which is how the full-unitary builder evolves every basis
    column at once. The operand views of :func:`_operand_views` are built
    once per distinct operand tuple and kept only for this call, and every
    gate's temporary lives in one spare buffer of half the state's size: a
    fresh temporary as large as half a unitary costs a page fault per page
    on each gate.

    Deliberately built from elementwise slice arithmetic instead of matrix
    contraction: every gate but H moves slices and multiplies them by a power
    of ω (its table entry), which is exact, and the H combinations
    (a + b) / (a - b) cancel equal amplitudes to an exact float zero.
    BLAS-backed contractions fuse multiply-adds and lose that property, which
    the exact Born distributions rely on.
    """
    views: dict[tuple[int, ...], tuple[list[np.ndarray], np.ndarray]] = {}
    spare = np.empty(state.size // 2, dtype=state.dtype)
    for table, qubits in gates:
        cached = views.get(qubits)
        if cached is None:
            cached = views[qubits] = _operand_views(state, qubits, n, spare)
        local, tmp = cached
        if table is None:  # H
            # (a + b) / √2 and (a - b) / √2, a + b held in the temporary
            a, b = local
            np.add(a, b, out=tmp)
            np.subtract(a, b, out=b)
            np.multiply(tmp, _SQRT1_2, out=a)
            b *= _SQRT1_2
            continue
        for v, (w, e) in enumerate(table):
            if w == v:
                if e:
                    local[v] *= _OMEGA[e]
            elif v < w:
                # every permutation in the table is an involution, so |w>
                # maps back to |v> and the pair shares one temporary; e = 0
                # moves a slice unmultiplied, as a product with 1 + 0j can
                # flip the sign of a zero part
                a, b = local[v], local[w]
                back = table[w][1]
                if e:
                    np.multiply(_OMEGA[e], a, out=tmp)
                else:
                    tmp[...] = a
                if back:
                    np.multiply(_OMEGA[back], b, out=a)
                else:
                    a[...] = b
                b[...] = tmp
    return state


def _run(gates: Sequence[tuple], n: int,
         columns: Callable[[int], np.ndarray]) -> np.ndarray:
    """Evolve the states ``columns(2**n)`` builds through ``gates``, the
    kernel's (table entry, qubits) pairs.

    ``columns`` returns a C-contiguous (2**n,) state or (2**n, k) batch of
    column states; it is called only after the simulator cap is checked, so
    an oversized circuit fails before anything is allocated. Returns the
    evolved array itself.
    """
    _check_cap(n)
    return _apply_gates(columns(2**n), gates, n)


def _basis(index: int, dim: int) -> np.ndarray:
    state = np.zeros(dim, dtype=complex)
    state[index] = 1.0
    return state


def simulate(circuit: Circuit, initial: int = 0) -> np.ndarray:
    """Statevector after applying the circuit's gates to basis state ``initial``.

    The circuit must contain no measurements and at most MAX_SIM_QUBITS qubits.
    Each connected component runs on its own 2^k state; the full vector is
    their outer product, taken in component order.
    """
    n = circuit.n_qubits
    _check_cap(n)
    if not 0 <= initial < 2**n:
        raise SimulationError(f"initial basis index {initial} out of range for {n} qubits")
    state = None
    for qubits, gates in _kernel._components(_kernel_gates(circuit.gates), n):
        start = sum(((initial >> q) & 1) << i for i, q in enumerate(qubits))
        part = _run(gates, len(qubits), partial(_basis, start))
        # ascending qubits keep the component's axes in the global axis order,
        # so a reshape, not a transpose, places it in the (2,)*n tensor
        shape = [1] * n
        for q in qubits:
            shape[n - 1 - q] = 2
        part = part.reshape(shape)
        state = part if state is None else state * part
    return state.reshape(-1)


def unitary_of(obj: Circuit | GateSequence | Iterable[GateApp], n_qubits: int | None = None) -> np.ndarray:
    """Full 2^n x 2^n matrix of a gate list in application order.

    The matrix for "A then B" is B @ A. Capped at MAX_UNITARY_QUBITS qubits.
    """
    gates, implied = _as_gate_apps(obj)
    n = n_qubits if n_qubits is not None else implied
    if n is None or n < 1:
        raise SimulationError("cannot infer qubit count; pass n_qubits")
    if implied is not None and n < implied:
        raise SimulationError(f"gates touch qubit {implied - 1}, beyond n_qubits={n}")
    _check_unitary_cap(n)
    # every basis column evolves at once
    return _run(_kernel_gates(gates), n, _identity)


_identity = partial(np.eye, dtype=complex)


def strip_measures(circuit: Circuit) -> Circuit:
    """Copy of the circuit without MEASURE gates (barriers kept)."""
    return circuit.with_gates(g for g in circuit.gates if g.kind is not GateKind.MEASURE)


def measure_distribution(circuit: Circuit) -> dict[str, float]:
    """Exact Born-rule outcome distribution over the measured classical bits.

    No sampling: probabilities are computed from the final statevector and
    normalized by their total, so analytically exact values (0.5, 2**-n, 0)
    come out exact. Outcomes with probability exactly zero are omitted; absent
    keys read as probability 0. Bitstring convention: the lowest measured
    classical index is the rightmost character.

    Each connected component with a measured qubit runs and is normalized on
    its own; the distribution is the product of their marginals, and a
    component with no measured qubit is never run. The key layout is the one
    :func:`qobf.exact.exact_probabilities` uses (``_kernel._measured_parts``);
    a qubit or classical bit measured more than once raises SimulationError.

    Measurements may appear mid-circuit; because no gate may touch a qubit
    after it is measured (an IR invariant), deferring them to the end is exact.
    """
    _check_cap(circuit.n_qubits)
    unitary = _kernel_gates(g for g in circuit.gates if g.kind is not GateKind.MEASURE)
    width, parts = _kernel._measured_parts(unitary, _key_pairs(circuit), circuit.n_qubits)
    keys = np.zeros(1, dtype=np.int64)
    probs = np.ones(1)
    for qubits, gates, measured in parts:
        n = len(qubits)
        state = _run(gates, n, partial(_basis, 0))
        marginal = (np.abs(state) ** 2).reshape((2,) * n)
        del state
        # measured local qubits' axes, highest key place first
        keep_axes = [n - 1 - i for i, _ in reversed(measured)]
        drop_axes = tuple(ax for ax in range(n) if ax not in keep_axes)
        if drop_axes:
            marginal = marginal.sum(axis=drop_axes)
            keep_axes = [ax - sum(1 for d in drop_axes if d < ax) for ax in keep_axes]
        marginal = np.transpose(marginal, keep_axes).reshape(-1)
        (nonzero,) = np.nonzero(marginal)
        # fsum gives the exact total with one final rounding, so analytically
        # clean values (0.5, 2**-n) survive the normalizing division exactly;
        # naive pairwise accumulation does not guarantee that
        total = math.fsum(float(marginal[i]) for i in nonzero)
        # scatter each local outcome's bits to their places in the full key
        offsets = np.zeros(len(nonzero), dtype=np.int64)
        for bit, (_, at) in enumerate(measured):
            offsets |= ((nonzero >> bit) & 1) << at
        keys = (keys[:, None] | offsets).reshape(-1)
        probs = (probs[:, None] * (marginal[nonzero] / total)).reshape(-1)
    return {format(int(keys[i]), f"0{width}b"): float(probs[i]) for i in np.argsort(keys)}


def proportional(u: np.ndarray, v: np.ndarray, tol: float = PHASE_TOL) -> tuple[bool, complex]:
    """Is u == phase * v for a unit-modulus scalar phase? Returns (ok, phase).

    The phase is read off the largest-modulus entry of ``v``, so it stays well
    conditioned when every entry is small (a dense state on many qubits).
    """
    if u.shape != v.shape:
        return False, 0j
    idx = int(np.argmax(np.abs(v)))
    pivot = v.flat[idx]
    if abs(pivot) <= 1e-8:
        return bool(np.max(np.abs(u)) <= tol), 1 + 0j
    phase = complex(u.flat[idx] / pivot)
    ok = abs(abs(phase) - 1) <= tol and float(np.max(np.abs(u - phase * v))) <= tol
    return ok, phase


def _stimulus(dim: int) -> np.ndarray:
    """The fixed-seed, normalised, dense random state both circuits run on."""
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def _miter_check(miter: Sequence[GateApp], n: int,
                 columns: Callable[[int], np.ndarray]) -> tuple[bool, float]:
    """Run a reduced miter W (:func:`qobf.miter.reduced_miter`) of two
    n-qubit circuits once on the columns X: equal when W X == phase * X.

    W is the first circuit's gates, then the second's reversed and inverted,
    less what the reduction cancels exactly, so W = c * U2^dagger U1 for a
    global phase c. ``columns`` builds one dense random state psi
    (statevector mode), whose weight on every basis state shows relative
    phases, or the identity's columns (unitary mode). Fidelity is
    |<X, W X>| = |<U1 X, U2 X>| over the number of columns.
    """
    out = _run(_kernel_gates(miter), n, columns)
    x = columns(len(out))
    ok, _ = proportional(out, x)
    return ok, float(abs(np.vdot(x, out)) / (x.size // len(x)))


def _distribution_check(c1: Circuit, c2: Circuit) -> tuple[bool, float]:
    d1 = measure_distribution(c1)
    d2 = measure_distribution(c2)
    # fsum over sorted keys: a plain sum in set order would round differently
    # under each string hash seed
    keys = sorted(d1.keys() | d2.keys())
    tv = 0.5 * math.fsum(abs(d1.get(k, 0.0) - d2.get(k, 0.0)) for k in keys)
    return tv <= DIST_TOL, 1.0 - tv
