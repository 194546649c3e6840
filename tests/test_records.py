"""Behaviour of qobf's records.

Every record is a ``typing.NamedTuple``: immutable, compared and hashed by
its fields, and it iterates, indexes and compares like a tuple. The four
that check their fields (``SourceSpan``, ``ObfuscationConfig``,
``SourceBlock``, ``DecoyPolicy``) do it in ``__new__``, on a thin subclass
of the NamedTuple. ``_replace`` builds through ``_make`` and so skips that
check, where ``dataclasses.replace`` re-ran ``__post_init__``; nothing in
the package replaces a field of a checked record.
"""

import copy
import pickle

import pytest

from qobf.diagnostics import Diagnostic, SourceSpan
from qobf.ir import Circuit, GateApp, GateCounts, GateKind, GateSequence
from qobf.passes import ObfuscationConfig, RejectedRule, RulesetReport, SubstitutionRule
from qobf.predicates import BranchSemantics, BranchSpec, PredicateCircuit
from qobf.qasm import ParseResult
from qobf.wrapper import DecoyPolicy, SourceBlock, Template, WrapError, WrapManifest

_X = GateApp(GateKind.X, (0,))
_XX = GateSequence("x-x", ((GateKind.X, (0,)), (GateKind.X, (0,))))
_BRANCH = BranchSpec("b0", "live", "0")

#: one record of each kind, by its fields
RECORDS = [
    (SourceSpan, {"start_line": 1, "start_col": 4, "end_line": 2, "end_col": 1}),
    (Diagnostic, {"severity": "error", "message": "m", "span": SourceSpan(1, 1, 1, 1)}),
    (GateApp, {"kind": GateKind.MEASURE, "qubits": (0,), "cbit": 0, "window": 3}),
    (Circuit, {"n_qubits": 1, "n_cbits": 1, "gates": (_X,), "subst_originals": {0: _X}}),
    (GateSequence, {"name": "x-x", "gates": _XX.gates}),
    (GateCounts, {"counts": {GateKind.X: 1}, "total": 1}),
    (ParseResult, {"circuit": Circuit(1, gates=(_X,))}),
    (ObfuscationConfig, {"seed": 3, "intensity": 0.5}),
    (SubstitutionRule, {"target": GateKind.X, "replacement": _XX, "verified": False,
                        "phase_factor": 1j}),
    (RejectedRule, {"target": GateKind.X, "replacement": _XX}),
    (RulesetReport, {"accepted": (), "rejected": (RejectedRule(GateKind.X, _XX),)}),
    (BranchSpec, {"id": "b0", "role": "live", "outcome": "0"}),
    (BranchSemantics, {"kind": "measured", "branches": (_BRANCH,), "key_cbits": (0,)}),
    (PredicateCircuit, {"circuit": Circuit(1), "kind": "bell",
                        "semantics": BranchSemantics("measured", (_BRANCH,)), "params": {}}),
    (SourceBlock, {"text": "print(1)\n"}),
    (DecoyPolicy, {"mode": "restart", "decoy_seed": 1}),
    (Template, {"id": "t", "text": "{BRANCH_TABLE}", "description": "d"}),
    (WrapManifest, {"template": "qobf-inline", "predicate_kind": "bell", "predicate_params": {},
                    "payload_sha256": "0" * 64, "payload_newline_terminated": True,
                    "payload_split": (), "indent": "    ", "key_cbits": (0, 1),
                    "policy": DecoyPolicy("duplicate_payload"), "branches": (_BRANCH,)}),
]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_semantics(cls, fields):
    record = cls(**fields)
    assert all(getattr(record, name) == value for name, value in fields.items())
    for name in (cls._fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert repr(record) == (
        f"{cls.__name__}({', '.join(f'{name}={getattr(record, name)!r}' for name in cls._fields)})"
    )
    twin = cls(**copy.deepcopy(fields))
    assert twin == record and type(twin) is cls
    if _hashable(tuple(record)):
        assert hash(twin) == hash(record)
    else:  # a dict or list field, as a frozen dataclass had it
        assert not _hashable(record)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


@pytest.mark.parametrize("build, error, message", [
    (lambda: SourceSpan(2, 1, 1, 9), ValueError, "span end precedes span start"),
    (lambda: SourceSpan(start_line=1, start_col=2, end_line=1, end_col=1), ValueError,
     "span end precedes span start"),
    (lambda: ObfuscationConfig(seed=-1), ValueError, "seed must fit in 64 unsigned bits"),
    (lambda: ObfuscationConfig(2**64), ValueError, "seed must fit in 64 unsigned bits"),
    (lambda: ObfuscationConfig(0, intensity=0), ValueError, "intensity must lie in (0, 1]"),
    (lambda: ObfuscationConfig(0, 1.5), ValueError, "intensity must lie in (0, 1]"),
    (lambda: SourceBlock(""), WrapError, "payload text must be non-empty"),
    (lambda: SourceBlock(text=""), WrapError, "payload text must be non-empty"),
    (lambda: DecoyPolicy("magic"), WrapError, "unknown decoy mode 'magic'"),
    (lambda: DecoyPolicy("restart", decoy_seed=-1), WrapError, "decoy_seed must be non-negative"),
    (lambda: DecoyPolicy("restart", 0, -1), WrapError,
     "decoy_statement_count must be non-negative"),
])
def test_checked_record_refuses(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_circuit_default_tables_are_not_shared():
    first, second = Circuit(1), Circuit(2)
    with pytest.raises(TypeError):
        first.subst_originals[0] = _X
    assert second.subst_originals == {}
    assert Circuit(1) == Circuit(1, subst_originals={})
    assert repr(Circuit(1)) == "Circuit(n_qubits=1, n_cbits=0, gates=(), subst_originals={})"


def test_parse_result_diagnostics_fresh_per_result():
    circuit = Circuit(1)
    first, second = ParseResult(circuit), ParseResult(circuit)
    assert first.diagnostics == [] and first.diagnostics is not second.diagnostics
    first.diagnostics.append(Diagnostic("warning", "w"))
    assert second.diagnostics == [] and ParseResult(circuit).diagnostics == []
