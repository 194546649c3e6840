"""qobf: quantum circuit and control-flow obfuscation with a built-in oracle.

The package splits into:
  * :mod:`qobf.qasm`       - OpenQASM 2.0 subset parser and canonical emitter
  * :mod:`qobf.ir`         - the circuit IR, validation, and structural metrics
  * :mod:`qobf.sim`        - dense statevector simulator and the oracle's float checks
  * :mod:`qobf.exact`      - exact Clifford+T simulator for predicates and windows
  * :mod:`qobf.miter`      - the equivalence oracle: exactly reduced miters
  * :mod:`qobf._kernel`    - its standard-library ring kernel, which wrapped
    programs embed
  * :mod:`qobf.passes`     - the four circuit obfuscation passes
  * :mod:`qobf.predicates` - quantum opaque-predicate generators
  * :mod:`qobf.wrapper`    - predicate-guarded source wrapping
  * :mod:`qobf.metrics`    - overhead reports
  * :mod:`qobf.cli`        - the ``qobf`` command line tool

The names in ``__all__`` resolve on first use (PEP 562): ``qobf.X`` and
``from qobf import X`` import only the module that defines ``X``, so
``from qobf import exact_distribution, loads`` loads the front end and the
exact simulator, not numpy, the dense simulator, the passes, the wrapper or
the reports; wrapped programs import no part of the package. numpy loads
only with :mod:`qobf.sim` and the module that uses it, :mod:`qobf.metrics`;
:mod:`qobf.passes` loads the dense simulator only to build a matrix on
request, and :func:`equivalent` only for a pair whose miter keeps a gate,
or in distribution mode for circuits that measure different pairs. numpy is
the ``dense`` extra.
"""

from importlib import import_module

__version__ = "0.1.0"

#: circuit pass methods (see :mod:`qobf.passes`) and opaque-predicate kinds
#: (see :mod:`qobf.predicates`), re-exported by :mod:`qobf.ir`; defined here,
#: in the package every module loads first, so the CLI offers them as
#: ``--method`` and ``--kind`` choices without loading a layer
_METHODS = ("inverse", "composite", "cloaked", "delayed")
_PREDICATE_KINDS = ("bell", "multi_pair", "shroud", "branch")

_EXPORTS = {
    "ir": (
        "Circuit", "GateApp", "GateKind", "GateSequence", "SimulationError",
        "depth", "flatten", "gate_count", "same_gates", "validate",
    ),
    "qasm": ("ParseResult", "QasmError", "emit", "loads", "parse", "tokenize"),
    "exact": ("exact_amplitudes", "exact_distribution"),
    "miter": ("equivalent",),
    "sim": ("gate_matrix", "measure_distribution", "simulate", "strip_measures", "unitary_of"),
    "passes": (
        "ObfuscationConfig", "apply_pass", "cloaked_gates_pass",
        "composite_gates_pass", "default_verified_rules", "delayed_gates_pass",
        "effective_unitary", "inverse_gates_pass", "load_ruleset", "undo",
        "verify_ruleset",
    ),
    "predicates": (
        "PredicateCircuit", "bell_predicate", "branch_predicate", "make_predicate",
        "multi_pair_predicate", "outcome_model", "shroud_predicate",
    ),
    "wrapper": (
        "DecoyPolicy", "SourceBlock", "WrapManifest", "extract_branch_body",
        "extract_payload", "generate_decoy", "list_templates", "resolve_branches",
        "wrap",
    ),
    "metrics": ("Report", "measure_circuit_run", "measure_wrap_run", "render_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
