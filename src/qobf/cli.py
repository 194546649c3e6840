"""The ``qobf`` command line tool: file-to-file workflows over all modules.

Each command imports what it runs: the front end, the IR, the passes, the
dense simulator, the predicates, the wrapper and the reports load inside the
commands that use them, and importing this module loads none of them. So
``templates`` loads the wrapper alone, ``verify`` and ``obfuscate`` never
load the wrapper, ``verify`` never loads the passes, and ``obfuscate``
(without ``--report``), ``templates``, ``predicate`` and ``wrap`` never load
numpy. ``verify`` loads numpy only for a pair whose reduced miter keeps a
gate, or in distribution mode when the two circuits measure different
pairs; a ``verify`` that needs it where it is missing exits 2 and names the
``dense`` extra.

``obfuscate`` checks what it writes without the dense simulator: every
window the pass inserted or substituted must act as the original gates it
spans, decided exactly, and undoing the pass must give back the input,
measurements included (:func:`qobf.passes.check_translation`).

Exit codes (stable for scripting):
  0 - success
  1 - ``verify`` only: the two circuits are not equivalent
  2 - usage error, unreadable/unparsable input, an output path that cannot
      be written, two outputs to one file, qubit mismatch, or numpy missing
      for a command that needs it
  3 - internal failure: a pass produced a circuit the check cannot prove
      equivalent (the tool refuses to write semantics-breaking output), or
      a command crashed
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import _METHODS as METHODS, _PREDICATE_KINDS as PREDICATE_KINDS, __version__

if TYPE_CHECKING:
    from .diagnostics import Diagnostic
    from .ir import Circuit
    from .passes import ObfuscationConfig, SubstitutionRule

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOUNDNESS = 3


def _fail(message: str, code: int = EXIT_INPUT) -> int:
    print(f"qobf: error: {message}", file=sys.stderr)
    return code


@contextmanager
def _needs_numpy(command: str):
    """Report a failed import in the block, which loads the dense simulator,
    as ``command`` needing numpy, the ``dense`` extra: a ``ValueError``,
    which ``main`` turns into exit 2."""
    try:
        yield
    except ImportError as exc:
        raise ValueError(f"{command} needs numpy (the 'dense' extra): {exc}") from None


@contextmanager
def _warnings_to_stderr():
    """Print the warnings raised in the block as ``qobf: warning:`` lines."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for w in caught:
        print(f"qobf: warning: {w.message}", file=sys.stderr)


def apply_pass(
    method: str,
    circuit: Circuit,
    cfg: ObfuscationConfig,
    ruleset: Sequence[SubstitutionRule] | None = None,
) -> Circuit:
    """:func:`qobf.passes.apply_pass`, importing the passes on first call.

    A module attribute, so the soundness gate's fault-injection tests can
    replace the pass that ``obfuscate`` runs.
    """
    from .passes import apply_pass as run_pass

    return run_pass(method, circuit, cfg, ruleset)


def validate(circuit: Circuit) -> list[Diagnostic]:
    """:func:`qobf.ir.validate`, importing the IR on first call.

    A module attribute, so tests can count the checks each command runs.
    """
    from .ir import validate as check

    return check(circuit)


def _simulation_error() -> type[Exception]:
    """:class:`qobf.ir.SimulationError`, importing the IR. ``main`` names it
    in an except clause, which is evaluated only once something is raised,
    so a command that raises nothing never loads the IR for it."""
    from .ir import SimulationError

    return SimulationError


def _write_outputs(outputs: Sequence[tuple[str, str]]) -> str | None:
    """Write each (path, text) in order; on the first that cannot be
    written, remove the regular files written before it and return the
    error message (None when all are written). So a command that writes two
    files leaves neither when one of them fails; a device such as
    ``/dev/null`` is left alone.

    Two outputs that name one file, however spelled, are refused before
    anything is written, since the second would silently replace the first.
    """
    seen: dict[str, str] = {}
    for path, _ in outputs:
        # realpath, unlike Path.resolve, does not raise on a symlink loop
        target = os.path.realpath(path)
        if os.path.exists(target) and not os.path.isfile(target):
            continue  # a device or a directory: writing says what it does
        if target in seen:
            return f"two outputs go to the same file: {seen[target]} and {path}"
        seen[target] = path
    written: list[Path] = []
    for path, text in outputs:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            for done in written:
                if done.is_file():
                    done.unlink()
            return f"cannot write {path}: {exc}"
        written.append(Path(path))
    return None


def _load_circuit(path: str) -> Circuit | None:
    """Read, parse and validate a QASM file, printing any diagnostics.

    Raises SimulationError for a circuit past the dense simulator's cap
    before any pass runs. ``verify`` and ``report`` simulate what they load;
    ``obfuscate`` keeps the same cap, so any file it writes can be verified.
    """
    from .ir import _check_cap
    from .qasm import parse

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"qobf: error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    result = parse(text)
    if result.circuit is None:
        for diag in result.diagnostics:
            print(f"{path}: {diag}", file=sys.stderr)
        return None
    problems = [d for d in validate(result.circuit) if d.is_error]
    if problems:
        for diag in problems:
            print(f"{path}: {diag}", file=sys.stderr)
        return None
    _check_cap(result.circuit.n_qubits)
    return result.circuit


def cmd_obfuscate(args: argparse.Namespace) -> int:
    from .passes import ObfuscationConfig, check_translation, load_ruleset, verify_ruleset
    from .qasm import emit

    if args.report:
        with _needs_numpy("obfuscate --report"):
            from .metrics import measure_circuit_run, render_report
    circuit = _load_circuit(args.input)
    if circuit is None:
        return EXIT_INPUT
    cfg = ObfuscationConfig(seed=args.seed, intensity=args.intensity)
    ruleset = None
    if args.ruleset and args.method != "cloaked":
        print("qobf: warning: --ruleset is ignored unless --method cloaked", file=sys.stderr)
    if args.method == "cloaked":
        try:
            report = verify_ruleset(load_ruleset(args.ruleset))
        except (OSError, ValueError) as exc:
            return _fail(str(exc))
        for rejected in report.rejected:
            print(
                f"qobf: warning: rule {rejected.target.value} <-"
                f" {rejected.replacement.name} failed verification; skipped",
                file=sys.stderr,
            )
        if not report.accepted:
            print("qobf: warning: no applicable rules; output equals input", file=sys.stderr)
        ruleset = report.accepted
    # whatever the pass or the check of its output raises is qobf's fault
    try:
        with _warnings_to_stderr():
            obfuscated = apply_pass(args.method, circuit, cfg, ruleset)
        problems = [str(d) for d in validate(obfuscated) if d.is_error]
        if problems:
            problem = f"pass broke the circuit ({'; '.join(problems)})"
        else:
            problem = check_translation(circuit, obfuscated)
            problem = problem and f"pass broke circuit semantics ({problem})"
    except Exception as exc:
        return _fail(
            f"internal error in pass {args.method}: {type(exc).__name__}: {exc}", EXIT_SOUNDNESS
        )
    if problem:
        return _fail(f"{problem}; refusing to write output", EXIT_SOUNDNESS)
    # _load_circuit validated the input and the check above the output
    outputs = [(args.output, emit(obfuscated, _checked=True))]
    if args.report:
        report_obj = measure_circuit_run(
            circuit, obfuscated, args.method, input_id=args.input, seed=args.seed,
            _checked=("input", "output"),
        )
        outputs.append((args.report, render_report([report_obj], "json") + "\n"))
    problem = _write_outputs(outputs)
    if problem:
        return _fail(problem)
    if args.verbose:
        # once checked, each inserted or substituted gate is in one window or one group
        checked = {(g.window, g.group) for g in obfuscated.gates if g.origin != "original"}
        print(f"wrote {args.output} ({len(checked)} windows checked exactly)")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .miter import _deciding_mode, equivalent

    a = _load_circuit(args.a)
    b = _load_circuit(args.b)
    if a is None or b is None:
        return EXIT_INPUT
    # only a pair whose miter keeps a gate, or whose measurements differ in
    # distribution mode, loads the dense simulator
    with _needs_numpy("verify"):
        ok, fidelity = equivalent(a, b, args.mode)
    print(f"equivalent={ok} fidelity={fidelity:.12f} mode={_deciding_mode(a, b, args.mode)}")
    return EXIT_OK if ok else 1


def _predicate_params(args: argparse.Namespace) -> dict[str, int]:
    """``--kind``'s own parameter from ``--pairs`` or ``--seed``, if given (else
    ``make_predicate`` applies its default); other kinds' flags are ignored."""
    from .predicates import KINDS

    name = KINDS[args.kind].parameter
    value = getattr(args, name, None)
    return {} if value is None else {name: value}


def cmd_predicate(args: argparse.Namespace) -> int:
    import json

    from .exact import exact_distribution
    from .predicates import make_predicate
    from .qasm import emit

    pred = make_predicate(args.kind, _predicate_params(args))
    # make_predicate has checked the model; its exact distribution is memoised
    doc = {"kind": pred.kind, "params": dict(pred.params)}
    if pred.semantics.kind == "measured":
        doc["distribution"] = exact_distribution(pred.circuit)
    else:
        doc["amplitudes"] = [[z.real, z.imag] for z in pred.semantics.amplitudes]
    model_path = args.model or (str(Path(args.output)) + ".model.json")
    problem = _write_outputs(
        [(args.output, emit(pred.circuit)), (model_path, json.dumps(doc, indent=2) + "\n")]
    )
    if problem:
        return _fail(problem)
    if args.verbose:
        print(f"wrote {args.output} and {model_path}")
    return EXIT_OK


def cmd_wrap(args: argparse.Namespace) -> int:
    import json

    from .predicates import REQUIRED_MODE
    from .wrapper import DecoyPolicy, SourceBlock, resolve_branches, wrap

    try:
        # bytes, then text: read_text would turn \r\n and \r into \n, and
        # the manifest's digest and extract_payload carry the file byte-exact
        payload = Path(args.payload).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(f"cannot read {args.payload}: {exc}")
    policy = DecoyPolicy(
        mode=args.mode or REQUIRED_MODE[args.kind],
        decoy_seed=args.decoy_seed,
        decoy_statement_count=args.decoy_statements,
    )
    emitted, manifest = wrap(
        SourceBlock(payload),
        args.kind,
        _predicate_params(args),
        policy,
        template_id=args.template,
        template_dir=args.template_dir,
    )
    manifest_path = args.manifest or (str(Path(args.output)) + ".manifest.json")
    problem = _write_outputs(
        [(args.output, emitted), (manifest_path, json.dumps(manifest.to_dict(), indent=2) + "\n")]
    )
    if problem:
        return _fail(problem)
    for branch_id, prob in resolve_branches(manifest).items():
        print(f"{branch_id}: p={prob:.12g}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    from .passes import ObfuscationConfig

    with _needs_numpy("report"):
        from .metrics import measure_circuit_run, render_report

    if not args.inputs:
        return _fail("no inputs given")
    methods = args.methods.split(",") if args.methods else list(METHODS)
    for method in methods:
        if method not in METHODS:
            return _fail(f"unknown method {method!r}")
    reports = []
    for path in args.inputs:
        circuit = _load_circuit(path)
        if circuit is None:
            return EXIT_INPUT
        for method in methods:
            cfg = ObfuscationConfig(seed=args.seed, intensity=args.intensity)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                obfuscated = apply_pass(method, circuit, cfg)
            # _load_circuit validated the input; an invalid output raises ReportError
            reports.append(measure_circuit_run(
                circuit, obfuscated, method, input_id=path, seed=args.seed, _checked=("input",)
            ))
    text = render_report(reports, args.format)
    if args.out:
        problem = _write_outputs([(args.out, text + "\n")])
        if problem:
            return _fail(problem)
    else:
        print(text)
    return EXIT_OK


def cmd_templates(args: argparse.Namespace) -> int:
    from .wrapper import list_templates

    with _warnings_to_stderr():
        templates = list_templates(args.template_dir)
    for template_id, description in templates:
        print(f"{template_id}: {description}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qobf",
        description="Quantum circuit and control-flow obfuscation with equivalence gating.",
    )
    parser.add_argument("--version", action="version", version=f"qobf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("obfuscate", help="apply a circuit obfuscation pass to a QASM file")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--intensity", type=float, default=1.0)
    p.add_argument("--ruleset", help="substitution-rule file for --method cloaked")
    p.add_argument("--report", help="also write a JSON overhead report here")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_obfuscate)

    p = sub.add_parser("verify", help="check two QASM files for equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mode", choices=("statevector", "unitary", "distribution"),
                   default="statevector")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("predicate", help="generate an opaque-predicate circuit")
    p.add_argument("--kind", choices=PREDICATE_KINDS, required=True)
    p.add_argument("--pairs", type=int, dest="n_pairs", metavar="PAIRS",
                   help="pair count for multi_pair")
    p.add_argument("--seed", type=int, help="decoy-segment seed for branch")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--model", help="outcome-model JSON path (default: <output>.model.json)")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_predicate)

    p = sub.add_parser("wrap", help="wrap a payload file behind an opaque predicate")
    p.add_argument("--payload", required=True)
    p.add_argument("--kind", choices=PREDICATE_KINDS, required=True)
    p.add_argument("--mode", choices=("duplicate_payload", "dead_decoy", "restart"),
                   help="decoy policy (defaults to the kind's canonical mode)")
    p.add_argument("--pairs", type=int, dest="n_pairs", metavar="PAIRS")
    p.add_argument("--seed", type=int)
    p.add_argument("--decoy-seed", type=int, default=0)
    p.add_argument("--decoy-statements", type=int, default=2)
    p.add_argument("--template", default="qobf-inline")
    p.add_argument("--template-dir")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--manifest", help="manifest JSON path (default: <output>.manifest.json)")
    p.set_defaults(func=cmd_wrap)

    p = sub.add_parser("report", help="measure obfuscation overheads for QASM files")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--methods", help="comma-separated pass list (default: all four)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--intensity", type=float, default=1.0)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("templates", help="list available wrap templates")
    p.add_argument("--template-dir")
    p.set_defaults(func=cmd_templates)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. A ``ValueError`` or ``SimulationError`` that escapes
    its handler is an input error: ``qobf: error: <message>``, exit 2. The
    handlers leave both to this one place. Any other exception is a crash:
    its traceback, then ``qobf: error: internal error: ...``, exit 3.
    ``KeyboardInterrupt`` and ``SystemExit`` pass through."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, _simulation_error()) as exc:
        return _fail(str(exc))
    except Exception as exc:
        import traceback

        traceback.print_exc()
        return _fail(f"internal error: {type(exc).__name__}: {exc}", EXIT_SOUNDNESS)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
