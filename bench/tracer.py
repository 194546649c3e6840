"""Run one ``qobf`` CLI command with a span around every call into a layer.

Usage: python tracer.py SPANS.json [qobf arguments ...]

Before the command runs, every public function of the layer modules
(``qobf.cli``, ``qasm``, ``ir``, ``passes``, ``sim``, ``predicates``,
``wrapper``, ``metrics``) is replaced, in its own module and in every module
that imported it by name, with a wrapper that records a span: name, start,
end, parent span and a few attributes (bytes parsed, gates in and out of a
pass, equivalence mode). Spans stay in memory and are written to SPANS.json
when the command ends. The program's own files are not changed.

The exit code is the command's own.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "qasm", "ir", "passes", "sim", "predicates", "wrapper", "metrics")


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    if name == "qasm.parse":
        return {"bytes": len((args[0] if args else kwargs["source"]).encode("utf-8"))}
    if name == "passes.apply_pass":
        circuit = args[1] if len(args) > 1 else kwargs["circuit"]
        return {"gates_in": len(circuit.gates), "gates_out": len(result.gates)}
    return None


def _span_name(name: str, args: tuple, kwargs: dict) -> str:
    if name == "sim.equivalent":
        mode = args[2] if len(args) > 2 else kwargs.get("mode", "statevector")
        return f"{name}[{mode}]"
    return name


def install(spans: list, stack: list) -> None:
    import importlib

    import qobf

    modules = [importlib.import_module(f"qobf.{layer}") for layer in LAYERS]
    traced: dict[int, object] = {}
    for layer, module in zip(LAYERS, modules):
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            traced[id(fn)] = _traced(f"{layer}.{attr}", fn, spans, stack)
    for module in [qobf, *modules]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in traced:
                setattr(module, attr, traced[id(obj)])


def _traced(name: str, fn, spans: list, stack: list):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(index)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = [_span_name(name, args, kwargs), start, end, parent,
                            _attrs(name, args, kwargs, result) if result is not None else None]

    return wrapper


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import qobf.cli

    import_s = time.perf_counter() - start
    spans: list = []
    install(spans, [])
    try:
        return qobf.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
