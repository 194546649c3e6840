"""Source-to-source control-flow wrapping behind quantum opaque predicates.

``wrap`` takes a payload and emits a program, built from a data-file
template, whose execution path is guarded by one of the predicate circuits.
Each branch body sits directly under its ``if``/``elif``/``else`` guard at
module scope, so the payload's names bind in the module as they do when it
runs alone. The branches are the rows the predicate's generator declares,
and nothing here names a predicate kind. Live branches carry the payload
byte-exact (modulo one uniform indent prefix on each line, where lines end
as Python's tokenizer ends them), dead branches get generated decoys shaped
like the payload, and restart branches get restart logic. A manifest
describes every branch so the whole construction can be checked, and
branches resolved, without ever executing the emitted program.

The payload is handled as text. ``wrap`` tokenizes it once, to refuse what
wrapping would change: a string literal across lines and a ``from
__future__`` import. Only shroud parses it (with :mod:`ast`), to cut it at
the top-level statement boundary nearest its middle line.

The predicates, the QASM emitter, :mod:`hashlib`, :mod:`tokenize` and
:mod:`ast` load inside the functions that use them, so listing templates
loads none of them.

Templates are text files with two required placeholders,
{PREDICATE_CIRCUIT_QASM} and {BRANCH_TABLE}, and one optional one,
{EVALUATOR}, which receives the source of :mod:`qobf._kernel` byte for byte:
a template that has it evaluates its predicate with the standard library
alone.
"""

from __future__ import annotations

import itertools
import keyword
import os
import random
import re
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple

if TYPE_CHECKING:
    from .predicates import BranchSemantics, BranchSpec

MANIFEST_SCHEMA = "qobf.wrap-manifest/1"
TEMPLATE_ENV_VAR = "QOBF_TEMPLATE_DIR"
INDENT = "    "
#: closes every branch body; a statement, so an empty body still compiles
END_MARKER = "pass  # :: end branch"

_PLACEHOLDERS = frozenset({"PREDICATE_CIRCUIT_QASM", "BRANCH_TABLE"})
_PLACEHOLDER_RE = re.compile(r"\{(PREDICATE_CIRCUIT_QASM|BRANCH_TABLE|EVALUATOR)\}")
#: one line with its ending. Lines end where Python's tokenizer ends them, at
#: "\n", "\r\n" or "\r"; ``str.splitlines`` also ends them at "\f", "\v",
#: "\x1c"-"\x1e", "\x85", "\u2028" and "\u2029", which may sit in a literal
_LINE_RE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
#: the exact kernel a template's {EVALUATOR} placeholder receives
_KERNEL = Path(__file__).with_name("_kernel.py")


class WrapError(ValueError):
    """Invalid wrap request: bad template, policy/kind mismatch, marker
    collision, or a payload that wrapping would change."""


class TemplateWarning(UserWarning):
    pass


class _SourceBlock(NamedTuple):
    text: str


class SourceBlock(_SourceBlock):
    """The payload: raw source text held byte-exact."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SourceBlock":
        self = super().__new__(cls, *args, **kwargs)
        if not self.text:
            raise WrapError("payload text must be non-empty")
        return self

    @property
    def line_count(self) -> int:
        return len(_lines(self.text))

    @property
    def sha256(self) -> str:
        import hashlib

        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


class _DecoyPolicy(NamedTuple):
    mode: str  # duplicate_payload | dead_decoy | restart
    decoy_seed: int = 0
    decoy_statement_count: int = 2


class DecoyPolicy(_DecoyPolicy):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "DecoyPolicy":
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in ("duplicate_payload", "dead_decoy", "restart"):
            raise WrapError(f"unknown decoy mode {self.mode!r}")
        if self.decoy_seed < 0:
            raise WrapError("decoy_seed must be non-negative")
        if self.decoy_statement_count < 0:
            raise WrapError("decoy_statement_count must be non-negative")
        return self


class Template(NamedTuple):
    id: str
    text: str
    description: str


class WrapManifest(NamedTuple):
    template: str
    predicate_kind: str
    predicate_params: Mapping[str, int]
    payload_sha256: str
    payload_newline_terminated: bool
    payload_split: tuple[str, ...]
    indent: str
    key_cbits: tuple[int, ...]
    policy: DecoyPolicy
    branches: tuple[BranchSpec, ...]

    def to_dict(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "template": self.template,
            "predicate": {
                "kind": self.predicate_kind,
                "params": dict(self.predicate_params),
            },
            "payload": {
                "sha256": self.payload_sha256,
                "newline_terminated": self.payload_newline_terminated,
                "split": list(self.payload_split),
            },
            "indent": self.indent,
            "key_cbits": list(self.key_cbits),
            "policy": {
                "mode": self.policy.mode,
                "decoy_seed": self.policy.decoy_seed,
                "decoy_statement_count": self.policy.decoy_statement_count,
            },
            "branches": [
                {"id": b.id, "role": b.role, "outcome": b.outcome} for b in self.branches
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WrapManifest":
        from .predicates import BranchSpec

        if data.get("schema") != MANIFEST_SCHEMA:
            raise WrapError(f"unsupported manifest schema {data.get('schema')!r}")
        return cls(
            template=data["template"],
            predicate_kind=data["predicate"]["kind"],
            predicate_params=dict(data["predicate"]["params"]),
            payload_sha256=data["payload"]["sha256"],
            payload_newline_terminated=data["payload"]["newline_terminated"],
            payload_split=tuple(data["payload"]["split"]),
            indent=data["indent"],
            key_cbits=tuple(data["key_cbits"]),
            policy=DecoyPolicy(**data["policy"]),
            branches=tuple(BranchSpec(**b) for b in data["branches"]),
        )


# --------------------------------------------------------------------------
# templates
# --------------------------------------------------------------------------


def _template_dir(override: str | Path | None = None) -> Path:
    if override is not None:
        return Path(override)
    env = os.environ.get(TEMPLATE_ENV_VAR)
    if env:
        return Path(env)
    return Path(__file__).parent / "data" / "templates"


def _read_description(text: str) -> str:
    parts: list[str] = []
    collecting = False
    for line in text.splitlines():
        if line.startswith("# description:"):
            parts.append(line[len("# description:") :].strip())
            collecting = True
        elif collecting and line.startswith("# "):
            parts.append(line[2:].strip())
        elif collecting:
            break
    return " ".join(parts)


def list_templates(template_dir: str | Path | None = None) -> list[tuple[str, str]]:
    """(id, description) for every template file found; missing override
    directories yield an empty list plus a warning instead of an error."""
    directory = _template_dir(template_dir)
    if not directory.is_dir():
        warnings.warn(f"template directory {directory} does not exist", TemplateWarning)
        return []
    out = []
    for path in sorted(directory.glob("*.tmpl")):
        out.append((path.stem, _read_description(path.read_text(encoding="utf-8"))))
    return out


def load_template(template_id: str, template_dir: str | Path | None = None) -> Template:
    path = _template_dir(template_dir) / f"{template_id}.tmpl"
    if not path.is_file():
        raise WrapError(f"unknown template {template_id!r} (no file {path})")
    text = path.read_text(encoding="utf-8")
    found = set(_PLACEHOLDER_RE.findall(text)) - {"EVALUATOR"}
    if found != _PLACEHOLDERS:
        missing = sorted(_PLACEHOLDERS - found)
        raise WrapError(f"template {template_id!r} placeholder set wrong; missing {missing}")
    return Template(template_id, text, _read_description(text))


# --------------------------------------------------------------------------
# decoys
# --------------------------------------------------------------------------

_IDENT_RE = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")
_NUMBER_RE = re.compile(r"(?<![\w.])(\d+\.\d+|\d+)(?![\w.])")
_PY_KEYWORDS = frozenset(keyword.kwlist)


def generate_decoy(src: SourceBlock, policy: DecoyPolicy) -> str:
    """Dead-code text shaped like the payload but never byte-equal to it.

    Identifiers are renamed through a seeded permutation of the payload's own
    identifier set (keywords untouched), numeric literals are perturbed, and
    the line count stays within decoy_statement_count of the payload's.
    Deterministic under decoy_seed.
    """
    if policy.mode != "dead_decoy":
        raise WrapError("decoy generation requires a policy with mode='dead_decoy'")
    rng = random.Random(policy.decoy_seed)
    text = src.text
    idents = sorted(set(_IDENT_RE.findall(text)) - _PY_KEYWORDS)
    shuffled = idents[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(idents, shuffled))

    def rename(m: re.Match) -> str:
        return mapping.get(m.group(0), m.group(0))

    out = _IDENT_RE.sub(rename, text)

    def perturb(m: re.Match) -> str:
        lit = m.group(0)
        if "." in lit:
            return repr(float(lit) + rng.randint(1, 9))
        return str(int(lit) + rng.randint(1, 9))

    out = _NUMBER_RE.sub(perturb, out)
    if out == text:
        filler = f"_d{rng.randrange(1 << 16)} = {rng.randrange(1 << 16)}"
        lines = out.split("\n")
        if policy.decoy_statement_count >= 1:
            lines.append(filler)
        else:
            lines[0] = filler
        out = "\n".join(lines)
    # never let a decoy line collide with the branch end marker
    return "".join(
        END_MARKER + " _" + ln[len(END_MARKER):] if _is_end_marker(ln) else ln
        for ln in _lines(out)
    )


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------


def _lines(text: str) -> list[str]:
    """``text`` cut into lines that keep their endings (see ``_LINE_RE``), as
    emission, extraction and the end-marker checks all cut it."""
    return _LINE_RE.findall(text)


def _branch(guard: str, branch: BranchSpec, body_text: str) -> str:
    body = "".join(INDENT + ln for ln in _lines(body_text))
    if body_text and not body_text.endswith("\n"):
        body += "\n"
    return f"{guard}:  # branch {branch.id} [{branch.role}]\n{body}{INDENT}{END_MARKER}"


def _key_expr(key_cbits: tuple[int, ...]) -> str:
    desc = sorted(key_cbits, reverse=True)
    inner = ", ".join(str(b) for b in desc)
    if len(desc) == 1:
        inner += ","
    return (
        '_key = "".join(_outcome[len(_outcome) - 1 - _b] for _b in (' + inner + "))"
    )


def _branch_table(sem: BranchSemantics, bodies: Mapping[str, str]) -> str:
    from .predicates import ELSE_KEY

    lines = ["_outcome, _amplitudes = _evaluate_predicate()"]
    if sem.kind == "amplitude_read":
        for i, branch in enumerate(sem.branches):
            lines.append(_branch(f"if abs(_amplitudes[{i}]) > 1e-09", branch, bodies[branch.id]))
        return "\n".join(lines)
    lines.append(_key_expr(sem.key_cbits))
    explicit = [b for b in sem.branches if b.outcome != ELSE_KEY]
    fallback = [b for b in sem.branches if b.outcome == ELSE_KEY]
    for i, branch in enumerate(explicit):
        guard = "if" if i == 0 else "elif"
        lines.append(_branch(f'{guard} _key == "{branch.outcome}"', branch, bodies[branch.id]))
    for branch in fallback:
        lines.append(_branch("else", branch, bodies[branch.id]))
    return "\n".join(lines)


def _is_end_marker(line: str) -> bool:
    """Is ``line``, one of :func:`_lines`' lines, the branch end marker?"""
    return line.rstrip("\r\n") == END_MARKER


def _check_marker_collision(text: str) -> None:
    """Refuse a payload with a line equal to the branch end marker, which
    would close its branch early."""
    if any(_is_end_marker(line) for line in _lines(text)):
        raise WrapError("payload collides with template markers (payload)")


def _check_wrappable(text: str) -> None:
    """Refuse a payload that wrapping would change. A string literal across
    lines would gain the branch indent on its later lines, so its value
    would change; a ``from __future__`` import must open the program, and
    the template's code comes first. The payload is tokenized as
    :func:`_lines` cuts it; one the tokenizer rejects stays opaque text."""
    import tokenize

    fstring_start = getattr(tokenize, "FSTRING_START", None)  # Python 3.12+
    fstring_end = getattr(tokenize, "FSTRING_END", None)
    lines = iter(_lines(text))
    try:
        tokens = list(tokenize.generate_tokens(lambda: next(lines, "")))
    except (tokenize.TokenError, SyntaxError):
        return
    opened: list[int] = []  # the rows where the open f-strings start
    starts_line = True
    for tok, after in zip(tokens, tokens[1:]):
        row = tok.start[0]
        if tok.type == fstring_start:
            opened.append(row)
        elif tok.type == fstring_end:
            row = opened.pop()
        if tok.type in (tokenize.STRING, fstring_end) and tok.end[0] != row:
            raise WrapError(
                f"payload line {row}: a string literal across lines would gain the branch indent"
            )
        if starts_line and (tok.string, after.string) == ("from", "__future__"):
            raise WrapError(
                f"payload line {row}: a from __future__ import must open the program,"
                " and the template's code comes first"
            )
        starts_line = tok.type == tokenize.NEWLINE or starts_line and tok.type in (
            tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT
        )


def _shroud_split(text: str) -> tuple[str, str]:
    """Cut the payload at the top-level statement start nearest its middle
    line, so both halves are whole statements. A decorated definition starts
    at its first decorator. A payload that does not parse, or has one
    statement, stays whole in the first half."""
    import ast

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # SyntaxWarnings are for the payload's own run
            body = ast.parse(text).body
    except (SyntaxError, ValueError):
        return text, ""
    # offset of each line; ast counts lines as _lines cuts them
    lines = _lines(text)
    starts = list(itertools.accumulate(map(len, lines), initial=0))
    cuts = []
    for prev, stmt in zip(body, body[1:]):
        line = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
        # not inside a line, and after "\n", the line end emission keeps
        if prev.end_lineno < line and text[starts[line - 1] - 1] == "\n":
            cuts.append(line - 1)
    if not cuts:
        return text, ""
    cut = starts[min(cuts, key=lambda c: abs(2 * c - len(lines)))]
    return text[:cut], text[cut:]


def wrap(
    src: SourceBlock,
    kind: str,
    params: Mapping[str, int] | None = None,
    policy: DecoyPolicy | None = None,
    template_id: str = "qobf-inline",
    template_dir: str | Path | None = None,
) -> tuple[str, WrapManifest]:
    """Emit a predicate-guarded program around the payload.

    Every branch body sits under its guard at module scope. Live branches
    carry the payload byte-exact under one uniform indent (for shroud it is
    cut at a top-level statement boundary across the two always-live
    branches). Dead branches carry seeded decoys; restart branches (the
    multi-pair false branch) carry restart logic. Returns the emitted
    program text and the manifest describing every branch.
    """
    from .predicates import REQUIRED_MODE, make_predicate
    from .qasm import emit

    template = load_template(template_id, template_dir)
    pred = make_predicate(kind, params)
    policy = policy or DecoyPolicy(mode=REQUIRED_MODE[kind])
    if policy.mode != REQUIRED_MODE[kind]:
        raise WrapError(
            f"policy mode {policy.mode!r} is invalid for kind {kind!r}"
            f" (expected {REQUIRED_MODE[kind]!r})"
        )
    _check_marker_collision(src.text)
    _check_wrappable(src.text)
    sem = pred.semantics
    live = [b for b in sem.branches if b.role == "live"]
    if sem.kind == "amplitude_read":
        bodies = dict(zip((b.id for b in live), _shroud_split(src.text)))
        payload_split = tuple(b.id for b in live)
    else:
        bodies = {b.id: src.text for b in live}
        payload_split = (live[0].id,)
    for i, branch in enumerate(sem.branches):
        if branch.role == "restart":
            bodies[branch.id] = "_restart()\n"
        elif branch.role == "dead":
            decoy_policy = DecoyPolicy(
                mode="dead_decoy",
                decoy_seed=policy.decoy_seed + i,
                decoy_statement_count=policy.decoy_statement_count,
            )
            # generate_decoy rewrites every line equal to the end marker
            bodies[branch.id] = generate_decoy(src, decoy_policy)
    fills = {
        "PREDICATE_CIRCUIT_QASM": emit(pred.circuit),
        "BRANCH_TABLE": _branch_table(sem, bodies),
        "EVALUATOR": _KERNEL.read_text(encoding="utf-8"),
    }
    emitted = _PLACEHOLDER_RE.sub(lambda m: fills[m.group(1)], template.text)
    manifest = WrapManifest(
        template=template.id,
        predicate_kind=kind,
        predicate_params=dict(pred.params),
        payload_sha256=src.sha256,
        payload_newline_terminated=src.text.endswith("\n"),
        payload_split=payload_split,
        indent=INDENT,
        key_cbits=sem.key_cbits,
        policy=policy,
        branches=sem.branches,
    )
    return emitted, manifest


# --------------------------------------------------------------------------
# inspection without execution
# --------------------------------------------------------------------------


def extract_branch_body(emitted: str, manifest: WrapManifest, branch_id: str) -> str:
    """Recover one branch's body text: the lines between its guard line and its
    end marker, with the uniform indent removed. Exact inverse of emission
    except for the single newline added when a payload did not end with one.
    Only the lines without the indent, the guards among them, are searched
    for the guard, so a body line that quotes a guard is not taken for one.
    """
    indent = manifest.indent
    needle = f"# branch {branch_id} ["
    lines = _lines(emitted)
    starts = [i for i, ln in enumerate(lines) if not ln.startswith(indent) and needle in ln]
    if len(starts) != 1:
        raise WrapError(f"branch {branch_id!r} appears {len(starts)} times in emitted text")
    body: list[str] = []
    for ln in lines[starts[0] + 1 :]:
        if not ln.startswith(indent):
            raise WrapError(f"branch {branch_id!r} body line lost its indent: {ln!r}")
        if _is_end_marker(ln[len(indent) :]):
            return "".join(body)
        body.append(ln[len(indent) :])
    raise WrapError(f"branch {branch_id!r} has no end marker")


def extract_payload(emitted: str, manifest: WrapManifest) -> str:
    """Reassemble the original payload bytes from the live branches."""
    text = "".join(
        extract_branch_body(emitted, manifest, bid) for bid in manifest.payload_split
    )
    if not manifest.payload_newline_terminated:
        if not text.endswith("\n"):
            raise WrapError("expected the emission-added trailing newline")
        text = text[:-1]
    return text


def resolve_branches(manifest: WrapManifest) -> dict[str, float]:
    """Exact execution probability of every branch, via the in-process oracle.

    The predicate is rebuilt from the manifest, its exact outcome
    distribution marginalized onto the branch key in exact arithmetic, and
    each branch's probability rounded to a float once; emitted programs are
    never executed. Shroud branches are always-live and both report 1.0.
    """
    from .predicates import _branch_probabilities, make_predicate

    pred = make_predicate(manifest.predicate_kind, manifest.predicate_params)
    if pred.semantics.kind == "amplitude_read":
        return {b.id: 1.0 for b in manifest.branches}
    probs = _branch_probabilities(pred.circuit, manifest.key_cbits, manifest.branches)
    return {branch_id: float(p) for branch_id, p in probs.items()}
