"""OpenQASM 2.0 subset front end: tokenizer, parser, canonical emitter.

Accepted grammar (a deliberately closed subset; anything else is rejected
with a spanned diagnostic naming the construct):

    program    := header include? statement*
    header     := "OPENQASM" "2" "." "0" ";"
    include    := "include" '"qelib1.inc"' ";"
    statement  := qreg | creg | gate_app | measure | barrier
    qreg       := "qreg" ID "[" INT "]" ";"
    creg       := "creg" ID "[" INT "]" ";"
    gate_app   := GATE operand ("," operand)* ";"
    measure    := "measure" operand "->" operand ";"
    barrier    := "barrier" operand ("," operand)* ";"
    operand    := ID "[" INT "]"

GATE is one of: h x y z s sdg t tdg swap cx cz cy ccx. Operands must be fully
indexed (register broadcast such as ``h q;`` is rejected). ``//`` comments are
skipped; LF and CRLF input are both accepted and LF is emitted. Registers are
flattened to contiguous indices in declaration order.

ID is ``[A-Za-z_][A-Za-z0-9_]*`` and INT is ``[0-9]+``: both are ASCII. Any
other character outside a comment or the include string is an illegal
character, reported with its span.

:func:`parse` reads in one of two ways, chosen by the input. A file with one
whole statement on each line (the header first, blanks and ``//`` comments
anywhere), which is what :func:`emit` writes, is read line by line: each
distinct line is parsed once, a gate or measurement line in the emitter's
form by one pattern and any other by the tokenizer, and a repeated line
costs one dict lookup, so parse time grows with the distinct lines, not
with the file.
Any other file, and any file with an error, is tokenized and parsed whole
from the start; that token parser alone writes diagnostics.
"""

from __future__ import annotations

import re
from contextlib import suppress
from typing import Callable, NamedTuple, NoReturn

from .diagnostics import Diagnostic, SourceSpan
from .ir import ARITY, Circuit, GateApp, GateKind, validate

KEYWORDS = frozenset(
    {"OPENQASM", "include", "qreg", "creg", "measure", "barrier", "gate", "opaque", "if", "reset"}
)

GATE_NAMES: dict[str, GateKind] = {
    k.value: k for k in GateKind if k not in (GateKind.MEASURE, GateKind.BARRIER)
}

_REJECTED = {
    "gate": "user-defined gate unsupported",
    "opaque": "opaque declaration unsupported",
    "if": "classical conditional unsupported",
    "reset": "reset unsupported",
    "OPENQASM": "duplicate OPENQASM header",
}

# Matched against one line at a time, so a string cannot span lines. The
# line's trailing blanks are stripped first: left in, the blank run would
# give one back to the ``illegal`` catch-all. Compiled on first use (``re``
# keeps it), since most commands import this module and parse nothing.
_TOKEN = r"""[ \t\r]*(?:
        (?P<comment>//.*)
      | (?P<symbol>"[^"]*"|->|[][;,.(){}=<>+*-])
      | (?P<integer>[0-9]+)
      | (?P<identifier>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<illegal>.)
    )"""


class Token(NamedTuple):
    kind: str  # "keyword" | "identifier" | "integer" | "symbol"
    lexeme: str
    line: int
    col: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, self.line, self.col + len(self.lexeme) - 1)


class QasmError(Exception):
    """Carries the diagnostics that stopped tokenizing or parsing."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


class _ParseResult(NamedTuple):
    circuit: Circuit | None
    diagnostics: list[Diagnostic]


class ParseResult(_ParseResult):
    """A parsed circuit (None when parsing stopped) and its diagnostics,
    a new empty list unless given."""

    __slots__ = ()

    def __new__(
        cls, circuit: Circuit | None, diagnostics: list[Diagnostic] | None = None
    ) -> "ParseResult":
        return super().__new__(cls, circuit, [] if diagnostics is None else diagnostics)

    @property
    def ok(self) -> bool:
        return self.circuit is not None and not any(d.is_error for d in self.diagnostics)


def tokenize(source: str) -> list[Token]:
    """Lex the source into tokens, skipping whitespace and ``//`` comments.

    Quoted strings (only used by ``include``) are lexed as a single symbol
    token whose lexeme keeps the quotes. Raises QasmError on an illegal
    character, with a span pointing at it.
    """
    tokens: list[Token] = []
    for line, text in enumerate(source.split("\n"), 1):
        _tokenize_line(text.rstrip(" \t\r"), line, tokens)
    return tokens


def _tokenize_line(text: str, line: int, tokens: list[Token]) -> None:
    """Append the tokens of one line, trailing blanks already stripped, to ``tokens``."""
    for match in re.finditer(_TOKEN, text, re.VERBOSE):
        kind = match.lastgroup
        if kind == "comment":
            continue
        lexeme = match[kind]
        col = match.start(kind) + 1
        if kind == "illegal":
            message = (
                "unterminated string literal" if lexeme == '"' else f"illegal character {lexeme!r}"
            )
            raise QasmError([Diagnostic("error", message, SourceSpan(line, col, line, col))])
        if kind == "identifier" and lexeme in KEYWORDS:
            kind = "keyword"
        tokens.append(Token(kind, lexeme, line, col))


class _Skip(Exception):
    """A statement failed: its diagnostic is recorded, the rest is to be skipped."""


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, tuple[int, int]] = {}
        self.n_qubits = 0
        self.n_cbits = 0
        self.gates: list[GateApp] = []

    # --- token helpers -------------------------------------------------

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, lexeme: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.lexeme == lexeme

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def last_span(self) -> SourceSpan:
        if self.tokens:
            idx = min(self.pos, len(self.tokens) - 1)
            return self.tokens[idx].span
        return SourceSpan(1, 1, 1, 1)

    def error(self, message: str, span: SourceSpan | None = None) -> None:
        self.diags.append(Diagnostic("error", message, span or self.last_span()))

    def fail(self, message: str, span: SourceSpan | None = None) -> NoReturn:
        self.error(message, span)
        raise _Skip

    def value(self, tok: Token) -> int | None:
        """An integer token's value, or None and a diagnostic when ``int``
        refuses it (more digits than ``sys.get_int_max_str_digits()``)."""
        try:
            return int(tok.lexeme)
        except ValueError:
            self.error(f"integer too large ({len(tok.lexeme)} digits)", tok.span)
            return None

    def expect(self, kind: str, lexeme: str | None = None) -> Token:
        tok = self.peek()
        if tok is None:
            self.fail(f"unexpected end of input, expected {lexeme or kind}")
        if tok.kind != kind or (lexeme is not None and tok.lexeme != lexeme):
            self.fail(f"expected {lexeme or kind}, found {tok.lexeme!r}", tok.span)
        self.pos += 1
        return tok

    def statement(self, parse: Callable[[], None]) -> None:
        """Run one statement's parser; if it fails, skip the rest of the statement."""
        try:
            parse()
        except _Skip:
            self.skip_statement()

    def skip_statement(self) -> None:
        """Error recovery: skip to just past the next ';' (or matching '}')."""
        depth = 0
        while self.pos < len(self.tokens):
            lexeme = self.advance().lexeme
            if lexeme == "{":
                depth += 1
            elif lexeme == "}":
                if depth <= 1:
                    return
                depth -= 1
            elif lexeme == ";" and depth == 0:
                return

    # --- grammar -------------------------------------------------------

    def parse_program(self) -> None:
        self.statement(self.parse_header)
        if self.at("include"):
            self.statement(self.parse_include)
        while self.peek() is not None:
            self.statement(self.parse_statement)
        if self.n_qubits == 0 and not any(d.is_error for d in self.diags):
            self.error("no quantum register declared", SourceSpan(1, 1, 1, 1))

    def parse_header(self) -> None:
        if not self.at("OPENQASM"):
            self.error("missing 'OPENQASM 2.0;' header")
            return
        self.advance()
        major = self.peek()
        if major is not None and major.kind == "integer" and major.lexeme != "2":
            self.fail(f"OpenQASM {major.lexeme} unsupported; only 2.0 is accepted", major.span)
        self.expect("integer", "2")
        self.expect("symbol", ".")
        self.expect("integer", "0")
        self.expect("symbol", ";")

    def parse_include(self) -> None:
        self.advance()  # 'include'
        tok = self.peek()
        if tok is None or not tok.lexeme.startswith('"'):
            self.fail("expected a quoted include path")
        if tok.lexeme != '"qelib1.inc"':
            self.error(f"unsupported include {tok.lexeme}", tok.span)
        self.advance()
        with suppress(_Skip):  # a missing ';' is reported, but nothing is skipped
            self.expect("symbol", ";")

    def parse_statement(self) -> None:
        tok = self.tokens[self.pos]
        if tok.lexeme in ("qreg", "creg"):
            self.parse_register(tok.lexeme)
        elif tok.lexeme == "measure":
            self.parse_measure()
        elif tok.lexeme == "barrier":
            self.parse_barrier()
        elif tok.lexeme in _REJECTED:
            self.fail(_REJECTED[tok.lexeme], tok.span)
        elif tok.kind == "identifier" and tok.lexeme in GATE_NAMES:
            self.parse_gate_app(GATE_NAMES[tok.lexeme])
        elif tok.kind == "identifier":
            self.fail(f"unsupported gate or statement {tok.lexeme!r}", tok.span)
        else:
            self.fail(f"unexpected {tok.lexeme!r}", tok.span)

    def parse_register(self, which: str) -> None:
        self.advance()
        name_tok = self.expect("identifier")
        self.expect("symbol", "[")
        size_tok = self.expect("integer")
        self.expect("symbol", "]")
        self.expect("symbol", ";")
        size = self.value(size_tok)
        if size is None:
            return
        if size < 1:
            self.error(f"register size must be positive, got {size}", size_tok.span)
            return
        table = self.qregs if which == "qreg" else self.cregs
        if name_tok.lexeme in self.qregs or name_tok.lexeme in self.cregs:
            self.error(f"register {name_tok.lexeme!r} already declared", name_tok.span)
            return
        if which == "qreg":
            table[name_tok.lexeme] = (self.n_qubits, size)
            self.n_qubits += size
        else:
            table[name_tok.lexeme] = (self.n_cbits, size)
            self.n_cbits += size

    def parse_operand(self, classical: bool = False) -> int:
        """A fully indexed register reference, flattened to an absolute index."""
        name_tok = self.expect("identifier")
        table = self.cregs if classical else self.qregs
        regs = "classical" if classical else "quantum"
        if name_tok.lexeme not in table:
            if name_tok.lexeme in (self.qregs | self.cregs):
                self.fail(f"expected a {regs} register, got {name_tok.lexeme!r}", name_tok.span)
            self.fail(f"unknown register {name_tok.lexeme!r}", name_tok.span)
        if not self.at("["):
            self.fail(
                f"broadcast operand unsupported: {name_tok.lexeme!r} must be indexed",
                name_tok.span,
            )
        self.advance()
        idx_tok = self.expect("integer")
        self.expect("symbol", "]")
        offset, size = table[name_tok.lexeme]
        idx = self.value(idx_tok)
        if idx is None:
            raise _Skip
        if idx >= size:
            self.fail(
                f"index {idx} out of range for {name_tok.lexeme}[{size}]", idx_tok.span
            )
        return offset + idx

    def parse_operands(self) -> list[int]:
        """``operand ("," operand)* ";"``, flattened to absolute qubit indices."""
        ops = [self.parse_operand()]
        while self.at(","):
            self.advance()
            ops.append(self.parse_operand())
        self.expect("symbol", ";")
        return ops

    def parse_gate_app(self, kind: GateKind) -> None:
        name_tok = self.advance()
        tok = self.peek()
        if tok is not None and tok.lexeme == "(":
            self.fail(f"parameterized gates unsupported ({name_tok.lexeme})", tok.span)
        operands = self.parse_operands()
        arity = ARITY[kind]
        if len(operands) != arity:
            self.error(
                f"{name_tok.lexeme} expects {arity} operand(s), got {len(operands)}",
                name_tok.span,
            )
            return
        if len(set(operands)) != len(operands):
            self.error("duplicate qubit operand", name_tok.span)
            return
        self.gates.append(GateApp(kind, tuple(operands)))

    def parse_measure(self) -> None:
        self.advance()
        qubit = self.parse_operand()
        self.expect("symbol", "->")
        cbit = self.parse_operand(classical=True)
        self.expect("symbol", ";")
        self.gates.append(GateApp(GateKind.MEASURE, (qubit,), cbit=cbit))

    def parse_barrier(self) -> None:
        head = self.advance()
        operands = self.parse_operands()
        if len(set(operands)) != len(operands):
            self.error("duplicate qubit operand", head.span)
            return
        self.gates.append(GateApp(GateKind.BARRIER, tuple(operands)))


#: the lines :func:`emit` writes for a gate or a measurement: a name, then
#: one to three operands on ``q``, or one on ``q`` and one on ``c``
_CANONICAL = (r"([a-z]+) q\[([0-9]{1,9})\]"
              r"(?:,q\[([0-9]{1,9})\](?:,q\[([0-9]{1,9})\])?| -> c\[([0-9]{1,9})\])?;")


def _canonical_gate(parser: _Parser, name: str, *indices: str | None) -> GateApp | None:
    """The gate of a line that matched ``_CANONICAL``, when the parser
    would read it without a diagnostic; else None, and the token parser
    decides the line."""
    *operands, cbit = indices
    qreg = parser.qregs.get("q")
    if qreg is None:
        return None
    offset, size = qreg
    qubits = tuple(offset + int(i) for i in operands if i is not None)
    if max(qubits) >= offset + size or len(set(qubits)) != len(qubits):
        return None
    if cbit is None:
        kind = GATE_NAMES.get(name)
        return GateApp(kind, qubits) if kind is not None and ARITY[kind] == len(qubits) else None
    creg = parser.cregs.get("c")
    if name != "measure" or creg is None or int(cbit) >= creg[1]:
        return None
    return GateApp(GateKind.MEASURE, qubits, cbit=creg[0] + int(cbit))


def _read_lines(source: str) -> Circuit | None:
    """The circuit of a file written one statement per line, or None.

    Lines are split and stripped as :func:`tokenize` does, and the parser's
    own statement methods must read each line as exactly one statement
    without a diagnostic, the header first and an optional include next. A
    gate or measurement line that matches ``_CANONICAL`` skips the
    tokenizer when :func:`_canonical_gate` reads it as the parser would.
    Otherwise, or with no ``qreg``, this gives None and :func:`parse` runs
    the token parser over the whole file. A line that gives a gate or
    nothing is parsed once per distinct text, and a repeat adds the same
    frozen GateApp: registers are only ever added, so a line keeps its
    meaning further down. Declarations, the header and the include are
    parsed every time, so a repeated one is rejected.
    """
    parser = _Parser([])
    gates = parser.gates
    memo: dict[str, GateApp | None] = {}  # line -> the gate it gives, if any
    statements = 0
    canonical = re.compile(_CANONICAL).fullmatch
    for text in source.split("\n"):
        text = text.rstrip(" \t\r")
        gate = memo.get(text, False)
        if gate is not False:
            if gate is not None:
                gates.append(gate)
            continue
        match = canonical(text) if statements else None
        if match:
            gate = _canonical_gate(parser, *match.groups())
            if gate is not None:
                gates.append(gate)
                memo[text] = gate
                statements += 1
                continue
        parser.tokens, parser.pos = [], 0
        try:
            _tokenize_line(text, 1, parser.tokens)
            if not parser.tokens:
                memo[text] = None
                continue
            head = parser.tokens[0].lexeme
            if not statements:
                parser.parse_header()
            elif statements == 1 and head == "include":
                parser.parse_include()
            else:
                parser.parse_statement()
        except (QasmError, _Skip):
            return None
        if parser.diags or parser.pos != len(parser.tokens):
            return None
        statements += 1
        if head not in ("OPENQASM", "include", "qreg", "creg"):  # a gate, measure or barrier
            memo[text] = gates[-1]
    if parser.n_qubits == 0:
        return None
    return Circuit(parser.n_qubits, parser.n_cbits, tuple(gates))


def parse(source: str) -> ParseResult:
    """Parse QASM text into a Circuit, or into error diagnostics.

    Bad input comes back as spanned diagnostics in the result, and
    ``result.circuit`` is None whenever any error occurred; this never raises.
    An integer too long for ``int`` (over 4300 digits by default) is an
    error on its token.
    Comments (including emitted composite-box markers) are discarded, so
    parse(emit(c)) reproduces flatten(c).

    A file written one statement per line, as :func:`emit` writes, is read
    line by line, each distinct line once (``_read_lines``), so its cost
    grows with its distinct lines. Any other file, and every file with an
    error, goes through the token parser, which alone writes diagnostics.
    """
    circuit = _read_lines(source)
    if circuit is not None:
        return ParseResult(circuit)
    return _token_parse(source)


def _token_parse(source: str) -> ParseResult:
    """:func:`parse` by tokenizing the whole source and descending through
    its tokens: the path for every file with an error, and the reference
    the line reader is tested against."""
    try:
        tokens = tokenize(source)
    except QasmError as exc:
        return ParseResult(None, exc.diagnostics)
    parser = _Parser(tokens)
    parser.parse_program()
    if any(d.is_error for d in parser.diags):
        return ParseResult(None, parser.diags)
    circuit = Circuit(
        n_qubits=parser.n_qubits,
        n_cbits=parser.n_cbits,
        gates=tuple(parser.gates),
    )
    return ParseResult(circuit, parser.diags)


def loads(source: str) -> Circuit:
    """Parse, raising QasmError on any error diagnostic."""
    result = parse(source)
    if result.circuit is None:
        raise QasmError(result.diagnostics)
    return result.circuit


def _statement(g: GateApp) -> str:
    if g.kind is GateKind.MEASURE:
        return f"measure q[{g.qubits[0]}] -> c[{g.cbit}];"
    return f"{g.kind.value} {','.join(f'q[{q}]' for q in g.qubits)};"


def emit(circuit: Circuit, *, _checked: bool = False) -> str:
    """Canonical QASM text: one statement per line, LF endings, registers
    named q/c. Composite boxes are emitted flattened between a
    ``// begin composite grp<id>`` / ``// end composite`` comment pair, named
    by box id; the markers are regenerated from IR structure and are
    discarded on re-parse, so emit/parse round trips to the flattened circuit.

    An invalid circuit raises ValueError. ``_checked`` skips that check for
    a caller that has just run :func:`validate` on the circuit itself.
    """
    problems = [] if _checked else [d for d in validate(circuit) if d.is_error]
    if problems:
        raise ValueError(
            "refusing to emit an invalid circuit: " + "; ".join(d.message for d in problems)
        )
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.n_qubits}];"]
    if circuit.n_cbits > 0:
        lines.append(f"creg c[{circuit.n_cbits}];")
    statements: dict[tuple, str] = {}  # each distinct statement, formatted once
    open_box: int | None = None
    for g in circuit.gates:
        if g.box != open_box:
            if open_box is not None:
                lines.append("// end composite")
            if g.box is not None:
                lines.append(f"// begin composite grp{g.box}")
            open_box = g.box
        key = g.kind, g.qubits, g.cbit
        line = statements.get(key)
        if line is None:
            line = statements[key] = _statement(g)
        lines.append(line)
    if open_box is not None:
        lines.append("// end composite")
    return "\n".join(lines) + "\n"
