import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qobf.qasm
from qobf.ir import Circuit, GateApp, GateKind, flatten, same_gates
from qobf.passes import ObfuscationConfig, apply_pass
from qobf.qasm import (
    ParseResult,
    QasmError,
    _read_lines,
    _token_parse,
    _tokenize_line,
    emit,
    loads,
    parse,
    tokenize,
)
from strategies import circuits, random_circuit

K = GateKind

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def wrap_src(body: str) -> str:
    return HEADER + body


class TestTokenize:
    def test_single_statement(self):
        toks = tokenize("h q[0];")
        assert [(t.kind, t.lexeme) for t in toks] == [
            ("identifier", "h"),
            ("identifier", "q"),
            ("symbol", "["),
            ("integer", "0"),
            ("symbol", "]"),
            ("symbol", ";"),
        ]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_two_statement_count(self):
        # hand-tokenized: qreg q [ 2 ] ; cx q [ 0 ] , q [ 1 ] ;
        toks = tokenize("qreg q[2]; cx q[0],q[1];")
        assert [t.lexeme for t in toks] == [
            "qreg", "q", "[", "2", "]", ";",
            "cx", "q", "[", "0", "]", ",", "q", "[", "1", "]", ";",
        ]
        assert len(toks) == 17

    def test_comments_skipped(self):
        toks = tokenize("h q[0]; // a comment\n// whole line\nx q[0];")
        assert [t.lexeme for t in toks if t.kind == "identifier"] == ["h", "q", "x", "q"]

    def test_keywords_classified(self):
        toks = tokenize("qreg measure barrier OPENQASM")
        assert all(t.kind == "keyword" for t in toks)

    def test_positions(self):
        toks = tokenize("h q[0];\n x q[1];")
        x = next(t for t in toks if t.lexeme == "x")
        assert (x.line, x.col) == (2, 2)

    def test_illegal_character(self):
        with pytest.raises(QasmError) as exc:
            tokenize("h q[0]; @")
        diag = exc.value.diagnostics[0]
        assert "illegal character" in diag.message
        assert diag.span is not None
        assert (diag.span.start_line, diag.span.start_col) == (1, 9)

    def test_arrow_is_one_token(self):
        toks = tokenize("measure q[0] -> c[0];")
        assert any(t.lexeme == "->" for t in toks)

    def test_crlf_accepted(self):
        toks = tokenize("h q[0];\r\nx q[1];\r\n")
        assert [t.lexeme for t in toks if t.kind == "identifier"][::2] == ["h", "x"]

    def test_non_ascii_identifier_is_illegal(self):
        with pytest.raises(QasmError) as exc:
            tokenize("h é[0];")
        diag = exc.value.diagnostics[0]
        assert diag.message == "illegal character 'é'"
        assert (diag.span.start_line, diag.span.start_col) == (1, 3)


class TestParse:
    def test_minimal_circuit(self):
        result = parse(wrap_src("qreg q[1];\nh q[0];\n"))
        assert result.ok
        assert result.circuit.n_qubits == 1
        assert [g.kind for g in result.circuit.gates] == [K.H]

    def test_bell_pair(self):
        result = parse(wrap_src("qreg q[2];\nh q[0];\ncx q[0],q[1];\n"))
        assert result.ok
        assert [g.signature for g in result.circuit.gates] == [
            (K.H, (0,), None),
            (K.CX, (0, 1), None),
        ]

    def test_include_optional(self):
        assert parse("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n").ok

    def test_measure_and_barrier(self):
        result = parse(
            wrap_src("qreg q[2];\ncreg c[2];\nbarrier q[0],q[1];\nmeasure q[0] -> c[1];\n")
        )
        assert result.ok
        kinds = [g.kind for g in result.circuit.gates]
        assert kinds == [K.BARRIER, K.MEASURE]
        assert result.circuit.gates[1].cbit == 1

    def test_registers_flattened_in_order(self):
        result = parse(wrap_src("qreg a[2];\nqreg b[2];\ncx a[1],b[0];\n"))
        assert result.ok
        assert result.circuit.n_qubits == 4
        assert result.circuit.gates[0].qubits == (1, 2)

    def test_gate_order_is_textual_order(self):
        body = "qreg q[3];\n" + "".join(f"h q[{i}];\n" for i in (2, 0, 1))
        result = parse(wrap_src(body))
        assert [g.qubits[0] for g in result.circuit.gates] == [2, 0, 1]


REJECTED = [
    ("gate foo a { x a; }", "user-defined gate unsupported"),
    ("opaque foo a;", "opaque declaration unsupported"),
    ("if (c == 0) x q[0];", "classical conditional unsupported"),
    ("reset q[0];", "reset unsupported"),
    ("h q;", "broadcast operand unsupported"),
    ("rx(0.5) q[0];", "unsupported gate or statement 'rx'"),
    ("h q[5];", "out of range"),
    ("cx q[0],q[0];", "duplicate qubit operand"),
    ("u3 q[0];", "unsupported gate or statement"),
]


class TestRejection:
    @pytest.mark.parametrize("body,needle", REJECTED)
    def test_rejected_with_spanned_diagnostic(self, body, needle):
        source = wrap_src("qreg q[2];\ncreg c[2];\n" + body + "\n")
        result = parse(source)
        assert result.circuit is None
        errors = [d for d in result.diagnostics if d.is_error]
        assert errors, f"no error for {body!r}"
        assert any(needle in d.message for d in errors)
        lines = source.split("\n")
        for d in errors:
            assert d.span is not None
            assert 1 <= d.span.start_line <= len(lines)
            assert d.span.start_col <= len(lines[d.span.start_line - 1]) + 1

    def test_openqasm3_header(self):
        result = parse('OPENQASM 3.0;\nqubit[2] q;\n')
        assert result.circuit is None
        assert any("OpenQASM 3 unsupported" in d.message for d in result.diagnostics)

    def test_missing_header(self):
        result = parse("qreg q[1];\nh q[0];\n")
        assert result.circuit is None
        assert any("OPENQASM 2.0" in d.message for d in result.diagnostics)

    def test_no_qreg(self):
        result = parse("OPENQASM 2.0;\n")
        assert result.circuit is None
        assert any("no quantum register" in d.message for d in result.diagnostics)

    def test_wrong_include(self):
        result = parse('OPENQASM 2.0;\ninclude "other.inc";\nqreg q[1];\n')
        assert result.circuit is None
        assert any("unsupported include" in d.message for d in result.diagnostics)

    def test_multiple_errors_collected(self):
        result = parse(wrap_src("qreg q[1];\nreset q[0];\nopaque foo a;\n"))
        assert len([d for d in result.diagnostics if d.is_error]) == 2

    @given(st.text())
    @example("qreg q[²];")
    @example("qreg q[٣];")
    @example("qreg é[2];")
    @example(f"qreg q[{'9' * 5000}];")
    @example(f"qreg q[2];\nh q[{'9' * 5000}];")
    def test_parse_never_raises(self, body):
        """Any text, including integers past ``int``'s 4300-digit limit."""
        for source in (body, wrap_src(body)):
            result = parse(source)
            assert isinstance(result, ParseResult)
            lines = source.split("\n")
            for span in (d.span for d in result.diagnostics):
                for line, col in ((span.start_line, span.start_col), (span.end_line, span.end_col)):
                    assert 1 <= line <= len(lines)
                    assert 1 <= col <= len(lines[line - 1]) + 1
            try:
                tokens = tokenize(source)
            except QasmError:
                assert result.circuit is None
                continue
            # Identifiers and integers are ASCII; only a quoted string may not be.
            assert all(t.lexeme.isascii() for t in tokens if not t.lexeme.startswith('"'))

    @pytest.mark.parametrize(
        "body, col",
        [(f"qreg q[{'9' * 5000}];", 8), (f"qreg q[2];\nmeasure q[{'9' * 5000}] -> q[0];", 11)],
        ids=["register", "index"],
    )
    def test_integer_past_int_limit_is_diagnostic(self, body, col):
        result = parse(wrap_src(body))
        assert result.circuit is None
        first = result.diagnostics[0]
        assert first.message == "integer too large (5000 digits)"
        assert (first.span.start_col, first.span.end_col) == (col, col + 4999)

    def test_loads_raises(self):
        with pytest.raises(QasmError):
            loads("OPENQASM 2.0;\nqreg q[1];\nh q;\n")


class TestEmit:
    def test_canonical_form(self):
        c = Circuit(1, 0, (GateApp(K.H, (0,)),))
        assert emit(c) == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\n'

    def test_measure_form(self):
        c = Circuit(1, 1, (GateApp(K.MEASURE, (0,), cbit=0),))
        assert emit(c).endswith("creg c[1];\nmeasure q[0] -> c[0];\n")

    def test_boxes_emitted_as_comment_pairs(self):
        c = Circuit(
            1,
            0,
            (
                GateApp(K.H, (0,), box=0),
                GateApp(K.X, (0,), box=0),
                GateApp(K.Z, (0,)),
            ),
        )
        text = emit(c)
        assert "// begin composite grp0\nh q[0];\nx q[0];\n// end composite\nz q[0];\n" in text
        reparsed = parse(text)
        assert reparsed.ok
        assert same_gates(reparsed.circuit, flatten(c))

    def test_rejects_invalid_circuit(self):
        with pytest.raises(ValueError, match="refusing to emit"):
            emit(Circuit(1, 0, (GateApp(K.CX, (0, 0)),)))


class TestRoundTrip:
    def test_seeded_random_circuits(self):
        rng = random.Random(20240817)
        for _ in range(300):
            c = random_circuit(rng, measure=True, barriers=True)
            result = parse(emit(c))
            assert result.ok
            assert same_gates(result.circuit, flatten(c))

    @given(circuits(measure=True))
    @settings(max_examples=150)
    def test_round_trip_property(self, c):
        result = parse(emit(c))
        assert result.ok
        assert same_gates(result.circuit, flatten(c))

    @given(circuits(measure=True))
    @settings(max_examples=100)
    def test_emit_idempotent_after_one_pass(self, c):
        once = emit(parse(emit(c)).circuit)
        twice = emit(parse(once).circuit)
        assert once == twice

    def test_fixture_files_normal_form(self, fixtures):
        for c in fixtures.values():
            text = emit(c)
            assert emit(parse(text).circuit) == text


# A small file in the emitter's form, and lines to splice into it: each is
# valid somewhere, or fails in a way the line reader must leave to the token
# parser.
MUTATION_BASE = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[2];\n'
    "// begin composite aux\nh q[0];\ncx q[0],q[1];\n// end composite\n"
    "ccx q[0],q[1],q[2];\nh q[0];\nbarrier q[0],q[2];\nt q[2];\n"
    "measure q[0] -> c[0];\nmeasure q[2] -> c[1];\n"
)
MUTATION_LINES = [
    "", "// note", "h q[0];", "x q[2];", "cx q[1],q[2];", "swap q[2],q[1];", "h q[01];",
    "h q[1234567890];", "h q[3];", "cx q[0],q[0];", "cx q[0];", "barrier q[1],q[1];",
    "measure q[1] -> c[0];", "measure q[1] -> q[0];", "measure c[0] -> c[1];",
    "qreg r[2];", "creg d[1];", "qreg q[2];", "qreg gate[2];", "qreg h[2];", "h h[0];",
    "qreg r[0];", "OPENQASM 2.0;", 'include "qelib1.inc";', "h q[0]; x q[1];", "cx q[0],",
    "q[1];", "h q;", "rx(0.5) q[0];", "reset q[0];", "\t h\tq [ 0 ] ; // c", "x q[1];\r",
    "h q[0];\u2028", "t\u2028q[0];", "h é[0];", "h q[0]// ;", "u3 q[0];", "measure q[1]->c[1];",
]


@st.composite
def mutated_sources(draw):
    """MUTATION_BASE with one to three line-level edits: a line replaced,
    inserted, deleted, duplicated or split, two lines joined, or a
    character changed."""
    lines = MUTATION_BASE.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "duplicate", "split",
                                     "join", "char"]))
        if edit == "replace":
            lines[at] = draw(st.sampled_from(MUTATION_LINES))
        elif edit == "insert":
            lines.insert(at, draw(st.sampled_from(MUTATION_LINES)))
        elif edit == "delete" and len(lines) > 1:
            del lines[at]
        elif edit == "duplicate":
            lines.insert(at, lines[at])
        elif edit == "split":
            cut = draw(st.integers(0, len(lines[at])))
            lines[at:at + 1] = [lines[at][:cut], lines[at][cut:]]
        elif edit == "join" and at + 1 < len(lines):
            lines[at:at + 2] = [lines[at] + draw(st.sampled_from(["", " ", "\t"])) + lines[at + 1]]
        elif edit == "char" and lines[at]:
            i = draw(st.integers(0, len(lines[at]) - 1))
            char = draw(st.sampled_from(list(" \t\r;,.[]()->/\"0129qchxz_é\u2028")))
            lines[at] = lines[at][:i] + char + lines[at][i + 1:]
    return "\n".join(lines)


class TestLineReader:
    """The line reader against the token parser it stands in front of."""

    @given(circuits(measure=True, barriers=True))
    @settings(max_examples=150)
    def test_emitted_text_takes_the_line_path(self, c):
        assert _read_lines(emit(c)) == flatten(c)

    def test_emitted_gates_skip_the_tokenizer(self, monkeypatch):
        """Every gate and measurement line emit writes is read by the line
        reader's one pattern: the tokenizer sees only the header, the
        include, the declarations and the box markers."""
        seen = []

        def recording(text, line, tokens):
            seen.append(text)
            return _tokenize_line(text, line, tokens)

        monkeypatch.setattr(qobf.qasm, "_tokenize_line", recording)
        circuit = random_circuit(random.Random(3), min_qubits=8, max_qubits=8,
                                 min_gates=200, max_gates=200, measure=True)
        text = emit(apply_pass("composite", circuit, ObfuscationConfig(seed=3)))
        read = _read_lines(text)
        assert {line.split(" ", 1)[0] for line in seen} == {"OPENQASM", "include", "qreg", "creg", "//", ""}
        assert read == _token_parse(text).circuit

    def test_repeated_lines_share_one_gate(self):
        circuit = _read_lines(wrap_src("qreg q[2];\n" + "cx q[0],q[1];\n" * 3))
        assert len({id(g) for g in circuit.gates}) == 1

    @given(mutated_sources())
    @settings(max_examples=400)
    @example(wrap_src("qreg gate[2];\nh gate[0];\n"))
    @example(wrap_src("qreg h[2];\nh h[0];\n"))
    @example(wrap_src("qreg q[2];\nh q[01];\nh q[01];\n"))
    @example(wrap_src("qreg q[2];\nh q[1234567890];\n"))
    @example(wrap_src("qreg q[1234567890];\nh q[0];\n"))
    @example(wrap_src("qreg q[2];\nh q[0];\nh q[0];\n").replace("\n", "\r\n"))
    @example(wrap_src("qreg\tq[2];\n\th \t q[1] ;\t\n"))
    @example(wrap_src("qreg q[2];\nh q[0]; // trailing\nh q[0]; // trailing\n"))
    @example(wrap_src("qreg q[2];\nh q[0];\u2028x q[1];\n"))
    @example(wrap_src("qreg q[2];\nh q[0]; x q[1];\n"))
    @example(wrap_src("qreg q[2];\ncx q[0],\nq[1];\n"))
    @example("// before\n\n// the header\n" + wrap_src("qreg q[1];\nx q[0];\n"))
    @example(wrap_src("qreg q[2];\nh q[0];\ncreg c[1];\nmeasure q[0] -> c[0];\n"))
    @example(wrap_src("qreg q[2];\ncx q[0],q[1];\nqreg r[1];\ncx q[0],q[1];\ncx r[0],q[1];\n"))
    @example(wrap_src("qreg q[2];\nqreg q[2];\n"))
    @example(wrap_src("qreg q[1];\ninclude \"qelib1.inc\";\n"))
    @example('OPENQASM 2.0;\nqreg q[1];\ninclude "qelib1.inc";\n')
    @example("OPENQASM 2.0;\n\n// no register\n")
    @example("OPENQASM 2.0;\nOPENQASM 2.0;\nqreg q[1];\n")
    # the edges of the line reader's pattern for gate and measurement lines
    @example(wrap_src("qreg q[2];\ncreg c[2];\ncx q[01],q[0];\nmeasure q[01] -> c[001];\n"))
    @example(wrap_src("qreg q[2];\ncx q[01],q[1];\n"))
    @example(wrap_src("qreg r[2];\nh r[0];\ncreg d[1];\nmeasure r[1] -> d[0];\n"))
    @example(wrap_src("qreg r[1];\nqreg q[2];\ncreg d[1];\ncreg c[2];\ncx q[1],r[0];\nh q[1];\n"
                      "measure q[1] -> c[1];\n"))
    @example(wrap_src("qreg r[1];\ncreg q[1];\nh q[0];\n"))
    @example(wrap_src("qreg q[1];\ncreg d[1];\nmeasure q[0] -> c[0];\n"))
    @example(wrap_src("qreg q[3];\nccx q[0],q[1],q[0];\n"))
    @example(wrap_src("qreg q[2];\nh q[2];\n"))
    @example(wrap_src("qreg q[2];\ncreg c[1];\nmeasure q[1] -> c[1];\n"))
    @example(wrap_src("qreg q[2];\nh q[0];// c\nh q[0]; // c\n"))
    @example(wrap_src("qreg q[2];\nh\tq[0];\ncx q[0],\tq[1];\nh q[1];\t\n"))
    @example(wrap_src("qreg q[2];\ncreg c[1];\ncx q[1],q[0];\nmeasure q[0] -> c[0];\n").replace("\n", "\r\n"))
    @example(wrap_src("qreg q[2];\ncx q[0];\nh q[0],q[1];\n"))
    @example(wrap_src("qreg q[2];\ncreg c[2];\nmeasure q[0],q[1] -> c[0];\n"))
    @example(wrap_src("qreg q[2];\nu q[0];\n"))
    @example(wrap_src("qreg q[2];\ncreg c[1];\nmeasure q[0] ->c[0];\nmeasure q[1] -> c[0]\n"))
    @example(wrap_src("qreg q[2];\nh q[٣];\n"))
    @example("h q[0];\n" + wrap_src("qreg q[1];\n"))
    def test_mutations_agree_with_token_parser(self, source):
        reference = _token_parse(source)
        read = _read_lines(source)
        if read is not None:
            assert reference.ok and read == reference.circuit
        if not reference.ok:
            assert read is None
        assert parse(source) == reference
