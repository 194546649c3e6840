import ast
from pathlib import Path

import pytest

import qobf._kernel as kernel
from qobf.exact import exact_amplitudes, exact_distribution
from qobf.ir import GateKind, measured_pairs
from qobf.predicates import make_predicate
from qobf.qasm import emit, loads
from qobf.wrapper import END_MARKER, SourceBlock, load_template, wrap

SOURCE = Path(kernel.__file__).read_text(encoding="utf-8")

#: the predicates the pinned predicate corpus writes
PREDICATES = [
    ("bell", {}),
    ("shroud", {}),
    *(("multi_pair", {"n_pairs": n}) for n in (1, 2, 8, 11, 12)),
    *(("branch", {"seed": seed}) for seed in range(0, 300, 7)),
]
IDS = [f"{kind}-{'-'.join(map(str, params.values()))}" for kind, params in PREDICATES]


class TestSource:
    def test_standard_library_only(self):
        imports = [node for node in ast.walk(ast.parse(SOURCE))
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert [(alias.name, alias.asname) for node in imports for alias in node.names] == [
            ("math", "_math")
        ]
        assert all(isinstance(node, ast.Import) for node in imports)  # nothing relative

    def test_binds_only_underscore_names(self):
        bound = set()
        for node in ast.parse(SOURCE).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Import):
                bound.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.update(name.id for t in targets for name in ast.walk(t)
                             if isinstance(name, ast.Name))
            else:
                assert isinstance(node, ast.Expr), ast.dump(node)  # the docstring
        assert bound and all(name.startswith("_") for name in bound)

    def test_no_wrapper_markers(self):
        assert "# branch " not in SOURCE
        assert END_MARKER not in SOURCE

    @pytest.mark.parametrize("kind", ["bell", "multi_pair", "shroud", "branch"])
    def test_embedded_byte_equal(self, kind):
        head = load_template("qobf-inline").text.split("{EVALUATOR}")[0]
        program = wrap(SourceBlock("print('hi')\n"), kind)[0]
        assert program[len(head):len(head) + len(SOURCE)] == SOURCE
        assert program.startswith(head)
        assert "qobf" not in program


@pytest.mark.parametrize("kind,params", PREDICATES, ids=IDS)
class TestPredicateCorpus:
    def test_reader_matches_parser(self, kind, params):
        text = emit(make_predicate(kind, params).circuit)
        circuit = loads(text)
        n, gates, measured = kernel._read_qasm(text)
        assert n == circuit.n_qubits
        assert gates == [(kernel._GATES[g.kind.value], g.qubits)
                         for g in circuit.gates if g.kind is not GateKind.MEASURE]
        assert measured == measured_pairs(circuit)

    def test_evaluation_bit_equal(self, kind, params):
        circuit = make_predicate(kind, params).circuit
        distribution, amplitudes = kernel._evaluate(emit(circuit))
        if measured_pairs(circuit):
            # repr tells every float apart, -0.0 from 0.0 included
            assert amplitudes is None
            assert repr(distribution) == repr(exact_distribution(circuit))
        else:
            assert distribution is None
            assert repr(amplitudes) == repr(exact_amplitudes(circuit))


HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


@pytest.mark.parametrize("text", [
    "",
    'OPENQASM 2.0;\nqreg q[1];\nh q[0];\n',  # no include
    HEAD,  # no register
    HEAD + "qreg q[0];\n",
    HEAD + "qreg r[2];\n",
    HEAD + "qreg q[2] ;\n",
    HEAD + "qreg q[2];\ncreg c[1];\ncreg c[1];\n",
    HEAD + "qreg q[2];\nbarrier q[0],q[1];\n",
    HEAD + "qreg q[2];\n// begin composite box\nh q[0];\n",
    HEAD + "qreg q[2];\nrx q[0];\n",
    HEAD + "qreg q[2];\nh q[2];\n",
    HEAD + "qreg q[2];\nh q[0]\n",
    HEAD + "qreg q[2];\nh q[0], q[1];\n",
    HEAD + "qreg q[2];\ncx q[0];\n",
    HEAD + "qreg q[2];\ncx q[1],q[1];\n",
    HEAD + "qreg q[2];\nh q[١];\n",  # a non-ASCII digit
    HEAD + "qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[1];\n",
    HEAD + "qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0];\nh q[0];\n",
    HEAD + "qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0];\nmeasure q[0] -> c[1];\n",
    HEAD + "qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[0];\n",
    HEAD + "qreg q[2];\nmeasure q[0] -> c[0];\n",  # no classical register
])
def test_reader_refuses_outside_the_subset(text):
    with pytest.raises(ValueError):
        kernel._read_qasm(text)
