import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import qobf
from qobf.cli import main
from qobf.ir import PREDICATE_KINDS
import qobf.predicates
from qobf.predicates import make_predicate
from qobf.wrapper import (
    INDENT,
    DecoyPolicy,
    END_MARKER,
    SourceBlock,
    WrapError,
    WrapManifest,
    extract_branch_body,
    extract_payload,
    generate_decoy,
    list_templates,
    load_template,
    resolve_branches,
    wrap,
)

PAYLOAD = "x = 1\nwhile x < 4:\n    x += 1\nprint(x)\n"


def manifest_schema() -> dict:
    path = Path("src/qobf/data/schemas/wrap_manifest.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


class TestTemplates:
    def test_default_install_lists_templates(self):
        ids = [tid for tid, _ in list_templates()]
        assert "qobf-inline" in ids and "qiskit-statevector" in ids

    def test_descriptions_present(self):
        assert all(desc for _, desc in list_templates())

    def test_unknown_dir_warns_and_returns_empty(self, tmp_path):
        with pytest.warns(UserWarning, match="does not exist"):
            assert list_templates(tmp_path / "missing") == []

    def test_each_template_loads_with_exact_placeholders(self):
        for tid, _ in list_templates():
            template = load_template(tid)
            assert template.id == tid

    def test_bad_placeholder_set_rejected(self, tmp_path):
        (tmp_path / "broken.tmpl").write_text("{PAYLOAD} only\n")
        with pytest.raises(WrapError, match="placeholder set"):
            load_template("broken", tmp_path)

    def test_template_without_evaluator(self, tmp_path):
        # {EVALUATOR} is optional: a template without it gets no kernel
        text = ('q = """{PREDICATE_CIRCUIT_QASM}"""\n'
                '_evaluate_predicate = lambda: ("11", None)\n{BRANCH_TABLE}\n')
        (tmp_path / "plain.tmpl").write_text("# description: plain\n" + text)
        assert load_template("plain", tmp_path).description == "plain"
        emitted, _ = wrap(SourceBlock(PAYLOAD), "bell", template_id="plain", template_dir=tmp_path)
        assert emitted.startswith("# description: plain\nq = \"\"\"OPENQASM 2.0;\n")
        assert "_basis_run" not in emitted
        namespace: dict = {}
        exec(emitted, namespace)
        assert namespace["x"] == 4

    def test_unknown_template(self):
        with pytest.raises(WrapError, match="unknown template"):
            load_template("no-such-template")


class TestWrapBell:
    def test_four_branches_payload_duplicated(self):
        emitted, manifest = wrap(SourceBlock(PAYLOAD), "bell")
        assert len(manifest.branches) == 4
        live = [b for b in manifest.branches if b.role == "live"]
        dead = [b for b in manifest.branches if b.role == "dead"]
        assert {b.outcome for b in live} == {"00", "11"}
        assert {b.outcome for b in dead} == {"01", "10"}
        for b in live:
            assert extract_branch_body(emitted, manifest, b.id) == PAYLOAD
        for b in dead:
            assert extract_branch_body(emitted, manifest, b.id) != PAYLOAD

    def test_wrong_mode_rejected(self):
        with pytest.raises(WrapError, match="invalid for kind"):
            wrap(SourceBlock(PAYLOAD), "bell", policy=DecoyPolicy(mode="restart"))


class TestWrapMultiPair:
    def test_restart_branch(self):
        emitted, manifest = wrap(SourceBlock(PAYLOAD), "multi_pair", {"n_pairs": 8})
        roles = {b.id: b.role for b in manifest.branches}
        assert roles == {"pairs-allones": "restart", "pairs-live": "live"}
        restart = extract_branch_body(emitted, manifest, "pairs-allones")
        assert "_restart()" in restart
        assert extract_branch_body(emitted, manifest, "pairs-live") == PAYLOAD

    def test_all_ones_key_in_table(self):
        emitted, _ = wrap(SourceBlock(PAYLOAD), "multi_pair", {"n_pairs": 3})
        assert '_key == "111111"' in emitted


class TestWrapShroud:
    def test_split_across_two_live_branches(self):
        emitted, manifest = wrap(SourceBlock(PAYLOAD), "shroud")
        assert [b.role for b in manifest.branches] == ["live", "live"]
        part0 = extract_branch_body(emitted, manifest, "shroud-0")
        part1 = extract_branch_body(emitted, manifest, "shroud-1")
        assert part0 + part1 == PAYLOAD
        assert part0 and part1

    def test_one_line_payload(self):
        emitted, manifest = wrap(SourceBlock("solo = 9\n"), "shroud")
        assert extract_payload(emitted, manifest) == "solo = 9\n"

    @pytest.mark.parametrize(
        "payload, part0",
        [
            # the cut is at the start of a top-level statement, never inside one
            ("x = (1,\n     2); y = 3\nprint(x, y)\n", "x = (1,\n     2); y = 3\n"),
            ("a = 1; b = 2\n", "a = 1; b = 2\n"),
            # and after a "\n": a body is re-terminated with one
            ("a = 1\rb = 2\n", "a = 1\rb = 2\n"),
            # a payload that does not parse, or has one statement, stays whole
            ("if True:\nprint(1)\nprint(2)\n", "if True:\nprint(1)\nprint(2)\n"),
            ("while False:\n    pass\n\n\n", "while False:\n    pass\n\n\n"),
        ],
    )
    def test_cut_at_statement_boundary(self, payload, part0):
        emitted, manifest = wrap(SourceBlock(payload), "shroud")
        assert extract_branch_body(emitted, manifest, "shroud-0") == part0
        assert part0 + extract_branch_body(emitted, manifest, "shroud-1") == payload


class TestWrapBranchKind:
    def test_dead_branches_get_decoys(self):
        emitted, manifest = wrap(SourceBlock(PAYLOAD), "branch", {"seed": 5})
        dead = [b for b in manifest.branches if b.role == "dead"]
        assert len(dead) == 3
        bodies = {extract_branch_body(emitted, manifest, b.id) for b in dead}
        assert PAYLOAD not in bodies
        assert len(bodies) == 3  # per-branch decoy seeds differ


ADVERSARIAL_PAYLOADS = [
    "x = 1",
    "x = 1\n",
    "\tleading tab\n    four spaces\n\t\tdouble tab\n",
    "a\n\n\nb\n",
    "   \n",
    "line with trailing spaces   \nnext\t\n",
    "def f():\n    return 1  # comment\n\n\nf()",
    "a = 'multi\\nline-ish string'\nb = \"quotes ' inside\"\n",
    "\n\nstarts blank\n",
    "x = 1\r\ny = 2\r\n",
    # only "\n", "\r\n" and "\r" end a line, as in Python's tokenizer
    'msg = "a\u2028b"\nprint(repr(msg))\n',
    'msg = "a\fb"\nprint(repr(msg))\n',
    # a body line that quotes a guard is not a guard
    "x = 1  # branch bell-00 [live]\nprint(x)\n",
    # wrapping refuses none of these: strings on one line, a continued line
    # outside a string, the __future__ module, and what the tokenizer rejects
    'msg = f"{1}" "two"\nprint(msg)\n',
    "x = 1 + \\\n    2\nprint(x)\n",
    "import __future__\nprint(__future__.annotations)\n",
    's = """never closed\n',
]


#: payloads whose output a wrapped program must reproduce exactly
CORPUS = {
    "demo-loop": (
        "secret = 0x5eed\n"
        "for round in range(16):\n"
        "    secret = (secret * 31 + round) % 65521\n"
        "print(secret)\n"
    ),
    # shroud's first half binds the names its second half reads
    "split-names": "width = 6\nheight = 7\nprint(width * height)\nprint(width - height)\n",
    "random-payload": (
        "def churn(value, k):\n"
        "    return (value * 22 + k + 26) % 8191\n"
        "acc = 97\n"
        "hits = 0\n"
        "for i in range(32):\n"
        "    acc = churn(acc, i)\n"
        "    if acc % 3 == 0:\n"
        "        hits += 1\n"
        "        acc += 69\n"
        "print(acc, hits)\n"
        "print([acc % (j + 2) for j in range(5)])\n"
    ),
    "global": (
        "count = 0\n"
        "def bump():\n"
        "    global count\n"
        "    count += 1\n"
        "bump()\n"
        "bump()\n"
        "print(count)\n"
    ),
    "closure": (
        "def counter():\n"
        "    n = 0\n"
        "    def step():\n"
        "        nonlocal n\n"
        "        n += 1\n"
        "        return n\n"
        "    return step\n"
        "tick = counter()\n"
        "tick()\n"
        "print(tick())\n"
    ),
    "class": (
        "class Point:\n"
        "    def __init__(self, x, y):\n"
        "        self.x, self.y = x, y\n"
        "    def norm1(self):\n"
        "        return abs(self.x) + abs(self.y)\n"
        "p = Point(3, -4)\n"
        "print(type(p).__name__, p.norm1())\n"
    ),
    # the middle line is the def under the decorator; the cut must not fall there
    "decorator": (
        "def twice(f):\n"
        "    return lambda: f() * 2\n"
        "@twice\n"
        "def five():\n"
        "    return 5\n"
        "print(five())\n"
        "print(five() + 1)\n"
    ),
    "main-guard-stderr": (
        "import sys\n"
        "def main():\n"
        "    print('to stdout')\n"
        "    print('to stderr', file=sys.stderr)\n"
        'if __name__ == "__main__":\n'
        "    main()\n"
    ),
    "exit-3": "import sys\nprint('leaving')\nsys.stdout.flush()\nsys.exit(3)\nprint('unreachable')\n",
    "one-statement": "for i in range(3):\n    square = i * i\n    print(i, square)\n",
    # str.splitlines ends lines at these; Python's tokenizer does not
    "line-separator-in-string": 'msg = "a\u2028b"\nprint(repr(msg))\n',
    "form-feed-in-string": 'msg = "a\fb"\nprint(repr(msg))\n',
    # the pasted kernel imports math, and qobf.exact has a _run; a wrapped
    # program binds neither
    "unbound-names": (
        "import sys\n"
        "print('looking up')\n"
        "for name in ('math', '_run'):\n"
        "    try:\n"
        "        eval(name)\n"
        "    except NameError as exc:\n"
        "        print(exc, file=sys.stderr)\n"
        "sys.exit(1)\n"
    ),
}

#: every predicate kind, with the parameters the corpus wraps it with
KINDS = [("bell", None), ("branch", {"seed": 3}), ("multi_pair", {"n_pairs": 2}), ("shroud", None)]


def run_python(path: Path) -> subprocess.CompletedProcess:
    """Run a file isolated from this checkout and from site-packages (-I -S,
    no PYTHONPATH, in the file's own directory), so a program that needs the
    ``qobf`` package fails."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-I", "-S", path.name], capture_output=True, text=True,
        timeout=60, env=env, cwd=path.parent,
    )


class TestWrappedProgramRuns:
    """An emitted qobf-inline program behaves as its payload does alone."""

    @pytest.mark.parametrize("kind,params", KINDS)
    def test_stdout_matches_payload(self, kind, params, tmp_path):
        program = tmp_path / "wrapped.py"
        program.write_text(wrap(SourceBlock(PAYLOAD), kind, params)[0])
        got = run_python(program)
        assert got.returncode == 0, got.stderr
        assert got.stdout == "4\n"

    @pytest.mark.parametrize("kind,params", KINDS, ids=[k for k, _ in KINDS])
    @pytest.mark.parametrize("name", CORPUS)
    def test_differential_execution(self, name, kind, params, tmp_path):
        """Same stdout, stderr and exit code, wrapped or alone. multi_pair's
        restart branch re-runs the program before the payload, so only the
        last run's output is seen."""
        payload, program = tmp_path / "payload.py", tmp_path / "wrapped.py"
        payload.write_text(CORPUS[name], encoding="utf-8")
        program.write_text(wrap(SourceBlock(CORPUS[name]), kind, params)[0], encoding="utf-8")
        want, got = run_python(payload), run_python(program)
        assert (got.stdout, got.stderr, got.returncode) == (
            want.stdout,
            want.stderr,
            want.returncode,
        )
        assert want.stdout

    @pytest.mark.parametrize("flags", [["--kind", "bell"], ["--kind", "branch", "--seed", "3"],
                                       ["--kind", "multi_pair", "--pairs", "2"], ["--kind", "shroud"]])
    def test_cli_program_runs(self, flags, tmp_path, capsys):
        """The program the ``wrap`` command writes runs as its payload does."""
        payload, program = tmp_path / "payload.py", tmp_path / "wrapped.py"
        payload.write_text(CORPUS["exit-3"])
        assert main(["wrap", "--payload", str(payload), *flags, "-o", str(program)]) == 0
        want, got = run_python(payload), run_python(program)
        assert (got.stdout, got.stderr, got.returncode) == (want.stdout, want.stderr, 3)

    def test_restart_keeps_interpreter_options(self, tmp_path):
        """The restart branch re-runs the program under the options this
        interpreter was started with."""
        program, runner = tmp_path / "wrapped.py", tmp_path / "runner.py"
        program.write_text(wrap(SourceBlock("print('live')\n"), "multi_pair", {"n_pairs": 1})[0])
        runner.write_text(
            "import json, os\n"
            "calls = []\n"
            "os.execv = lambda path, argv: calls.append([path, *argv])\n"
            "namespace = {'__name__': '__main__'}\n"
            "exec(open('wrapped.py').read(), namespace)\n"
            "namespace['_restart']()\n"
            "print(json.dumps(calls))\n"
        )
        flags = ["-I", "-S", "-X", "utf8", "-W", "ignore"]
        got = subprocess.run([sys.executable, *flags, "runner.py"], capture_output=True,
                             text=True, timeout=60, cwd=tmp_path)
        assert got.returncode == 0, got.stderr
        calls = json.loads(got.stdout.splitlines()[-1])
        assert calls and all(call == [sys.executable, sys.executable, *flags, "runner.py"]
                             for call in calls)


class TestExtraction:
    @pytest.mark.parametrize("payload", ADVERSARIAL_PAYLOADS)
    @pytest.mark.parametrize("kind", ["bell", "shroud", "branch", "multi_pair"])
    def test_byte_exact_round_trip(self, payload, kind):
        emitted, manifest = wrap(SourceBlock(payload), kind)
        assert extract_payload(emitted, manifest) == payload

    def test_large_payload(self):
        payload = "\n".join(f"value_{i} = {i}" for i in range(200)) + "\n"
        emitted, manifest = wrap(SourceBlock(payload), "multi_pair", {"n_pairs": 4})
        assert extract_payload(emitted, manifest) == payload

    def test_marker_collision_rejected(self):
        with pytest.raises(WrapError, match="collides with template markers"):
            wrap(SourceBlock(f"ok\n{END_MARKER}\n"), "bell")

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_marker_collision_rejected_after_any_line_ending(self, newline):
        # emission and extraction end lines at "\r" and "\r\n" too, so the check must too
        with pytest.raises(WrapError, match="collides with template markers"):
            wrap(SourceBlock(f"a = 1{newline}{END_MARKER}"), "bell")

    def test_decoys_pass_the_payload_check(self):
        # a bare "\r" ends a line for the check; renaming can turn the text
        # after it into the end marker, which the decoy guard must then see
        payload = "end = 1\nbranch = 2\nx = end\rpass  # :: branch end\nprint(x, branch)\n"
        for seed in range(40):
            policy = DecoyPolicy("dead_decoy", decoy_seed=seed)
            emitted, manifest = wrap(SourceBlock(payload), "branch", {"seed": 3}, policy)
            assert extract_payload(emitted, manifest) == payload

    def test_damaged_program_refused(self):
        """Each way an edited program can lose a branch body is refused."""
        emitted, manifest = wrap(SourceBlock("x = 1"), "bell")
        damaged = {
            "appears 0 times": emitted.replace("  # branch bell-00 [live]", ""),
            "body line lost its indent": emitted.replace(f"{INDENT}x = 1\n", "x = 1\n"),
            "has no end marker": emitted[: emitted.rindex(INDENT + END_MARKER)],
        }
        for message, text in damaged.items():
            branch = "bell-11" if message == "has no end marker" else "bell-00"
            with pytest.raises(WrapError, match=f"branch '{branch}' {message}"):
                extract_branch_body(text, manifest, branch)
        # the payload had no final newline, so emission added the one it strips
        text = emitted.replace(f"{INDENT}x = 1\n", f"{INDENT}x = 1\r")
        with pytest.raises(WrapError, match="expected the emission-added trailing newline"):
            extract_payload(text, manifest)

    def test_branch_ids_appear_exactly_once(self):
        for kind in ("bell", "multi_pair", "shroud", "branch"):
            emitted, manifest = wrap(SourceBlock(PAYLOAD), kind)
            for b in manifest.branches:
                assert emitted.count(f"# branch {b.id} [") == 1
            # and no branch markers beyond the manifest's
            assert emitted.count("# branch ") == len(manifest.branches)


class TestUnwrappablePayloads:
    """A payload whose meaning wrapping would change is refused, naming its line."""

    @pytest.mark.parametrize("kind", ["bell", "shroud"])
    @pytest.mark.parametrize(
        "payload, message",
        [
            # a docstring's value, f.__doc__, would gain the indent too
            ('def f():\n    """one\n    two"""\n', "a string literal across lines"),
            ('x = 1\nmsg = f"""{x}\n"""\n', "a string literal across lines"),
            ('x = 1\nmsg = f"""{f"{x}"}\n"""\n', "a string literal across lines"),
            # a bare "\r" ends a line for Python's tokenizer, so the indent follows it
            ('msg = """a\rb"""\nprint(repr(msg))\n', "a string literal across lines"),
            ('"""Doc."""\nfrom __future__ import annotations\n', "a from __future__ import"),
        ],
        ids=["docstring", "f-string", "nested-f-string", "bare-cr", "future-after-docstring"],
    )
    def test_refused(self, payload, message, kind):
        line = 1 if payload.startswith("msg") else 2
        with pytest.raises(WrapError, match=f"^payload line {line}: {message}"):
            wrap(SourceBlock(payload), kind)


class TestManifest:
    def test_round_trip_and_schema(self):
        schema = manifest_schema()
        for kind, params in [
            ("bell", None),
            ("multi_pair", {"n_pairs": 2}),
            ("shroud", None),
            ("branch", {"seed": 3}),
        ]:
            _, manifest = wrap(SourceBlock(PAYLOAD), kind, params)
            data = manifest.to_dict()
            jsonschema.validate(data, schema)
            again = WrapManifest.from_dict(json.loads(json.dumps(data)))
            assert again == manifest

    @pytest.mark.parametrize("kind", PREDICATE_KINDS)
    def test_branches_are_the_generator_rows(self, kind):
        _, manifest = wrap(SourceBlock(PAYLOAD), kind)
        rows = make_predicate(kind).semantics.branches
        assert manifest.branches == rows
        assert manifest.to_dict()["branches"] == [
            {"id": b.id, "role": b.role, "outcome": b.outcome} for b in rows
        ]

    def test_kind_lists_agree(self):
        schema = manifest_schema()["properties"]
        table = qobf.predicates.KINDS
        assert tuple(table) == PREDICATE_KINDS
        assert schema["predicate"]["properties"]["kind"]["enum"] == list(PREDICATE_KINDS)
        modes = schema["policy"]["properties"]["mode"]["enum"]
        assert {spec.mode for spec in table.values()} <= set(modes)

    def test_payload_digest(self):
        _, manifest = wrap(SourceBlock(PAYLOAD), "bell")
        assert manifest.payload_sha256 == SourceBlock(PAYLOAD).sha256

    def test_bad_schema_tag_rejected(self):
        _, manifest = wrap(SourceBlock(PAYLOAD), "bell")
        data = manifest.to_dict()
        data["schema"] = "qobf.wrap-manifest/999"
        with pytest.raises(WrapError):
            WrapManifest.from_dict(data)


class TestResolveBranches:
    def test_bell_probabilities(self):
        _, manifest = wrap(SourceBlock(PAYLOAD), "bell")
        probs = resolve_branches(manifest)
        assert probs == {
            "bell-00": 0.5,
            "bell-01": 0.0,
            "bell-10": 0.0,
            "bell-11": 0.5,
        }

    def test_branch_kind_live_probability_one(self):
        _, manifest = wrap(SourceBlock(PAYLOAD), "branch", {"seed": 2})
        probs = resolve_branches(manifest)
        assert probs["superpos-11"] == pytest.approx(1.0, abs=1e-12)
        assert probs["superpos-00"] == 0.0
        assert probs["superpos-01"] == 0.0
        assert probs["superpos-10"] == 0.0

    def test_multi_pair_probabilities(self):
        _, manifest = wrap(SourceBlock(PAYLOAD), "multi_pair", {"n_pairs": 8})
        probs = resolve_branches(manifest)
        assert probs["pairs-allones"] == 2.0**-8
        assert probs["pairs-live"] == 1 - 2.0**-8

    def test_model_built_and_checked_once(self, monkeypatch):
        import qobf.exact
        import qobf.predicates

        qobf.predicates._built.cache_clear()
        qobf.exact._probabilities.cache_clear()
        runs, checks = [], []
        run, check = qobf.exact._basis_run, qobf.predicates._check_measured_model
        monkeypatch.setattr(qobf.exact, "_basis_run", lambda *a: runs.append(a) or run(*a))
        monkeypatch.setattr(
            qobf.predicates, "_check_measured_model", lambda p: checks.append(p) or check(p)
        )
        _, manifest = wrap(SourceBlock(PAYLOAD), "multi_pair", {"n_pairs": 3})
        assert resolve_branches(manifest)["pairs-allones"] == 2.0**-3
        assert (len(runs), len(checks)) == (3, 1)  # one run per pair, one model check

    def test_shroud_always_live(self):
        _, manifest = wrap(SourceBlock(PAYLOAD), "shroud")
        assert resolve_branches(manifest) == {"shroud-0": 1.0, "shroud-1": 1.0}

    def test_measured_probabilities_sum_to_one(self):
        for kind, params in [("bell", None), ("multi_pair", {"n_pairs": 5}), ("branch", None)]:
            _, manifest = wrap(SourceBlock(PAYLOAD), kind, params)
            total = sum(resolve_branches(manifest).values())
            assert total == pytest.approx(1.0, abs=1e-12)


class TestDecoys:
    def policy(self, seed=0, bound=2):
        return DecoyPolicy(mode="dead_decoy", decoy_seed=seed, decoy_statement_count=bound)

    def test_never_byte_equal(self):
        src = SourceBlock("x = 1")
        for seed in range(1000):
            assert generate_decoy(src, self.policy(seed)) != src.text

    def test_deterministic(self):
        src = SourceBlock(PAYLOAD)
        assert generate_decoy(src, self.policy(9)) == generate_decoy(src, self.policy(9))

    def test_line_count_within_bound(self):
        src = SourceBlock(PAYLOAD)
        for seed in range(50):
            decoy = generate_decoy(src, self.policy(seed, bound=2))
            assert abs(len(decoy.split("\n")) - len(src.text.split("\n"))) <= 2

    def test_identifiers_permuted_not_invented(self):
        src = SourceBlock("alpha = beta + 1\n")
        decoy = generate_decoy(src, self.policy(4))
        import re

        words = set(re.findall(r"[A-Za-z_]\w*", decoy))
        assert words <= {"alpha", "beta"}

    def test_wrong_mode_rejected(self):
        with pytest.raises(WrapError, match="dead_decoy"):
            generate_decoy(SourceBlock("x = 1\n"), DecoyPolicy(mode="restart"))

    def test_negative_seed_rejected(self):
        # the manifest schema requires decoy_seed >= 0
        with pytest.raises(WrapError, match="decoy_seed must be non-negative"):
            DecoyPolicy(mode="dead_decoy", decoy_seed=-3)

    def test_no_statement_added_when_bound_is_zero(self):
        # nothing to rename or perturb: the filler replaces the first line
        src = SourceBlock("...\n...\n")
        for seed in range(20):
            decoy = generate_decoy(src, self.policy(seed, bound=0))
            assert decoy != src.text
            assert decoy.count("\n") == 2 and decoy.endswith("\n...\n")

    def test_no_identifier_payload_still_differs(self):
        src = SourceBlock("...\n")
        for seed in range(20):
            assert generate_decoy(src, self.policy(seed)) != src.text


class TestSourceBlock:
    def test_empty_rejected(self):
        with pytest.raises(WrapError):
            SourceBlock("")

    def test_line_count(self):
        assert SourceBlock("a\nb\n").line_count == 2
        assert SourceBlock("a").line_count == 1
