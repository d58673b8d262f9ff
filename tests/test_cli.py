import ast
import contextlib
import doctest
import importlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import opticomb
from opticomb import IncompatibleStrategy
from opticomb.cli import build_parser, main
from opticomb.program import load_program, parse_program, run_program
from opticomb.theory import DECLARATIONS, TheoryError, build_backend, load_theory, parse_theory

ROOT = Path(__file__).resolve().parent.parent
THEORIES = ROOT / "theories"
GOLDEN = ROOT / "tests" / "fixtures" / "cli"

BUNDLED = [
    ("idempotent.thy", "idempotent.prog"),
    ("pointed.thy", "pointed.prog"),
    ("bool2.thy", "bool2.prog"),
    ("qubit.thy", "qubit.prog"),
    ("cartesian.thy", "cartesian.prog"),
    ("unitary.thy", "unitary.prog"),
]


MATRIX = "backend matrix\nobject x dim=1\nmorphism h : x -> x = "
# a theory the test program runs on, for the refusals added to it below
IDENTITY = "backend matrix\nobject x dim=2\nmorphism h : x -> x = [[1,0],[0,1]]\n"
# theories the backend refuses; each must exit 2 with a message
MALFORMED_THEORIES = {
    "unknown-semiring": "backend matrix semiring=quaternion\n",
    "ragged-bool": "backend matrix semiring=bool\nobject x dim=2\n"
                   "morphism h : x -> x = [[1,1],[1]]\n",
    "ragged-complex": "backend matrix\nobject x dim=2\n"
                      "morphism h : x -> x = [[1,1],[1]]\n",
    "string-complex": MATRIX + '[["a"]]\n',
    "string-bool": MATRIX.replace("matrix", "matrix semiring=bool") + '[["a"]]\n',
    "null-entry": MATRIX + "[[null]]\n",
    "zero-denominator": MATRIX.replace("matrix", "matrix semiring=rational")
                        + '[["1/0"]]\n',
    "wrong-shape": "backend matrix\nobject x dim=2\nmorphism h : x -> x = [[1,0]]\n",
    "not-unitary": "backend unitary\nobject q dim=2\n"
                   "morphism u : q -> q = [[1,1],[0,1]]\n",
    "short-table": "backend finfun\nobject s size=3\nmorphism f : s -> s = [0, 1]\n",
    "value-out-of-range": "backend finfun\nobject s size=3\n"
                          "morphism f : s -> s = [0, 1, 3]\n",
    "undeclared-object": "backend matrix\nobject x dim=2\n"
                         "morphism h : x -> z = [[1,0],[0,1]]\n",
    "rule-undeclared-state": "backend free-pointed\nrule chi ; bang -> 1\n",
    "state-is-effect": "backend free-pointed states=x effects=x\n",
    "state-twice": "backend free-pointed states=phi,phi\n",
    "state-twice-on-line-2": "# a comment\nbackend free-pointed states=phi,phi\n",
    "unknown-semiring-on-line-2": "\nbackend matrix semiring=quaternion\n",
    "overflow": MATRIX + "[[1e400]]\n",
    "nan": MATRIX + "[[NaN]]\n",
    "minus-infinity": MATRIX + "[[[0, -Infinity]]]\n",
    "int-too-large": MATRIX + "[[1" + "0" * 400 + "]]\n",
    "tolerance-on-bool": "backend matrix semiring=bool tolerance=0.5\nobject x dim=2\n"
                         "morphism h : x -> x = [[1,0],[0,1]]\n",
    "tolerance-on-finfun": "backend finfun tolerance=0.5\nobject x size=2\n"
                           "morphism h : x -> x = [0, 1]\n",
    "tolerance-not-a-number": "# a comment\nbackend matrix tolerance=abc\nobject x dim=2\n"
                              "morphism h : x -> x = [[1,0],[0,1]]\n",
    # names no program can write
    "object-named-unit": IDENTITY.replace("object x", "object I dim=2\nobject x"),
    "free-object-named-unit": "backend free-commutative object=I\n",
    "object-name-not-identifier": IDENTITY.replace("object x", "object x*y dim=2\nobject x"),
    "morphism-name-with-space": IDENTITY + "morphism h h : x -> x = [[1,0],[0,1]]\n",
    "state-not-a-name": "backend free-pointed states=ph-i,psi\n",
    "effect-not-a-name": "backend free-pointed effects=1x\n",
    "endo-not-a-name": "backend free-commutative endo=f.g\n",
    # declarations made twice
    "object-twice": IDENTITY.replace("object x", "object x dim=3\nobject x"),
    "morphism-twice": IDENTITY + "morphism h : x -> x = [[0,1],[1,0]]\n",
    "option-twice": IDENTITY.replace("matrix", "matrix semiring=bool semiring=complex"),
    # one line or option the reader refuses
    "option-without-value": "backend matrix semiring\n",
    "object-without-extent": "backend matrix\nobject x\n",
    "dim-not-an-integer": "backend matrix\nobject x dim=two\n",
    "negative-dim": "backend matrix\nobject x dim=-1\n",
    "morphism-without-literal": "backend matrix\nobject x dim=2\nmorphism h : x -> x\n",
    "morphism-without-arrow": "backend matrix\nobject x dim=2\nmorphism h : x = [[1,0],[0,1]]\n",
    "rule-without-arrow": "backend free-pointed\nrule phi ; bang\n",
    "rule-without-semicolon": "backend free-pointed\nrule phi -> 1\n",
    "rule-undeclared-effect": "backend free-pointed states=phi effects=bang\n\n"
                              "rule phi ; stop -> 1\n",
    "complex-entry-of-three": MATRIX + "[[[1, 0, 0]]]\n",
    "float-rational": MATRIX.replace("matrix", "matrix semiring=rational") + "[[0.5]]\n",
    "object-on-free": "backend free-commutative\nobject a dim=2\n",
    "morphism-on-free": "backend free-pointed\nmorphism f : a -> a = [0]\n",
    "unknown-commutative-option": "backend free-commutative colour=red\n",
    "unknown-pointed-option": "backend free-pointed colour=red\n",
    "rule-on-matrix": IDENTITY + "rule h ; h -> h\n",
    # JSON booleans are not entries, and an extent is ASCII digits
    "boolean-table": "backend finfun\nobject x size=2\nmorphism h : x -> x = [true, false]\n",
    "boolean-on-bool": MATRIX.replace("matrix", "matrix semiring=bool") + "[[true]]\n",
    "boolean-on-complex": MATRIX + "[[true]]\n",
    "boolean-in-complex-pair": MATRIX + "[[[1, false]]]\n",
    "boolean-on-rational": MATRIX.replace("matrix", "matrix semiring=rational") + "[[true]]\n",
    "dim-with-underscore": "backend matrix\nobject x dim=1_0\n",
    "dim-with-plus": "backend matrix\nobject x dim=+1\n",
    "size-in-other-digits": "backend finfun\nobject x size=\u0662\n",
}
# the refusals known on one line: ``theory error: line N: ``, then the reason
THEORY_REFUSAL_LINES = {"tolerance-on-bool": 1, "tolerance-on-finfun": 1,
                        "tolerance-not-a-number": 2, "wrong-shape": 3, "not-unitary": 3,
                        "undeclared-object": 3, "state-twice": 1, "state-twice-on-line-2": 2,
                        "unknown-semiring": 1, "unknown-semiring-on-line-2": 2,
                        "rule-undeclared-state": 2, "rule-undeclared-effect": 3,
                        "boolean-table": 3, "boolean-on-bool": 3, "boolean-on-complex": 3,
                        "boolean-in-complex-pair": 3, "boolean-on-rational": 3,
                        "dim-with-underscore": 2, "dim-with-plus": 2, "size-in-other-digits": 2}

P1 = "poly p1 holes=[(b,b)] outers=[(b,b)] envs=[I] segs=[top | lower]\n"
C = "comb c = (top, lower) env I\n"
# programs over bool2.thy the parser refuses, exit 2, or the runner refuses
# when it builds a piece, exit 3 (RUN_TIME_REFUSALS); each with a message
# object words that do not read like the words of terms: each must exit 2
MALFORMED_WORDS = {
    "env-word-with-space": "comb c = (top, lower) env b c\n",
    "hole-word-with-space": "poly p holes=[(b c,b)] outers=[(b,b)] envs=[I] segs=[top | lower]\n",
    "envs-word-with-space": "poly p holes=[(b,b)] outers=[(b,b)] envs=[b b] segs=[top | lower]\n",
    "id-word-bad-factor": "comb c = (id(b*;), lower) env I\n",
    "env-word-trailing-star": "comb c = (top, lower) env b*\n",
    "env-word-unit-factor": "comb c = (top, lower) env I*b\n",
}

MALFORMED_PROGRAMS = {
    "empty-comb-name": "comb = (top, lower) env I\n",
    "comb-name-with-space": "comb a b = (top, lower) env I\n",
    "dagger-name-with-space": "dagger_comb a b = top env I\n",
    "unbalanced-paren": "comb c = ((top, lower) env I\n",
    "unknown-relation": "comb c = (top, lower) env I\nequiv slide c c\n",
    "equiv-one-operand": "comb c = (top, lower) env I\nequiv comb c\n",
    "plug-missing-hole": P1 + "plug p1 at 3 with p1 as p3\n",
    "poly-segment-count": "poly p1 holes=[(b,b)] outers=[(b,b)] envs=[I] segs=[top]\n",
    # unknown names
    "equiv-unknown-comb": C + "equiv comb c nope\n",
    "lens-unknown-comb": "lens nope\n",
    "compose-unknown-combs": "compose x y as z\n",
    "tensor-unknown-combs": "tensor x y as z\n",
    # statements with a part missing
    "lens-no-operand": C + "lens\n",
    "cpm-no-operand": C + "cpm\n",
    "equiv-no-operands": C + "equiv comb\n",
    "comb-no-env": "comb c = (top, lower)\n",
    "comb-one-term": "comb c = (top) env I\n",
    "dagger-no-env": "dagger_comb d = top\n",
    "compose-no-name": C + "compose c c\n",
    "plug-no-filler": C + "plug c at 0\n",
    # bound names that are not one \w+ word
    "compose-bad-name": C + "compose c c as 1-bad\n",
    "tensor-bad-name": C + "tensor c c as c.2\n",
    "plug-bad-name": P1 + "plug p1 at 0 with p1 as p-3\n",
    # plugs whose hole, port or inner piece does not do
    "plug-hole-not-integer": P1 + "plug p1 at x with p1 as p3\n",
    "plug-port-not-integer": P1 + "plug p1 at 0 with p1 port y as p3\n",
    "plug-unknown-inner": P1 + "plug p1 at 0 with nope as p3\n",
    "plug-port-out-of-range": P1 + "poly q holes=[] outers=[(b,b)] envs=[] segs=[top]\n"
                              "plug p1 at 0 with q port 1 as p3\n",
    "plug-port-misfit": P1 + "poly q holes=[] outers=[(b,b),(I,I)] envs=[] segs=[top]\n"
                        "plug p1 at 0 with q port 1 as p3\n",
    "plug-no-port-fits": P1 + "poly q holes=[] outers=[(I,b),(b,I)] envs=[] segs=[top]\n"
                         "plug p1 at 0 with q as p3\n",
    # declaration bodies the term reader refuses
    "pair-without-comma": P1.replace("holes=[(b,b)]", "holes=[(b b)]"),
    "pairs-without-comma": P1.replace("holes=[(b,b)]", "holes=[(b,b) (b,b)]"),
    "poly-keys-out-of-order": "poly p holes=[(b,b)] envs=[I] outers=[(b,b)] segs=[top | lower]\n",
    "poly-no-segments": "poly p holes=[] outers=[(b,b)] envs=[] segs=[]\n",
    "comb-three-terms": "comb c = (top, lower, top) env I\n",
    "comb-input-after-env": "comb c = (top, lower) env I top\n",
    "poly-unclosed-list": P1.replace("lower]", "lower"),
    **MALFORMED_WORDS,
}
RUN_TIME_REFUSALS = {"plug-missing-hole", "poly-segment-count", "plug-port-out-of-range",
                     "plug-port-misfit", "plug-no-port-fits"}

# channel statements against a theory without channels: they reach the channel
# module, which is imported on first use, and must exit 3
CHANNEL_STATEMENTS = ("cpm c1", "equiv cpm c1 c1", "dagger_comb d = psi env I")

# every public name of the package, by the module that defines it
PUBLIC_NAMES = {
    "core": "Backend BadSplit BoundaryMismatch Budget CategoryError Compose Decision "
            "DimensionMismatch ExhaustionWitness FactorWitness Generator HoleMismatch "
            "Identity IllTypedFunctor IncompatibleStrategy MorTerm NonComposableMove "
            "NotCartesian NotCompactClosed NotDaggerBackend NotEnumerable "
            "ObjectWord ProbeWitness SlidePathWitness SlideStep Symmetry Tensor "
            "TypeMismatch UnknownGenerator UnsupportedShape Verdict block_permutation "
            "eval_term permutation_term",
    "backends.finfun": "FinFunBackend FinMap functions_as_boolean_matrices",
    "backends.free": "AbsorbingPointedBackend IdempotentFreeBackend PointedFreeBackend "
                     "StrandMor WiringMor",
    "backends.matrix": "Mat MatrixBackend",
    "backends.unitary": "UnitaryBackend tensor_separate",
    "comb": "BackendFunctor CombRep braid_eval comb comb_compose "
            "comb_tensor equiv_comb equiv_sigma equiv_tau extended_eval identity_comb "
            "lens_pair lift_functor sigma_congruence_search",
    "optic": "check_probe_witness equiv_optic slide_related",
    "cpm": "CpmMorphism choi_matrix cpinf_equiv cpm_equiv dagger_comb "
           "is_completely_positive is_dagger_comb kraus_slices positive_probe_frame "
           "to_cpm",
    "polycomb": "poly poly_compose_at poly_equiv poly_extended_eval poly_name star_counit "
                "star_unit",
    "sampling": "enumerate_combs env_words_for random_isometry random_unitary",
}

# functions, methods and classes of src/ that no other code in src/ names
UNNAMED_IN_SRC = {
    "is_equivalent": "Decision predicate of the public API; tests and perfbench read verdicts with it",
    "is_unknown": "Decision predicate of the public API, beside is_equivalent; tests call it",
    "map_comb": "public BackendFunctor method; tests and perfbench lift combs with it",
    "parse_term": "public reader of one morphism term; the theory and program tests call it",
}

# public names that no code in src/, scripts/ or perfbench/ reads
UNCALLED_PUBLIC = {
    "identity_comb": "the unit of splicing; criterion 08 and the units law build with it",
    "poly_name": "the n-comb name as a value; the swap-filler property test reads it, "
                 "and poly_equiv compares the chain names themselves",
    "star_counit": "the closed two-hole snake piece; criterion 08 yanks with it",
    "star_unit": "the hole-free snake piece, beside star_counit",
}


def scan_names(path, where, defined, named, reads_only=False):
    """Record each function, method and class defined in ``path`` in
    ``defined``, and in ``named`` each name its code mentions outside that
    name's own definitions: an identifier, an attribute, an imported name,
    or a word of a string constant (the lazy exports), docstrings and
    f-string text aside.  With ``reads_only``, assigned and imported names
    do not count."""

    def scan(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(child.name, []).append(f"{where}:{child.lineno}")
                scan(child, inside | {child.name})
                continue
            if reads_only and isinstance(getattr(child, "ctx", None), ast.Store):
                names = []
            elif isinstance(child, ast.Name):
                names = [child.id]
            elif isinstance(child, ast.Attribute):
                names = [child.attr]
            elif isinstance(child, ast.alias) and not reads_only:
                names = [child.name.rpartition(".")[2]]
            elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
                  and not isinstance(node, (ast.Expr, ast.JoinedStr))):
                names = child.value.split()
            else:
                names = []
            named.update(set(names) - inside)
            scan(child, inside)

    scan(ast.parse(path.read_text(encoding="utf-8")), frozenset())


# run in a fresh interpreter: import the package, run the CLI on the arguments
# if any, and report on stderr whether numpy was loaded
NUMPY_PROBE = """
import sys
import opticomb
from opticomb.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""

# the same, reporting on stderr the name of every module loaded
MODULES_PROBE = NUMPY_PROBE.replace('"numpy" in sys.modules', '*sys.modules')

# each bundled pair: the backend module its run loads, and the modules it must
# leave unloaded; dataclasses is checked on the numpy-free pairs, where every
# module loaded is the package's or one it imports itself
NUMPY_FREE_UNUSED = {"opticomb.backends.finfun", "opticomb.backends.matrix",
                     "opticomb.backends.unitary", "opticomb.cpm", "numpy", "dataclasses"}
FOOTPRINTS = {
    "idempotent": ("free", NUMPY_FREE_UNUSED),
    "pointed": ("free", NUMPY_FREE_UNUSED),
    "cartesian": ("finfun", {"opticomb.backends.free", "dataclasses"}),
    "bool2": ("matrix", {"opticomb.backends.free", "opticomb.backends.finfun",
                         "opticomb.backends.unitary"}),
    "qubit": ("matrix", {"opticomb.backends.free", "opticomb.backends.finfun",
                         "opticomb.backends.unitary"}),
    "unitary": ("unitary", {"opticomb.backends.free", "opticomb.backends.finfun"}),
}


def child_env():
    """The environment of a child interpreter, with the package sources first
    on its path whatever the parent's PYTHONPATH."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def run_child(*argv):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=ROOT, env=child_env(),
    )


def run_cli(*argv):
    return main(list(argv))


class TestBundledPairs:
    @pytest.mark.parametrize("thy,prog", BUNDLED)
    def test_executes_clean(self, thy, prog, capsys):
        code = run_cli("run", str(THEORIES / thy), str(THEORIES / prog))
        out = capsys.readouterr()
        assert code == 0, out.err
        assert out.out.startswith("== ")

    @pytest.mark.parametrize("thy,prog", BUNDLED)
    def test_json_parses(self, thy, prog, capsys):
        code = run_cli(
            "run", str(THEORIES / thy), str(THEORIES / prog), "--format", "json"
        )
        out = capsys.readouterr()
        assert code == 0
        data = json.loads(out.out)
        assert data["format"] == 1 and data["queries"]

    @pytest.mark.parametrize("thy,prog", BUNDLED)
    def test_json_matches_golden_copy(self, thy, prog, capsys):
        # tests/fixtures/cli holds the expected bytes of each bundled pair
        code = run_cli(
            "run", str(THEORIES / thy), str(THEORIES / prog), "--format", "json"
        )
        assert code == 0
        golden = GOLDEN / prog.replace(".prog", ".json")
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("thy,prog", BUNDLED)
    def test_text_matches_golden_copy(self, thy, prog, capsys):
        # the .txt beside each .json holds the expected text output
        code = run_cli("run", str(THEORIES / thy), str(THEORIES / prog))
        assert code == 0
        golden = GOLDEN / prog.replace(".prog", ".txt")
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("thy,prog", BUNDLED)
    def test_theory_reads_a_tab_after_each_head(self, thy, prog, capsys, tmp_path):
        # the first space after every declaration's head made a tab
        text = (THEORIES / thy).read_text(encoding="utf-8")
        tabbed = tmp_path / thy
        tabbed.write_text(re.sub(r"^(\S+) ", "\\1\t", text, flags=re.M), encoding="utf-8")
        assert "backend\t" in tabbed.read_text(encoding="utf-8")
        code = run_cli("run", str(tabbed), str(THEORIES / prog))
        assert code == 0, capsys.readouterr().err
        golden = GOLDEN / prog.replace(".prog", ".txt")
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_json_reruns_byte_identical(self, capsys):
        args = (
            "run", str(THEORIES / "pointed.thy"), str(THEORIES / "pointed.prog"),
            "--format", "json",
        )
        assert run_cli(*args) == 0
        first = capsys.readouterr().out
        assert run_cli(*args) == 0
        second = capsys.readouterr().out
        assert first == second


def test_poly_equiv_agrees_with_comb_on_bundled_programs():
    """Every ``equiv comb X Y`` of the bundled programs, asked again as
    ``equiv poly X Y``, gets the same verdict and certified flag."""
    asked = 0
    for thy, prog in BUNDLED:
        statements = load_program(str(THEORIES / prog))
        pairs = [
            line.split()[2:] for line in (THEORIES / prog).read_text().splitlines()
            if line.startswith("equiv comb ")
        ]
        statements += parse_program("".join(f"equiv poly {x} {y}\n" for x, y in pairs))
        reports = run_program(load_theory(str(THEORIES / thy)), statements)
        answers = {r.query: r.payload for r in reports if r.kind == "decision"}
        for x, y in pairs:
            by_comb, by_poly = answers[f"equiv comb {x} {y}"], answers[f"equiv poly {x} {y}"]
            assert by_poly["verdict"] == by_comb["verdict"], (prog, x, y)
            assert by_poly["certified"] == by_comb["certified"], (prog, x, y)
            asked += 1
    assert asked == 6


@pytest.mark.parametrize("morphism,obj", [("f'", "x'"), ("éa", "éb")])
def test_theory_names_with_primes_and_letters_run(morphism, obj, capsys, tmp_path):
    # one name rule for theories and terms: what a theory declares, a program can write
    thy, prog = tmp_path / "t.thy", tmp_path / "p.prog"
    thy.write_text(f"backend finfun\nobject {obj} size=2\n"
                   f"morphism {morphism} : {obj} -> {obj} = [1, 0]\n", encoding="utf-8")
    prog.write_text(f"comb c = ({morphism}, id({obj})) env I\nequiv comb c c\n", encoding="utf-8")
    assert run_cli("run", str(thy), str(prog)) == 0
    out = capsys.readouterr().out
    assert f"source ({obj}, {obj})" in out and "verdict: equivalent" in out


def test_documented_syntax_parses():
    """The example block of ``program``'s docstring, README's program and
    theory blocks, and ``core``'s doctests."""
    doc = opticomb.program.__doc__
    example = [line for line in doc.splitlines() if line.startswith("    ")]
    assert len(parse_program("\n".join(example))) == 9
    readme = (ROOT / "README.md").read_text(encoding="utf-8")

    def block(marker):
        return readme[readme.index(marker):].split("```")[1]

    assert parse_program(block("A **program file**"))
    assert build_backend(parse_theory(block("A **theory file**"))).object_names()
    result = doctest.testmod(opticomb.core)
    assert result.attempted and not result.failed


def test_each_declaration_syntax_is_documented():
    """``theory``'s docstring and README's table list each row of
    ``DECLARATIONS`` as the table holds it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for head, (syntax, _) in DECLARATIONS.items():
        assert f"    {head} {syntax}" in opticomb.theory.__doc__, head
        assert f"| `{head}` | `{syntax}` |" in readme, head


def test_hole_free_poly_is_certified(capsys, tmp_path):
    prog = tmp_path / "p.prog"
    prog.write_text("poly p holes=[] outers=[] envs=[] segs=[id(I)]\nequiv poly p p\n")
    assert run_cli(
        "run", str(THEORIES / "cartesian.thy"), str(prog), "--format", "json"
    ) == 0
    result = json.loads(capsys.readouterr().out)["queries"][1]["result"]
    assert result == {"certified": True, "method": "poly-name", "verdict": "equivalent"}


def mutate(text, rng):
    """``text`` after 1 to 3 edits, each a line duplicated or dropped, a
    character dropped or inserted (one of the text's own), or a token (a run
    of non-space) dropped or duplicated."""
    for _ in range(rng.randint(1, 3)):
        if not text:
            break
        lines = text.splitlines(keepends=True)
        words = re.split(r"(\s+)", text)  # the tokens are at the even places
        i, at = rng.randrange(len(lines)), rng.randrange(len(text))
        w = 2 * rng.randrange((len(words) + 1) // 2)
        text = rng.choice([
            "".join(lines[:i + 1] + lines[i:]),
            "".join(lines[:i] + lines[i + 1:]),
            text[:at] + text[at + 1:],
            text[:at] + rng.choice(text) + text[at:],
            "".join(words[:w] + words[w + 1:]),
            "".join(words[:w + 1] + [" "] + words[w:]),
        ])
    return text


def fuzz_case(case):
    """The theory and program texts of fuzz case ``case``: a bundled pair,
    one of whose two files is mutated by a generator seeded with ``case``."""
    rng = random.Random(case)
    texts = [(THEORIES / name).read_text(encoding="utf-8") for name in BUNDLED[case % 6]]
    which = rng.randrange(2)
    texts[which] = mutate(texts[which], rng)
    return texts


def run_fuzz(cases, folder):
    """The outcome of each case of ``cases`` run through ``cli.main`` in this
    process, by name: ``exit N``, ``skipped`` for a theory with an object
    extent above 8 (no backend is built for it), or ``traceback``."""
    outcomes = {}
    thy, prog = Path(folder) / "t.thy", Path(folder) / "p.prog"
    for case in cases:
        texts = fuzz_case(case)
        try:
            extents = parse_theory(texts[0]).objects.values()
        except TheoryError:
            extents = ()
        if any(extent > 8 for extent in extents):
            outcomes[case] = "skipped"
            continue
        thy.write_text(texts[0], encoding="utf-8")
        prog.write_text(texts[1], encoding="utf-8")
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", str(thy), str(prog)])
        except Exception:  # any escape from main is the fault looked for
            code = None
        outcomes[case] = "traceback" if code is None or "Traceback" in err.getvalue() \
            else f"exit {code}"
    return outcomes


def test_mutated_bundled_files_exit_with_a_message(tmp_path):
    """600 bundled pairs, each with one file mutated, exit 0, 2 or 3 and
    never escape with a traceback; a theory with a large object is skipped."""
    outcomes = run_fuzz(range(600), tmp_path)
    counts = Counter(outcomes.values())
    assert set(counts) <= {"exit 0", "exit 2", "exit 3", "skipped"}, [
        case for case, outcome in outcomes.items() if outcome == "traceback"]
    assert counts["exit 0"] and counts["exit 2"] and counts["skipped"] < 60, counts


class TestExitCodes:
    def test_missing_theory_file(self, capsys, tmp_path):
        prog = tmp_path / "p.prog"
        prog.write_text("equiv sigma a b\n")
        assert run_cli("run", str(tmp_path / "nope.thy"), str(prog)) == 2
        assert "theory error" in capsys.readouterr().err

    def test_invalid_theory(self, capsys, tmp_path):
        thy = tmp_path / "t.thy"
        thy.write_text("backend warp\n")
        prog = tmp_path / "p.prog"
        prog.write_text("equiv sigma a b\n")
        assert run_cli("run", str(thy), str(prog)) == 2
        assert "line 1" in capsys.readouterr().err

    def test_invalid_program(self, capsys, tmp_path):
        prog = tmp_path / "p.prog"
        prog.write_text("comb broken =\n")
        code = run_cli("run", str(THEORIES / "idempotent.thy"), str(prog))
        assert code == 2
        assert "program error" in capsys.readouterr().err

    def test_unbound_name_at_runtime(self, capsys, tmp_path):
        prog = tmp_path / "p.prog"
        prog.write_text("equiv sigma ghost ghost\n")
        code = run_cli("run", str(THEORIES / "idempotent.thy"), str(prog))
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_runtime_name_error_names_its_line(self, capsys, tmp_path):
        prog = tmp_path / "p.prog"
        prog.write_text("comb c = (top, lower) env I\n# unbound below\nequiv comb c ghost\n")
        assert run_cli("run", str(THEORIES / "bool2.thy"), str(prog)) == 2
        assert capsys.readouterr().err == "program error: line 3: no comb named 'ghost'\n"

    def test_inapplicable_strategy(self, capsys):
        code = run_cli(
            "run", str(THEORIES / "idempotent.thy"),
            str(THEORIES / "idempotent.prog"), "--strategy", "lens",
        )
        assert code == 3
        assert "cartesian" in capsys.readouterr().err

    def test_strategy_applies_per_relation(self, capsys):
        # braid is a comb route only: the optic query falls back to auto
        code = run_cli(
            "run", str(THEORIES / "idempotent.thy"),
            str(THEORIES / "idempotent.prog"), "--strategy", "braid",
            "--format", "json",
        )
        assert code == 0, capsys.readouterr().err
        results = {
            q["query"]: q["result"]
            for q in json.loads(capsys.readouterr().out)["queries"]
        }
        assert results["equiv comb c1 c2"]["method"] == "braid-value"
        assert results["equiv optic c1 c2"]["method"] == "slide-search"

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "abc"])
    def test_bad_tolerance_rejected(self, tolerance, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                "run", str(THEORIES / "unitary.thy"),
                str(THEORIES / "unitary.prog"), "--tolerance", tolerance,
            )
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--tolerance" in err and "finite number >= 0" in err
        assert "Traceback" not in err

    def test_bad_theory_tolerance_rejected(self, capsys, tmp_path):
        thy = tmp_path / "t.thy"
        thy.write_text("backend matrix semiring=complex tolerance=abc\n")
        code = run_cli("run", str(thy), str(THEORIES / "qubit.prog"))
        assert code == 2
        assert "finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["-1", "two"])
    def test_bad_bound_rejected(self, bound, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                "run", str(THEORIES / "idempotent.thy"),
                str(THEORIES / "idempotent.prog"), "--bound", bound,
            )
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--bound" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", MALFORMED_THEORIES)
    def test_malformed_theory_exits_2(self, name, capsys, tmp_path):
        thy = tmp_path / "t.thy"
        thy.write_text(MALFORMED_THEORIES[name])
        prog = tmp_path / "p.prog"
        prog.write_text("comb c = (h, id(x)) env I\nequiv comb c c\n")
        assert run_cli("run", str(thy), str(prog)) == 2
        err = capsys.readouterr().err
        assert err.startswith("theory error: ") and "Traceback" not in err
        if name in THEORY_REFUSAL_LINES:
            assert err.startswith(f"theory error: line {THEORY_REFUSAL_LINES[name]}: ")

    @pytest.mark.parametrize("name", MALFORMED_PROGRAMS)
    def test_malformed_program_exits_with_message(self, name, capsys, tmp_path):
        prog = tmp_path / "p.prog"
        prog.write_text(MALFORMED_PROGRAMS[name])
        run_time = name in RUN_TIME_REFUSALS
        assert run_cli("run", str(THEORIES / "bool2.thy"), str(prog)) == (3 if run_time else 2)
        err = capsys.readouterr().err
        assert err.startswith("error: " if run_time else "program error: line ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text", MALFORMED_WORDS.values(), ids=MALFORMED_WORDS.keys()
    )
    def test_malformed_word_is_a_parse_error(self, text, capsys, tmp_path):
        prog = tmp_path / "p.prog"
        prog.write_text(text)
        assert run_cli("run", str(THEORIES / "bool2.thy"), str(prog)) == 2
        assert capsys.readouterr().err.startswith("program error: line 1: ")

    def test_channels_on_different_boundaries_are_distinct(self, capsys, tmp_path):
        thy = tmp_path / "t.thy"
        thy.write_text(
            "backend matrix semiring=complex\n"
            "object q dim=2\n"
            "object r dim=3\n"
            "morphism copy : q -> q*q = [[1,0],[0,0],[0,0],[0,1]]\n"
            "morphism cycle : r -> r = [[0,1,0],[0,0,1],[1,0,0]]\n"
        )
        prog = tmp_path / "p.prog"
        prog.write_text(
            "dagger_comb d1 = copy env q\n"
            "dagger_comb d2 = cycle env I\n"
            "equiv cpm d1 d2\n"
            "equiv cpinf d1 d2\n"
        )
        assert run_cli("run", str(thy), str(prog), "--format", "json") == 0
        queries = json.loads(capsys.readouterr().out)["queries"]
        for q in queries[2:]:
            assert q["result"]["verdict"] == "distinct" and q["result"]["certified"]
            assert q["result"]["witness"]["note"] == "channel boundaries differ"

    @pytest.mark.parametrize("statement,message", [
        ("compose c1 c1 as c3",
         "inner boundary (a,a) does not match outer source (I,I)"),
        ("comb c2 = (id(a), id(a)) env I\nequiv comb c1 c2",
         "different boundaries: CombRep((I,I) -> (a,a) env I) vs "
         "CombRep((a,a) -> (a,a) env I)"),
    ], ids=["nest", "equiv"])
    def test_boundary_mismatch_prints_words(self, statement, message, capsys, tmp_path):
        prog = tmp_path / "p.prog"
        prog.write_text(f"comb c1 = (psi, bang) env I\n{statement}\n")
        assert run_cli("run", str(THEORIES / "pointed.thy"), str(prog)) == 3
        err = capsys.readouterr().err
        assert message in err and "ObjectWord" not in err

    @pytest.mark.parametrize("statement", CHANNEL_STATEMENTS)
    def test_channel_statement_without_channels(self, statement, capsys, tmp_path):
        prog = tmp_path / "p.prog"
        prog.write_text(f"comb c1 = (psi, bang) env I\n{statement}\n")
        assert run_cli("run", str(THEORIES / "pointed.thy"), str(prog)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_ill_typed_statement(self, capsys, tmp_path):
        prog = tmp_path / "p.prog"
        # f : a -> a cannot carry an environment b: no such object exists
        prog.write_text("comb c = (f ; f ; missing, f) env a\n")
        code = run_cli("run", str(THEORIES / "idempotent.thy"), str(prog))
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")


class TestStrategySurface:
    """``--strategy`` names a route of some relation's table: each relation
    runs it where its table lists it and auto otherwise."""

    def test_choices(self):
        run = next(a for a in build_parser()._actions if a.dest == "command").choices["run"]
        strategy = next(a for a in run._actions if a.dest == "strategy")
        assert list(strategy.choices) == [
            "auto", "braid", "enumerate", "lens", "name-form", "unitary-factor", "zigzag"
        ]

    def test_channel_relations_offer_only_auto(self):
        from opticomb.cpm import CPINF, CPM

        assert CPM.strategies == CPINF.strategies == ("auto",)

    def test_unknown_strategy_raises_at_the_first_equiv_comb(self):
        # the first query of the cartesian program is an equiv comb, whose
        # table names the strategies it expected
        statements = load_program(str(THEORIES / "cartesian.prog"))
        first = next(s for s in statements if s.line.startswith("equiv "))
        assert first.line.startswith("equiv comb ")
        with pytest.raises(IncompatibleStrategy,
                           match=r"unknown strategy 'bogus', expected one of \('auto', 'braid'"):
            run_program(load_theory(str(THEORIES / "cartesian.thy")), statements,
                        strategy="bogus")

    @pytest.mark.parametrize("thy,prog", BUNDLED)
    def test_zigzag_leaves_the_other_relations_on_auto(self, thy, prog):
        statements = [s for s in load_program(str(THEORIES / prog))
                      if not s.line.startswith("equiv optic ")]

        def decisions(strategy):
            reports = run_program(load_theory(str(THEORIES / thy)), statements, strategy=strategy)
            return [(r.query, r.payload) for r in reports if r.kind == "decision"]

        assert decisions("zigzag") == decisions("auto")


def test_strategy_matrix_matches_fixture():
    """Every bundled pair under every strategy, in text and JSON, with and
    without ``--tolerance``, prints what the fixture's digests record."""
    spec = importlib.util.spec_from_file_location(
        "strategy_matrix", ROOT / "scripts" / "strategy_matrix.py")
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    expected = json.loads(matrix.FIXTURE.read_text(encoding="utf-8"))
    assert len(expected) == 168
    assert matrix.differing(expected, matrix.digests()) == []


def test_every_mutant_applies_once():
    """Each mutant of ``scripts/mutants.py`` replaces a text that occurs
    exactly once in its file, and names tests in files that exist, so the
    table cannot rot silently.  Running the mutants is the script's job."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS) >= 9
    for m in mutants.MUTANTS:
        assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name
        assert m.tests and all((ROOT / t.split("::")[0]).is_file() for t in m.tests), m.name


class TestFlags:
    def test_tolerance_override_relaxes_comparison(self, capsys, tmp_path):
        thy = tmp_path / "t.thy"
        thy.write_text(
            "backend matrix semiring=complex\n"
            "object q dim=2\n"
            "morphism u : q -> q = [[1,0],[0,1]]\n"
            "morphism v : q -> q = [[1,0],[0,1.0000001]]\n"
        )
        prog = tmp_path / "p.prog"
        prog.write_text(
            "comb c1 = (u, id(q)) env I\n"
            "comb c2 = (v, id(q)) env I\n"
            "equiv sigma c1 c2\n"
        )
        assert run_cli("run", str(thy), str(prog), "--format", "json") == 0
        strict = json.loads(capsys.readouterr().out)
        assert strict["queries"][2]["result"]["verdict"] == "distinct"
        assert run_cli(
            "run", str(thy), str(prog), "--format", "json", "--tolerance", "0.001"
        ) == 0
        loose = json.loads(capsys.readouterr().out)
        assert loose["queries"][2]["result"]["verdict"] == "equivalent"

    def test_tolerance_flag_leaves_exact_theories_alone(self, capsys):
        args = (
            "run", str(THEORIES / "bool2.thy"), str(THEORIES / "bool2.prog"),
            "--format", "json",
        )
        assert run_cli(*args) == 0
        plain = capsys.readouterr().out
        assert run_cli(*args, "--tolerance", "0.5") == 0
        assert capsys.readouterr().out == plain

    def test_bound_flag_widens_tau(self, capsys):
        # with pointed states the tau scan stays inconclusive at any bound
        code = run_cli(
            "run", str(THEORIES / "pointed.thy"), str(THEORIES / "pointed.prog"),
            "--bound", "3", "--format", "json",
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        tau = [
            q for q in data["queries"]
            if q["kind"] == "decision" and q["query"].startswith("equiv tau")
        ]
        assert tau and tau[0]["result"]["verdict"] == "unknown"

    def test_tolerance_override_reaches_cpm_summary(self, capsys, tmp_path):
        # the copy isometry's Kraus pieces sum to diag(1, 1.000001**2)
        thy = tmp_path / "t.thy"
        thy.write_text(
            "backend matrix semiring=complex\n"
            "object q dim=2\n"
            "morphism copy : q -> q*q = [[1,0],[0,0],[0,0],[0,1.000001]]\n"
        )
        prog = tmp_path / "p.prog"
        prog.write_text("dagger_comb d = copy env q\nequiv cpm d d\ncpm d\n")
        for tolerance, preserving in ((None, False), ("0.001", True)):
            flag = () if tolerance is None else ("--tolerance", tolerance)
            assert run_cli("run", str(thy), str(prog), "--format", "json", *flag) == 0
            _, equiv, summary = json.loads(capsys.readouterr().out)["queries"]
            assert equiv["result"]["tolerance"] == float(tolerance or 1e-9)
            assert summary["result"]["trace_preserving"] is preserving


class TestScripts:
    """The two experiment scripts run end to end."""

    def test_agreement_stats(self):
        done = run_child("scripts/agreement_stats.py")
        assert done.returncode == 0, done.stderr

    def test_sigma_congruence_search(self):
        done = run_child("scripts/search_sigma_congruence.py")
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        for name in ("free-commutative", "free-pointed", "matrix[bool]", "finfun"):
            assert f"{name}: no separating filler" in lines
        assert any(
            line.startswith("free-pointed-absorbing: separating filler found")
            for line in lines
        )


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = run_child(
            "-m", "opticomb.cli", "run",
            str(THEORIES / "cartesian.thy"), str(THEORIES / "cartesian.prog"),
            "--format", "json",
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["format"] == 1


class TestImports:
    def test_bare_import_leaves_numpy_unloaded(self):
        proc = run_child("-c", NUMPY_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "False"

    @pytest.mark.parametrize("name", ["pointed", "idempotent", "cartesian"])
    def test_numpy_free_pair_leaves_numpy_unloaded(self, name):
        proc = run_child(
            "-c", NUMPY_PROBE, "run",
            str(THEORIES / f"{name}.thy"), str(THEORIES / f"{name}.prog"),
            "--format", "json",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        assert proc.stderr.strip().splitlines()[-1] == "False"

    def test_bare_import_loads_no_backend(self):
        proc = run_child("-c", MODULES_PROBE)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stderr.split()
        assert "opticomb.core" in loaded
        assert not [m for m in loaded if m.startswith("opticomb.backends")]

    @pytest.mark.parametrize("name", sorted(FOOTPRINTS))
    def test_a_run_loads_only_its_own_backend(self, name):
        proc = run_child(
            "-c", MODULES_PROBE, "run",
            str(THEORIES / f"{name}.thy"), str(THEORIES / f"{name}.prog"), "--format", "json",
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.split())
        own, unused = FOOTPRINTS[name]
        assert f"opticomb.backends.{own}" in loaded
        assert not loaded & unused, sorted(loaded & unused)

    def test_program_imports_no_backend(self):
        # values and witnesses serialize themselves, so the program layer
        # needs no backend module
        tree = ast.parse((ROOT / "src" / "opticomb" / "program.py").read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["opticomb" if node.level else "", node.module]))
                imported += [f"{base}.{alias.name}" for alias in node.names]
        assert imported and not [m for m in imported if m.startswith("opticomb.backends")]

    def test_every_definition_is_named_in_src(self):
        """Each function, method and class of ``src/`` is named by code in
        ``src/`` outside its own definitions: an identifier, an imported name,
        or a word of a string constant (the lazy exports), docstrings and
        f-string text aside.  Dunder methods are called by Python; the rest is
        ``UNNAMED_IN_SRC``."""
        defined, named = {}, set()
        src = ROOT / "src" / "opticomb"
        for path in sorted(src.rglob("*.py")):
            scan_names(path, path.relative_to(src), defined, named)
        unnamed = {
            name: where for name, where in defined.items()
            if name not in named and not (name.startswith("__") and name.endswith("__"))
        }
        assert sorted(unnamed) == sorted(UNNAMED_IN_SRC), unnamed

    def test_every_public_name_has_a_caller(self):
        """Each name of ``PUBLIC_NAMES`` is read by code in ``src/`` (the
        package's re-exports and the name's own definition aside),
        ``scripts/`` or ``perfbench/``, or is in ``UNCALLED_PUBLIC``: an
        export, or an import nothing reads, is no caller."""
        named = set()
        paths = [path for folder in ("src", "scripts", "perfbench")
                 for path in sorted((ROOT / folder).rglob("*.py"))
                 if path != ROOT / "src" / "opticomb" / "__init__.py"]
        for path in paths:
            scan_names(path, path.relative_to(ROOT), {}, named, reads_only=True)
        public = {name for names in PUBLIC_NAMES.values() for name in names.split()}
        assert sorted(public - named) == sorted(UNCALLED_PUBLIC)

    def test_public_names_are_their_modules_objects(self):
        for module, names in PUBLIC_NAMES.items():
            defining = importlib.import_module(f"opticomb.{module}")
            for name in names.split():
                assert getattr(opticomb, name) is getattr(defining, name), name
                assert name in dir(opticomb), name
