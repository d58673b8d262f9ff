import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from opticomb import (
    BoundaryMismatch,
    FinFunBackend,
    IdempotentFreeBackend,
    MatrixBackend,
    NotCartesian,
    PointedFreeBackend,
    UnitaryBackend,
)
from opticomb.program import (
    ProgramError,
    decision_json,
    parse_program,
    parse_term,
    render_json,
    render_text,
    run_program,
    term_text,
    value_json,
    witness_json,
)
from opticomb.theory import TheoryError, build_backend, parse_theory

from conftest import word

THEORIES = Path(__file__).resolve().parent.parent / "theories"


def make_backend(text):
    return build_backend(parse_theory(text))


class TestTheoryParsing:
    def test_backend_must_come_first(self):
        with pytest.raises(TheoryError) as err:
            parse_theory("object q dim=2\nbackend matrix")
        assert err.value.line_no == 1

    def test_unknown_kind(self):
        with pytest.raises(TheoryError) as err:
            parse_theory("backend ring")
        assert err.value.line_no == 1

    def test_duplicate_backend(self):
        with pytest.raises(TheoryError) as err:
            parse_theory("backend matrix\nbackend finfun")
        assert err.value.line_no == 2

    def test_empty_theory(self):
        with pytest.raises(TheoryError):
            parse_theory("# only a comment\n")

    def test_unknown_declaration_line_number(self):
        with pytest.raises(TheoryError) as err:
            parse_theory("backend matrix\n\nwidget q dim=2")
        assert err.value.line_no == 3

    def test_bad_morphism_literal(self):
        with pytest.raises(TheoryError) as err:
            parse_theory("backend matrix\nobject q dim=2\nmorphism u : q -> q = [[1,")
        assert err.value.line_no == 3

    @pytest.mark.parametrize("text,line_no,message", [
        ("backend matrix\nobject I dim=2", 2, "object name must be an identifier other than I"),
        ("backend free-pointed object=I", 1, "object name must be an identifier other than I"),
        ("backend matrix\nobject x*y dim=2", 2, "object name must be an identifier"),
        ("backend matrix\nobject x dim=2\nmorphism h h : x -> x = [[1,0],[0,1]]", 3,
         "morphism name must be an identifier, got 'h h'"),
        ("backend finfun\nobject s size=2\nobject s size=3", 3, "object s declared twice"),
        ("backend finfun\nobject s size=2\nmorphism f : s -> s = [0, 1]\n"
         "morphism f : s -> s = [1, 0]", 4, "morphism f declared twice"),
        ("backend matrix semiring=bool semiring=complex", 1, "option semiring declared twice"),
    ])
    def test_names_a_program_can_write_declared_once(self, text, line_no, message):
        with pytest.raises(TheoryError, match=f"^line {line_no}: {message}"):
            parse_theory(text)

    @pytest.mark.parametrize("text,line_no,message", [
        ("backend free-commutative colour=red", 1,
         "unknown options ['colour'] for free-commutative"),
        ("backend free-pointed object=a colour=red", 1,
         "unknown options ['colour'] for free-pointed"),
        ("backend unitary semiring=bool", 1, "unknown options ['semiring'] for unitary"),
        ("backend matrix\nobject x dim=1\nrule h ; h -> h", 3, "matrix theories take no rules"),
        ("backend free-commutative endo=g\n\nrule g ; f -> g", 3,
         "the only rule available is g ; g -> g"),
        ("backend free-pointed\nrule phi ; bang -> phi", 2, "pointed rules collapse to 1"),
    ])
    def test_options_and_rules_refused_on_their_line(self, text, line_no, message):
        with pytest.raises(TheoryError, match=f"^line {line_no}: {re.escape(message)}$"):
            parse_theory(text)

    @pytest.mark.parametrize("extent,message", [
        ("1_0", "dim must be an integer"), ("+2", "dim must be an integer"),
        ("\u0662", "dim must be an integer"), ("", "dim must be an integer"),
        ("-1", "dim must be nonnegative"), ("2 3", "object syntax: object NAME EXTENT"),
    ])
    def test_extents_are_ascii_digits(self, extent, message):
        with pytest.raises(TheoryError, match=f"^line 2: {re.escape(message)}$"):
            parse_theory(f"backend matrix\nobject x dim={extent}")

    def test_object_wants_right_extent_key(self):
        with pytest.raises(TheoryError):
            parse_theory("backend matrix\nobject q size=2")
        with pytest.raises(TheoryError):
            parse_theory("backend finfun\nobject s dim=2")


class TestBackendBuilding:
    def test_complex_matrix_with_pair_entries(self):
        be = make_backend(
            "backend matrix semiring=complex tolerance=1e-8\n"
            "object q dim=2\n"
            "morphism u : q -> q = [[[0,1],[0,0]],[[0,0],[0,-1]]]\n"
        )
        assert isinstance(be, MatrixBackend) and be.semiring == "complex"
        u = be.generator("u")
        assert np.allclose(u.array, np.array([[1j, 0], [0, -1j]]))

    def test_rational_matrix_with_fraction_strings(self):
        be = make_backend(
            "backend matrix semiring=rational\n"
            "object q dim=2\n"
            'morphism h : q -> q = [["1/2",1],[0,"2/3"]]\n'
        )
        h = be.generator("h")
        assert h.array[0, 0] == Fraction(1, 2)
        assert h.array[1, 1] == Fraction(2, 3)

    def test_finfun_needs_integer_tables(self):
        with pytest.raises(TheoryError):
            make_backend(
                "backend finfun\nobject s size=2\n"
                "morphism f : s -> s = [[0],[1]]\n"
            )
        be = make_backend(
            "backend finfun\nobject s size=2\nmorphism f : s -> s = [1,0]\n"
        )
        assert isinstance(be, FinFunBackend)
        assert be.generator("f").table == (1, 0)

    def test_free_kinds_forbid_objects(self):
        with pytest.raises(TheoryError):
            make_backend("backend free-commutative\nobject a dim=1\n")

    def test_idempotent_rule_is_pinned(self):
        be = make_backend(
            "backend free-commutative object=a endo=f\nrule f ; f -> f\n"
        )
        assert isinstance(be, IdempotentFreeBackend)
        with pytest.raises(TheoryError):
            make_backend("backend free-commutative endo=f\nrule f ; g -> f\n")

    def test_pointed_rules_collapse_to_one(self):
        be = make_backend(
            "backend free-pointed object=a states=phi,psi effects=bang\n"
            "rule phi ; bang -> 1\nrule psi ; bang -> 1\n"
        )
        assert isinstance(be, PointedFreeBackend)
        with pytest.raises(TheoryError):
            make_backend("backend free-pointed\nrule phi ; bang -> phi\n")

    def test_unitary_backend(self):
        be = make_backend(
            "backend unitary tolerance=1e-9\n"
            "object q dim=2\n"
            "morphism x : q -> q = [[0,1],[1,0]]\n"
        )
        assert isinstance(be, UnitaryBackend)

    @pytest.mark.parametrize("kind", ["matrix semiring=complex", "unitary"])
    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1e-9", ""])
    def test_bad_tolerance_rejected(self, kind, value):
        with pytest.raises(TheoryError, match="finite number >= 0"):
            make_backend(f"backend {kind} tolerance={value}\nobject q dim=2\n")

    def test_unknown_option_rejected(self):
        with pytest.raises(TheoryError):
            make_backend("backend matrix flavor=spicy\n")


class TestTermGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "f",
            "f ; g",
            "f * g",
            "id(a)",
            "sym(a,b)",
            "id(I)",
            "(f ; g) * h",
            "f ; g * h",
            "sym(a*b,c) ; (id(a) * k)",
        ],
    )
    def test_round_trip(self, text):
        term = parse_term(text)
        again = parse_term(term_text(term))
        assert again == term

    def test_tensor_binds_tighter(self):
        assert parse_term("f ; g * h") == parse_term("f ; (g * h)")
        assert parse_term("f ; g * h") != parse_term("(f ; g) * h")

    def test_reports_bad_syntax(self):
        for bad in ("f ;", "(f", "sym(a)", "f **", ""):
            with pytest.raises(ProgramError):
                parse_term(bad)


class TestProgramParsing:
    def test_declarations_and_queries(self):
        stmts = parse_program(
            "comb c1 = (f, id(a)) env I\n"
            "equiv sigma c1 c1\n"
            "compose c1 c1 as c2\n"
            "tensor c1 c2 as c3\n"
            "lens c1\n"
            "cpm c1\n"
        )
        kinds = [type(s).__name__ for s in stmts]
        assert kinds == [
            "CombDecl", "EquivQuery", "ComposeQuery", "ComposeQuery",
            "LensQuery", "CpmQuery",
        ]
        assert stmts[2].op == "compose" and stmts[3].op == "tensor"

    def test_poly_declaration(self):
        (decl,) = parse_program(
            "poly p holes=[(a,b)] outers=[(a,b)] envs=[I] segs=[id(a) | id(b)]\n"
        )
        assert decl.holes == ((word("a"), word("b")),)
        assert decl.envs == (word(),)
        assert len(decl.seg_terms) == 2

    def test_plug_with_and_without_port(self):
        with_port, without = parse_program(
            "plug p at 1 with q port 0 as r\nplug p at 0 with q as r2\n"
        )
        assert (with_port.hole, with_port.port) == (1, 0)
        assert (without.hole, without.port) == (0, None)

    def test_line_numbers_in_errors(self):
        with pytest.raises(ProgramError) as err:
            parse_program("comb ok = (f, g) env I\nequiv warp a b\n")
        assert err.value.line_no == 2

    def test_unknown_statement(self):
        with pytest.raises(ProgramError):
            parse_program("summon c1\n")

    def test_comb_needs_env_clause(self):
        with pytest.raises(ProgramError):
            parse_program("comb c1 = (f, g)\n")

    @pytest.mark.parametrize("prog", sorted(THEORIES.glob("*.prog")), ids=lambda p: p.stem)
    def test_declarations_read_whatever_their_spacing(self, prog):
        # a tab or no space before env, spaces around = and inside [...], a tab
        # after the poly name, no space around punctuation, or spaces and tabs
        respacings = (
            lambda line: re.sub(r"\s+env\s+", "\tenv ", line),
            lambda line: re.sub(r"\)\s*env", ")env", line),
            lambda line: line.replace("=", " = ").replace("[", "[ ").replace("]", " ]"),
            lambda line: re.sub(r"^poly (\w+) ", r"poly \1\t", line),
            lambda line: re.sub(r"\s*([()\[\],=|;*])\s*", r"\1", line),
            lambda line: re.sub(r"([()\[\],=|;*])", r" \1\t", line),
        )
        declared = 0
        for line in prog.read_text().splitlines():
            if line.split(" ")[0] not in ("comb", "dagger_comb", "poly"):
                continue
            (original,) = parse_program(line)
            for respace in respacings:
                (stmt,) = parse_program(respace(line))
                assert stmt.replace(line=line) == original, respace(line)
            declared += 1
        assert declared

    @pytest.mark.parametrize("prog", sorted(THEORIES.glob("*.prog")), ids=lambda p: p.stem)
    def test_any_whitespace_after_the_head(self, prog):
        statements = parse_program(prog.read_text())
        assert statements
        for original in statements:
            head, rest = original.line.split(" ", 1)
            for gap in ("\t", " \t ", "   "):
                (stmt,) = parse_program(head + gap + rest)
                assert stmt.replace(
                    line=original.line, line_no=original.line_no) == original, gap


class TestRunProgram:
    @pytest.fixture
    def be(self):
        return make_backend(
            "backend finfun\nobject s size=2\n"
            "morphism dup : s -> s*s = [0,3]\n"
            "morphism fst : s*s -> s = [0,0,1,1]\n"
            "morphism snd : s*s -> s = [0,1,0,1]\n"
        )

    def test_binding_flow(self, be):
        reports = run_program(be, parse_program(
            "comb c1 = (dup, fst) env s\n"
            "comb c2 = (dup, snd) env s\n"
            "equiv comb c1 c2\n"
            "lens c1\n"
        ))
        assert [r.kind for r in reports] == ["comb", "comb", "decision", "lens"]
        assert reports[2].payload["verdict"] == "distinct"
        assert reports[3].payload["get"]["table"] == [0, 1]

    def test_unbound_name(self, be):
        with pytest.raises(ProgramError):
            run_program(be, parse_program("equiv comb ghost ghost\n"))

    def test_comb_auto_lifts_into_plug(self, be):
        reports = run_program(be, parse_program(
            "comb c1 = (dup, fst) env s\n"
            "poly host holes=[(s,s)] outers=[(s,s)] envs=[I] "
            "segs=[id(s) | id(s)]\n"
            "plug host at 0 with c1 as joined\n"
        ))
        assert reports[-1].kind == "poly"
        assert reports[-1].payload["holes"] == [["s", "s"]]

    def test_a_one_hole_plug_result_is_a_comb(self, be):
        """A piece with one hole is a comb, whichever statement bound it:
        ``equiv comb`` reads a one-hole ``plug`` result, and a two-hole name
        in a comb statement names no comb."""
        reports = run_program(be, parse_program(
            "comb c1 = (dup, fst) env s\n"
            "comb c2 = (dup, snd) env s\n"
            "poly host holes=[(s,s)] outers=[(s,s)] envs=[I] segs=[id(s) | id(s)]\n"
            "plug host at 0 with c1 as joined\n"
            "equiv comb joined c1\n"
            "equiv comb joined c2\n"
        ))
        assert [r.payload["verdict"] for r in reports[-2:]] == ["equivalent", "distinct"]
        two = ("poly two holes=[(s,s),(s,s)] outers=[(s,s)] envs=[I,I] "
               "segs=[id(s) | id(s) | id(s)]\n")
        for statement in ("equiv comb two two", "lens two", "compose two two as t"):
            with pytest.raises(ProgramError, match="^line 2: no comb named 'two'$"):
                run_program(be, parse_program(two + statement + "\n"))

    def test_compose_puts_the_second_comb_into_the_hole_of_the_first(self):
        be = make_backend(
            "backend finfun\nobject x size=2\nobject y size=2\n"
            "morphism k : x -> y = [1, 0]\nmorphism k2 : y -> x = [1, 0]\n"
        )
        combs = "comb host = (id(x), id(x)) env I\ncomb fill = (k, k2) env I\n"
        statements = parse_program(combs + "compose host fill as c\n")
        assert (statements[-1].outer, statements[-1].inner) == ("host", "fill")
        composite = run_program(be, statements)[-1].payload
        assert (composite["source"], composite["hole"]) == (["x", "x"], ["y", "y"])
        with pytest.raises(BoundaryMismatch):
            run_program(be, parse_program(combs + "compose fill host as c\n"))

    def test_free_endo_named_unit_is_a_generator(self):
        # the term reader reads I in term position as a generator
        be = make_backend("backend free-commutative endo=I\n")
        reports = run_program(be, parse_program("comb c = (I, id(a)) env I\nequiv comb c c\n"))
        assert reports[-1].payload["verdict"] == "equivalent"

    def test_lens_on_non_cartesian_backend_escapes(self):
        be = make_backend("backend matrix\nobject q dim=2\n"
                          "morphism u : q -> q = [[0,1],[1,0]]\n")
        with pytest.raises(NotCartesian):
            run_program(be, parse_program(
                "comb c = (u, id(q)) env I\nlens c\n"
            ))


class TestSerialization:
    @pytest.fixture
    def reports(self):
        be = make_backend(
            "backend finfun\nobject s size=2\n"
            "morphism dup : s -> s*s = [0,3]\n"
            "morphism fst : s*s -> s = [0,0,1,1]\n"
            "morphism snd : s*s -> s = [0,1,0,1]\n"
        )
        return run_program(be, parse_program(
            "comb c1 = (dup, fst) env s\n"
            "comb c2 = (dup, snd) env s\n"
            "equiv comb c1 c2\n"
            "equiv tau c1 c1\n"
        ))

    def test_json_is_deterministic(self, reports):
        assert render_json(reports) == render_json(reports)

    def test_json_shape(self, reports):
        import json

        data = json.loads(render_json(reports))
        assert data["format"] == 1
        assert [q["kind"] for q in data["queries"]] == [
            "comb", "comb", "decision", "decision",
        ]
        assert data["queries"][2]["query"] == "equiv comb c1 c2"

    def test_text_blocks(self, reports):
        text = render_text(reports)
        assert "== equiv comb c1 c2" in text
        assert "verdict" in text

    def test_text_of_a_two_hole_name_witness(self):
        """The swap filler in every hole: one context and one probe per hole."""
        be = make_backend((THEORIES / "bool2.thy").read_text(encoding="utf-8"))
        reports = run_program(be, parse_program(
            "poly p holes=[(b,b),(b,b)] outers=[(b,b)] envs=[I,I] segs=[top | id(b) | lower]\n"
            "poly q holes=[(b,b),(b,b)] outers=[(b,b)] envs=[I,I] segs=[lower | id(b) | top]\n"
            "equiv poly p q\n"
        ))
        text = render_text(reports[-1:])
        assert "     context: (b, b) (b, b)\n     probe: sym(b,b) sym(b,b)\n" in text

    def test_decision_json_keys(self, reports):
        payload = reports[2].payload
        assert set(payload) >= {"verdict", "method", "certified", "witness"}
        assert payload["certified"] is True

    def test_value_json_covers_backends(self, cbe, ffb, idem, rng):
        from conftest import rand_mat

        m = value_json(rand_mat(cbe, rng, word("x"), word("y")))
        assert m["dom"] == "x" and m["cod"] == "y"
        assert len(m["entries"]) == 3 and len(m["entries"][0]) == 2
        fn = value_json(ffb.fun(word("s"), word("s"), [1, 0]))
        assert fn["table"] == [1, 0]
        st = value_json(idem.generator("f"))
        assert st["touched"] is True

    def test_witness_json_probe(self, cbe, rng):
        from opticomb import comb, equiv_sigma
        from conftest import rand_mat

        e = word("x")
        mk = lambda: comb(
            cbe,
            rand_mat(cbe, rng, word("x"), e @ word("y")),
            rand_mat(cbe, rng, e @ word("y"), word("x")),
            env=e,
        )
        d = equiv_sigma(cbe, mk(), mk())
        blob = witness_json(d.witness)
        assert blob["type"] == "probe"
        assert blob["context_in"] == "y" and blob["context_out"] == "y"
        assert blob["probe_term"] == "sym(y,y)"
        payload = decision_json(d)
        assert payload["verdict"] == "distinct"
        assert payload["witness"]["type"] == "probe"
