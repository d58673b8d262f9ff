"""Program files: morphism terms, bindings, and queries over a theory.

A program is read by ``theory``'s line grammar: ``#`` comments and blank
lines are skipped, a line's head ends at its first whitespace, and every
refusal starts ``line N: ``.  ``STATEMENTS`` maps each head to the
statement class that parses the rest of the line and runs it.  Bindings:

    comb c1 = (f, g) env e
    dagger_comb d1 = v env e
    poly p1 holes=[(x,y)] outers=[(x,y)] envs=[e] segs=[f | g]

Terms compose diagrammatically with ``;`` (loose) and tensor with ``*``
(tight); ``id(W)`` and ``sym(W1,W2)`` build structural pieces, where a
word is ``I`` or factor names joined by ``*``.  A declaration is read
token by token by the term reader, so spacing between its tokens does not
matter.  A query is read against its ``syntax`` (``theory.read_syntax``):

    equiv sigma c1 c2          # also tau, comb, optic, cpm, cpinf, poly
    compose c1 c2 as c3        # c2 fills the hole of c1
    tensor c1 c2 as c3
    plug p1 at 0 with p2 as p3 # optionally: ... with p2 port 1 as p3
    lens c1
    cpm d1

Object and generator names follow ``core.NAME``, as in theories; every
name a statement binds is one ``\\w+`` word.  Each statement reports a
result of one kind (``comb``, ``poly``, ``decision``, ``lens`` or
``cpm``), and ``REPORT_TEXT`` holds the text of each kind.

Query results serialize to text or to deterministic JSON: keys are
sorted and nothing environment-dependent (timestamps, durations,
addresses) is ever included, so identical runs give identical bytes.
"""
from __future__ import annotations

import json
import re

# value, witness and decision JSON and term_text live in core, beside the
# classes they serialize; they are imported here for this module's callers too
from .core import (
    NAME,
    Backend,
    Compose,
    Generator,
    Identity,
    MorTerm,
    ObjectWord,
    Record,
    Symmetry,
    Tensor,
    decision_json,
    eval_term,
    term_text,
    value_json,
    witness_json,
)
from .comb import COMB, SIGMA, TAU, CombRep, comb, comb_compose, comb_tensor, decide, lens_pair
from .optic import OPTIC
from .polycomb import POLY, poly, poly_compose_at
from .theory import InputError, read_lines, read_syntax


class ProgramError(InputError):
    """Raised when a program file cannot be parsed or references nothing."""


# ---------------------------------------------------------------------------
# Term parsing
# ---------------------------------------------------------------------------

_NAME = re.compile(NAME)
_TOKEN = re.compile(rf"{NAME}|\S")


class _TermParser:
    def __init__(self, text: str, line_no: int | None = None):
        self.tokens = _TOKEN.findall(text)
        self.pos = 0
        self.line_no = line_no
        self.text = text

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ProgramError(f"unexpected end of term in {self.text!r}", self.line_no)
        self.pos += 1
        return tok

    def expect(self, *toks: str) -> None:
        for tok in toks:
            got = self.take()
            if got != tok:
                raise ProgramError(
                    f"expected {tok!r}, got {got!r} in {self.text!r}", self.line_no
                )

    def done(self, result):
        """``result``, read from the whole text."""
        if self.peek() is not None:
            raise ProgramError(
                f"trailing input {self.peek()!r} in {self.text!r}", self.line_no
            )
        return result

    def seq(self) -> MorTerm:
        left = self.tens()
        while self.peek() == ";":
            self.take()
            left = Compose(left, self.tens())
        return left

    def tens(self) -> MorTerm:
        left = self.atom()
        while self.peek() == "*":
            self.take()
            left = Tensor(left, self.atom())
        return left

    def word(self) -> ObjectWord:
        """``I`` alone, or object names joined by ``*``."""
        names = [self.object_name()]
        while self.peek() == "*":
            self.take()
            names.append(self.object_name())
        if names == ["I"]:
            return ObjectWord.unit()
        if "I" in names:
            raise ProgramError(f"I stands alone, not in {'*'.join(names)!r}", self.line_no)
        return ObjectWord.of(*names)

    def pair(self) -> tuple[ObjectWord, ObjectWord]:
        """``(W,W)``."""
        self.expect("(")
        left = self.word()
        self.expect(",")
        right = self.word()
        self.expect(")")
        return left, right

    def listing(self, key: str, item, sep: str = ",", empty: bool = True) -> tuple:
        """``key=[x sep x ...]``, each ``x`` read by ``item``; ``key=[]`` if ``empty``."""
        self.expect(key, "=", "[")
        items = [] if empty and self.peek() == "]" else [item()]
        while self.peek() == sep:
            self.take()
            items.append(item())
        self.expect("]")
        return tuple(items)

    def object_name(self) -> str:
        tok = self.take()
        if not _NAME.fullmatch(tok):
            raise ProgramError(f"expected an object name, got {tok!r}", self.line_no)
        return tok

    def atom(self) -> MorTerm:
        tok = self.take()
        if tok == "(":
            inner = self.seq()
            self.expect(")")
            return inner
        if tok == "id" and self.peek() == "(":
            self.take()
            w = self.word()
            self.expect(")")
            return Identity(w)
        if tok == "sym" and self.peek() == "(":
            return Symmetry(*self.pair())
        if _NAME.fullmatch(tok):
            return Generator(tok)
        raise ProgramError(f"unexpected token {tok!r} in {self.text!r}", self.line_no)


def parse_term(text: str, line_no: int | None = None) -> MorTerm:
    parser = _TermParser(text, line_no)
    return parser.done(parser.seq())


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def _channels():
    """The channel module: it needs numpy, so the first channel statement loads it."""
    from . import cpm

    return cpm


#: each relation of ``equiv``; a channel relation (None) needs numpy, so it is
#: looked up in the channel module, by its name in capitals, on first use
RELATIONS = {"sigma": SIGMA, "tau": TAU, "comb": COMB, "optic": OPTIC,
             "cpm": None, "cpinf": None, "poly": POLY}
#: the strategies the relations offer; the channel relations offer only auto
STRATEGIES = tuple(sorted({s for r in RELATIONS.values() if r for s in r.strategies}))


class _Run:
    """What the statements of one run share: the backend, the options and
    the names bound so far."""

    def __init__(self, backend: Backend, strategy: str, bound: int):
        self.backend, self.strategy, self.bound = backend, strategy, bound
        self.pieces: dict[str, CombRep] = {}

    def get_comb(self, name: str) -> CombRep:
        """The piece named ``name``, if it has one hole: a comb."""
        if name not in self.pieces or len(self.pieces[name].holes) != 1:
            raise ProgramError(f"no comb named {name!r}")
        return self.pieces[name]

    def get_poly(self, name: str) -> CombRep:
        if name not in self.pieces:
            raise ProgramError(f"no poly or comb named {name!r}")
        return self.pieces[name]

    def bind_comb(self, name: str, c: CombRep) -> tuple[str, dict]:
        """Bind ``c`` to ``name`` and report its boundary."""
        self.pieces[name] = c
        return "comb", {
            "source": [c.source[0].pretty(), c.source[1].pretty()],
            "hole": [c.target[0].pretty(), c.target[1].pretty()],
            "env": c.env.pretty(),
        }

    def bind_poly(self, name: str, p: CombRep) -> tuple[str, dict]:
        """Bind ``p`` to ``name`` and report its shape."""
        self.pieces[name] = p
        return "poly", {
            "holes": [[a.pretty(), b.pretty()] for a, b in p.holes],
            "outers": [[a.pretty(), b.pretty()] for a, b in p.outers],
            "envs": [e.pretty() for e in p.envs],
        }


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

def _name(head: str, name: str, line_no: int) -> str:
    """``name``, which the statement binds, if it is one ``\\w+`` word."""
    if not re.fullmatch(r"\w+", name):
        raise ProgramError(f"{head} name must be one \\w+ word, got {name!r}", line_no)
    return name


def _declaration(head: str, rest: str, line_no: int) -> tuple[str, _TermParser]:
    """The name a declaration binds, and a reader of the rest of its line."""
    name = re.match(r"\w*", rest).group()
    return _name(head, name, line_no), _TermParser(rest[len(name):].lstrip(), line_no)


class Statement(Record):
    """One program line, without its comment; ``line_no`` places the
    statement's run-time errors.  ``parse`` reads a subclass's own fields
    from the rest of the line, and ``run`` runs the statement and returns
    its report's kind and payload."""

    @classmethod
    def parse(cls, head: str, rest: str, line_no: int) -> tuple:
        """The fields of ``rest`` read against ``cls.syntax`` (``theory.read_syntax``)."""
        return read_syntax(head, cls.syntax, rest, ProgramError, line_no)


class CombDecl(Statement):
    def __init__(self, name: str, f_term: MorTerm, g_term: MorTerm, env: ObjectWord,
                 *, line: str, line_no: int | None = None):
        self._fill(locals())

    @classmethod
    def parse(cls, head: str, rest: str, line_no: int) -> tuple:
        """``NAME = (f, g) env WORD``."""
        name, read = _declaration(head, rest, line_no)
        read.expect("=", "(")
        f_term = read.seq()
        read.expect(",")
        g_term = read.seq()
        read.expect(")", "env")
        return read.done((name, f_term, g_term, read.word()))

    def run(self, ctx: _Run) -> tuple[str, dict]:
        f, g = (eval_term(t, ctx.backend) for t in (self.f_term, self.g_term))
        return ctx.bind_comb(self.name, comb(ctx.backend, f, g, env=self.env))


class DaggerDecl(Statement):
    def __init__(self, name: str, f_term: MorTerm, env: ObjectWord,
                 *, line: str, line_no: int | None = None):
        self._fill(locals())

    @classmethod
    def parse(cls, head: str, rest: str, line_no: int) -> tuple:
        """``NAME = f env WORD``."""
        name, read = _declaration(head, rest, line_no)
        read.expect("=")
        f_term = read.seq()
        read.expect("env")
        return read.done((name, f_term, read.word()))

    def run(self, ctx: _Run) -> tuple[str, dict]:
        c = _channels().dagger_comb(
            ctx.backend, eval_term(self.f_term, ctx.backend), env=self.env)
        return ctx.bind_comb(self.name, c)


class PolyDecl(Statement):
    def __init__(self, name: str, holes: tuple[tuple[ObjectWord, ObjectWord], ...],
                 outers: tuple[tuple[ObjectWord, ObjectWord], ...], envs: tuple[ObjectWord, ...],
                 seg_terms: tuple[MorTerm, ...], *, line: str, line_no: int | None = None):
        self._fill(locals())

    @classmethod
    def parse(cls, head: str, rest: str, line_no: int) -> tuple:
        """``NAME holes=[pairs] outers=[pairs] envs=[words] segs=[f | g ...]``."""
        name, read = _declaration(head, rest, line_no)
        holes = read.listing("holes", read.pair)
        outers = read.listing("outers", read.pair)
        envs = read.listing("envs", read.word)
        segs = read.listing("segs", read.seq, "|", empty=False)
        return read.done((name, holes, outers, envs, segs))

    def run(self, ctx: _Run) -> tuple[str, dict]:
        segs = [eval_term(t, ctx.backend) for t in self.seg_terms]
        p = poly(ctx.backend, self.holes, self.outers, self.envs, segs)
        return ctx.bind_poly(self.name, p)


class EquivQuery(Statement):
    syntax = f"({'|'.join(RELATIONS)}) A B"

    def __init__(self, relation: str, left: str, right: str,
                 *, line: str, line_no: int | None = None):
        self._fill(locals())

    def run(self, ctx: _Run) -> tuple[str, dict]:
        get = ctx.get_poly if self.relation == "poly" else ctx.get_comb
        x, y = get(self.left), get(self.right)
        relation = RELATIONS[self.relation] or getattr(_channels(), self.relation.upper())
        # the run's strategy where offered, else auto; one no relation offers is refused
        offered = ctx.strategy in relation.strategies or ctx.strategy not in STRATEGIES
        decision = decide(relation, ctx.backend, x, y, ctx.strategy if offered else "auto", ctx.bound)
        return "decision", decision_json(decision)


class ComposeQuery(Statement):
    syntax = "A B as C"

    # op "compose" puts inner into outer's hole; "tensor" sets outer left of inner
    def __init__(self, outer: str, inner: str, name: str, op: str,
                 *, line: str, line_no: int | None = None):
        self._fill(locals())

    @classmethod
    def parse(cls, head: str, rest: str, line_no: int) -> tuple:
        outer, inner, name = super().parse(head, rest, line_no)
        return outer, inner, _name(head, name, line_no), head

    def run(self, ctx: _Run) -> tuple[str, dict]:
        make = comb_compose if self.op == "compose" else comb_tensor
        c1, c2 = ctx.get_comb(self.outer), ctx.get_comb(self.inner)
        return ctx.bind_comb(self.name, make(ctx.backend, c1, c2))


class PlugQuery(Statement):
    syntax = "A at J with B [port P] as C"

    def __init__(self, outer: str, hole: int, inner: str, name: str, port: int | None,
                 *, line: str, line_no: int | None = None):
        self._fill(locals())

    @classmethod
    def parse(cls, head: str, rest: str, line_no: int) -> tuple:
        outer, hole, inner, port, name = super().parse(head, rest, line_no)
        try:
            hole, port = int(hole), None if port is None else int(port)
        except ValueError:
            raise ProgramError("hole and port must be integers", line_no) from None
        return outer, hole, inner, _name(head, name, line_no), port

    def run(self, ctx: _Run) -> tuple[str, dict]:
        outer, inner = ctx.get_poly(self.outer), ctx.get_poly(self.inner)
        p = poly_compose_at(ctx.backend, outer, inner, self.hole, inner_port=self.port)
        return ctx.bind_poly(self.name, p)


class LensQuery(Statement):
    syntax = "A"

    def __init__(self, name: str, *, line: str, line_no: int | None = None):
        self._fill(locals())

    def run(self, ctx: _Run) -> tuple[str, dict]:
        get, put = lens_pair(ctx.backend, ctx.get_comb(self.name))
        return "lens", {"get": value_json(get), "put": value_json(put)}


class CpmQuery(Statement):
    syntax = "A"

    def __init__(self, name: str, *, line: str, line_no: int | None = None):
        self._fill(locals())

    def run(self, ctx: _Run) -> tuple[str, dict]:
        c = ctx.get_comb(self.name)
        m = _channels().to_cpm(ctx.backend, c)
        return "cpm", {
            "in": m.in_word.pretty(),
            "out": m.out_word.pretty(),
            "kraus_count": len(m.kraus),
            "transfer": value_json(m.transfer),
            "choi": value_json(m.choi()),
            "completely_positive": m.is_completely_positive(),
            "trace_preserving": m.is_trace_preserving(),
        }


#: each statement head, with the class that parses and runs its lines
STATEMENTS = {
    "comb": CombDecl,
    "dagger_comb": DaggerDecl,
    "poly": PolyDecl,
    "equiv": EquivQuery,
    "compose": ComposeQuery,
    "tensor": ComposeQuery,
    "plug": PlugQuery,
    "lens": LensQuery,
    "cpm": CpmQuery,
}


def parse_program(text: str) -> list[Statement]:
    lines = read_lines(text, STATEMENTS, ProgramError, "statement")
    return [kind(*kind.parse(head, rest, line_no), line=line, line_no=line_no)
            for line_no, line, head, rest, kind in lines]


def load_program(path: str) -> list[Statement]:
    with open(path, encoding="utf-8") as handle:
        return parse_program(handle.read())


class QueryReport(Record):
    def __init__(self, query: str, kind: str, payload: dict | None = None):
        payload = {} if payload is None else payload
        self._fill(locals())


def run_program(
    backend: Backend,
    statements: list[Statement],
    strategy: str = "auto",
    bound: int = 2,
) -> list[QueryReport]:
    """Run every statement; ``strategy`` applies to each ``equiv`` relation
    that offers it, the others run auto."""
    ctx = _Run(backend, strategy, bound)
    reports: list[QueryReport] = []
    for stmt in statements:
        try:
            kind, payload = stmt.run(ctx)
        except ProgramError as exc:
            raise ProgramError(str(exc), stmt.line_no) from None
        reports.append(QueryReport(stmt.line, kind, payload))
    return reports


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_json(reports: list[QueryReport]) -> str:
    data = {
        "format": 1,
        "queries": [
            {"query": r.query, "kind": r.kind, "result": r.payload}
            for r in reports
        ],
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _probe_text(w: dict) -> list[str]:
    """A one-hole witness holds one context and probe, any other a list of each."""
    cs, ds, terms = w["context_in"], w["context_out"], w.get("probe_term")
    if isinstance(cs, str):
        cs, ds, terms = [cs], [ds], terms and [terms]
    lines = ["     context: " + (" ".join(f"({c}, {d})" for c, d in zip(cs, ds)) or "(none)")]
    if terms is not None:
        lines.append(f"     probe: {' '.join(terms) or '(none)'}")
    return lines


#: the lines each witness type adds under its decision's ``witness:`` line
_WITNESS_TEXT = {
    "probe": _probe_text,
    "slide-path": lambda w: [f"     steps: {len(w['steps'])}"],
    "exhaustion": lambda w: [
        f"     states: {w['states_explored']}, "
        f"environments: {', '.join(w['environments']) or '(none)'}"
    ],
    "factor": lambda w: [f"     pieces: {', '.join(sorted(w['pieces']))}"],
}


def _decision_text(d: dict) -> list[str]:
    lines = [
        f"   verdict: {d['verdict']}",
        f"   method: {d['method']}",
        f"   certified: {'yes' if d['certified'] else 'no'}",
    ]
    if "coverage" in d:
        cov = ", ".join(f"{k}={v}" for k, v in sorted(d["coverage"].items()))
        lines.append(f"   coverage: {cov}")
    witness = d.get("witness")
    if witness:
        lines.append(f"   witness: {witness['type']}")
        lines += _WITNESS_TEXT.get(witness["type"], lambda w: [])(witness)
        if witness.get("note"):
            lines.append(f"     note: {witness['note']}")
    return lines


def _pairs_text(pairs: list) -> str:
    return " ".join(f"({a},{b})" for a, b in pairs) or "(none)"


#: each report kind, with the lines of its text under the ``== query`` line
REPORT_TEXT = {
    "decision": _decision_text,
    "comb": lambda p: [
        f"   source ({p['source'][0]}, {p['source'][1]}), "
        f"hole ({p['hole'][0]}, {p['hole'][1]}), env {p['env']}"
    ],
    "poly": lambda p: [
        f"   holes {_pairs_text(p['holes'])}; outers {_pairs_text(p['outers'])}"
    ],
    "cpm": lambda p: [
        f"   {p['in']} -> {p['out']}, kraus {p['kraus_count']}, "
        f"CP {'yes' if p['completely_positive'] else 'no'}, "
        f"TP {'yes' if p['trace_preserving'] else 'no'}"
    ],
    "lens": lambda p: ["   get/put pair computed"],
}


def render_text(reports: list[QueryReport]) -> str:
    lines: list[str] = []
    for report in reports:
        lines += [f"== {report.query}", *REPORT_TEXT[report.kind](report.payload)]
    return "\n".join(lines) + "\n"
