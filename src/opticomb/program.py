"""Program files: morphism terms, bindings, and queries over a theory.

A program is line oriented, with ``#`` comments.  Bindings:

    comb c1 = (f, g) env e
    dagger_comb d1 = v env e
    poly p1 holes=[(x,y)] outers=[(x,y)] envs=[e] segs=[f | g]

Terms compose diagrammatically with ``;`` (loose) and tensor with ``*``
(tight); ``id(W)`` and ``sym(W1,W2)`` build structural pieces, where a
word is ``I`` or factor names joined by ``*``.  Queries:

    equiv sigma c1 c2          # also tau, comb, optic, cpm, cpinf, poly
    compose c1 c2 as c3        # c1 fills the hole of c2
    tensor c1 c2 as c3
    plug p1 at 0 with p2 as p3 # optionally: ... with p2 port 1 as p3
    lens c1
    cpm d1

Query results serialize to text or to deterministic JSON: keys are
sorted and nothing environment-dependent (timestamps, durations,
addresses) is ever included, so identical runs give identical bytes.
"""
from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .core import (
    Backend,
    Compose,
    Decision,
    ExhaustionWitness,
    FactorWitness,
    Generator,
    Identity,
    MorTerm,
    ObjectWord,
    ProbeWitness,
    SlidePathWitness,
    Symmetry,
    Tensor,
    eval_term,
)
from .comb import (
    COMB_STRATEGIES,
    CombRep,
    comb,
    comb_compose,
    comb_tensor,
    equiv_comb,
    equiv_sigma,
    equiv_tau,
    lens_pair,
)
from .optic import OPTIC_STRATEGIES, equiv_optic
from .polycomb import PolyCombRep, from_comb, poly, poly_compose_at, poly_equiv
from .backends.finfun import FinMap
from .backends.free import StrandMor, WiringMor

if TYPE_CHECKING:
    import numpy as np

    from .cpm import CpmMorphism

RELATIONS = ("sigma", "tau", "comb", "optic", "cpm", "cpinf", "poly")


class ProgramError(Exception):
    """Raised when a program file cannot be parsed or references nothing."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


# ---------------------------------------------------------------------------
# Term parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|[();,*]|\S")


def _tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text)


class _TermParser:
    def __init__(self, text: str, line_no: int | None = None):
        self.tokens = _tokenize(text)
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

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ProgramError(
                f"expected {tok!r}, got {got!r} in {self.text!r}", self.line_no
            )

    def parse(self) -> MorTerm:
        term = self.seq()
        if self.peek() is not None:
            raise ProgramError(
                f"trailing input {self.peek()!r} in {self.text!r}", self.line_no
            )
        return term

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
        names = [self.take()]
        if not names[0].isidentifier():
            raise ProgramError(
                f"expected an object name, got {names[0]!r}", self.line_no
            )
        if names[0] == "I":
            return ObjectWord.unit()
        while self.peek() == "*":
            self.take()
            names.append(self.take())
        return ObjectWord.of(*names)

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
            self.take()
            w1 = self.word()
            self.expect(",")
            w2 = self.word()
            self.expect(")")
            return Symmetry(w1, w2)
        if tok.isidentifier():
            return Generator(tok)
        raise ProgramError(f"unexpected token {tok!r} in {self.text!r}", self.line_no)


def parse_term(text: str, line_no: int | None = None) -> MorTerm:
    return _TermParser(text, line_no).parse()


def term_text(term: MorTerm) -> str:
    """Render a term back to program syntax."""
    if isinstance(term, Generator):
        return term.name
    if isinstance(term, Identity):
        return f"id({term.word.pretty()})"
    if isinstance(term, Symmetry):
        return f"sym({term.left.pretty()},{term.right.pretty()})"
    if isinstance(term, Compose):
        return f"{term_text(term.first)} ; {term_text(term.then)}"
    if isinstance(term, Tensor):
        left = term_text(term.left)
        right = term_text(term.right)
        if isinstance(term.left, Compose):
            left = f"({left})"
        if isinstance(term.right, Compose):
            right = f"({right})"
        return f"{left} * {right}"
    raise TypeError(f"not a term: {term!r}")


def _split_top(text: str, sep: str, line_no: int | None = None) -> list[str]:
    """Split on ``sep`` at parenthesis depth zero."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ProgramError(f"unbalanced parentheses in {text!r}", line_no)
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ProgramError(f"unbalanced parentheses in {text!r}", line_no)
    parts.append(text[start:])
    return parts


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombDecl:
    name: str
    f_term: MorTerm
    g_term: MorTerm
    env: ObjectWord
    line: str


@dataclass(frozen=True)
class DaggerDecl:
    name: str
    f_term: MorTerm
    env: ObjectWord
    line: str


@dataclass(frozen=True)
class PolyDecl:
    name: str
    holes: tuple[tuple[ObjectWord, ObjectWord], ...]
    outers: tuple[tuple[ObjectWord, ObjectWord], ...]
    envs: tuple[ObjectWord, ...]
    seg_terms: tuple[MorTerm, ...]
    line: str


@dataclass(frozen=True)
class EquivQuery:
    relation: str
    left: str
    right: str
    line: str


@dataclass(frozen=True)
class ComposeQuery:
    inner: str
    outer: str
    name: str
    op: str  # "compose" | "tensor"
    line: str


@dataclass(frozen=True)
class PlugQuery:
    outer: str
    hole: int
    inner: str
    name: str
    port: int | None
    line: str


@dataclass(frozen=True)
class LensQuery:
    name: str
    line: str


@dataclass(frozen=True)
class CpmQuery:
    name: str
    line: str


Statement = Any


def _parse_pairs(
    text: str, line_no: int
) -> tuple[tuple[ObjectWord, ObjectWord], ...]:
    text = text.strip()
    if not text:
        return ()
    pairs = []
    for piece in _split_top(text, ",", line_no):
        piece = piece.strip()
        if not (piece.startswith("(") and piece.endswith(")")):
            raise ProgramError(f"expected a (word,word) pair, got {piece!r}", line_no)
        inner = piece[1:-1].split(",")
        if len(inner) != 2:
            raise ProgramError(f"expected two words in {piece!r}", line_no)
        pairs.append((ObjectWord.parse(inner[0]), ObjectWord.parse(inner[1])))
    return tuple(pairs)


_POLY_RE = re.compile(
    r"^(?P<name>\w+)\s+holes=\[(?P<holes>.*?)\]\s+outers=\[(?P<outers>.*?)\]"
    r"\s+envs=\[(?P<envs>.*?)\]\s+segs=\[(?P<segs>.*)\]$"
)


def _split_decl(head: str, rest: str, body_syntax: str, line_no: int):
    """``NAME = BODY env WORD`` as its three parts; NAME must be one ``\\w+``."""
    name, eq, body = rest.partition("=")
    if not eq:
        raise ProgramError(f"{head} syntax: name = {body_syntax} env WORD", line_no)
    name = name.strip()
    if not re.fullmatch(r"\w+", name):
        raise ProgramError(f"{head} name must be one \\w+ word, got {name!r}", line_no)
    body, sep, env_text = body.rpartition(" env ")
    if not sep:
        raise ProgramError(f"{head} needs a trailing 'env WORD'", line_no)
    return name, body.strip(), env_text


def parse_program(text: str) -> list[Statement]:
    statements: list[Statement] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "comb":
            name, body, env_text = _split_decl(head, rest, "(f, g)", line_no)
            if not (body.startswith("(") and body.endswith(")")):
                raise ProgramError("comb body must be (f, g)", line_no)
            halves = _split_top(body[1:-1], ",", line_no)
            if len(halves) != 2:
                raise ProgramError("comb body must hold two terms", line_no)
            statements.append(CombDecl(
                name,
                parse_term(halves[0], line_no),
                parse_term(halves[1], line_no),
                ObjectWord.parse(env_text),
                line,
            ))
        elif head == "dagger_comb":
            name, body, env_text = _split_decl(head, rest, "f", line_no)
            statements.append(DaggerDecl(
                name, parse_term(body, line_no), ObjectWord.parse(env_text), line,
            ))
        elif head == "poly":
            m = _POLY_RE.match(rest)
            if not m:
                raise ProgramError(
                    "poly syntax: name holes=[...] outers=[...] envs=[...] "
                    "segs=[t | t | ...]",
                    line_no,
                )
            envs_text = m.group("envs").strip()
            envs = tuple(
                ObjectWord.parse(w)
                for w in (envs_text.split(",") if envs_text else [])
            )
            segs = tuple(
                parse_term(s, line_no) for s in m.group("segs").split("|")
            )
            statements.append(PolyDecl(
                m.group("name"),
                _parse_pairs(m.group("holes"), line_no),
                _parse_pairs(m.group("outers"), line_no),
                envs,
                segs,
                line,
            ))
        elif head == "equiv":
            parts = rest.split()
            if len(parts) != 3 or parts[0] not in RELATIONS:
                raise ProgramError(
                    f"equiv syntax: equiv ({'|'.join(RELATIONS)}) A B", line_no
                )
            statements.append(EquivQuery(parts[0], parts[1], parts[2], line))
        elif head in ("compose", "tensor"):
            parts = rest.split()
            if len(parts) != 4 or parts[2] != "as":
                raise ProgramError(f"{head} syntax: {head} A B as C", line_no)
            statements.append(
                ComposeQuery(parts[0], parts[1], parts[3], head, line)
            )
        elif head == "plug":
            parts = rest.split()
            port: int | None = None
            # plug A at J with B [port P] as C
            ok = (
                len(parts) in (7, 9)
                and parts[1] == "at" and parts[3] == "with"
                and parts[-2] == "as"
            )
            if ok and len(parts) == 9:
                ok = parts[5] == "port"
            if not ok:
                raise ProgramError(
                    "plug syntax: plug A at J with B [port P] as C", line_no
                )
            try:
                hole = int(parts[2])
                if len(parts) == 9:
                    port = int(parts[6])
            except ValueError:
                raise ProgramError("hole and port must be integers", line_no) from None
            statements.append(
                PlugQuery(parts[0], hole, parts[4], parts[-1], port, line)
            )
        elif head == "lens":
            parts = rest.split()
            if len(parts) != 1:
                raise ProgramError("lens syntax: lens A", line_no)
            statements.append(LensQuery(parts[0], line))
        elif head == "cpm":
            parts = rest.split()
            if len(parts) != 1:
                raise ProgramError("cpm syntax: cpm A", line_no)
            statements.append(CpmQuery(parts[0], line))
        else:
            raise ProgramError(f"unknown statement {head!r}", line_no)
    return statements


def load_program(path: str) -> list[Statement]:
    with open(path, encoding="utf-8") as handle:
        return parse_program(handle.read())


# ---------------------------------------------------------------------------
# Value serialization
# ---------------------------------------------------------------------------

def _num_json(x: Any) -> Any:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return [float(x.real), float(x.imag)]
    # numpy is imported only where a matrix value is built: until then no
    # value is a numpy number, array or Mat, and serializing loads nothing
    np = sys.modules.get("numpy")
    if np is None:
        return x
    if isinstance(x, (np.complexfloating,)):
        return [float(x.real), float(x.imag)]
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    return x


def _array_json(arr: np.ndarray) -> list:
    return [[_num_json(x) for x in row] for row in sys.modules["numpy"].atleast_2d(arr)]


def value_json(value: Any) -> Any:
    """Serialize a backend value (or number, word, tuple) to JSON data."""
    np = sys.modules.get("numpy")  # see _num_json
    if np is not None:
        from .backends.matrix import Mat

        if isinstance(value, Mat):
            return {
                "dom": value.dom.pretty(),
                "cod": value.cod.pretty(),
                "entries": _array_json(value.array),
            }
        if isinstance(value, np.ndarray):
            return _array_json(value)
    if isinstance(value, FinMap):
        return {
            "dom": value.dom.pretty(),
            "cod": value.cod.pretty(),
            "table": list(value.table),
        }
    if isinstance(value, StrandMor):
        return {
            "word": value.word.pretty(),
            "flags": list(value.flags),
            "touched": value.touched(),
        }
    if isinstance(value, WiringMor):
        return {
            "dom": value.dom.pretty(),
            "cod": value.cod.pretty(),
            "matching": sorted(list(p) for p in value.matching),
            "caps": sorted((i, e) for i, e in value.caps),
            "seeds": sorted((j, s) for j, s in value.seeds),
            "scalars": [list(p) for p in value.scalars],
        }
    if isinstance(value, ObjectWord):
        return value.pretty()
    if isinstance(value, MorTerm):
        return term_text(value)
    if isinstance(value, Decision):
        return decision_json(value)
    if isinstance(value, (tuple, list)):
        return [value_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): value_json(v) for k, v in sorted(value.items())}
    out = _num_json(value)
    if isinstance(out, (int, float, str, bool, list)) or out is None:
        return out
    return repr(out)


def witness_json(witness: Any) -> dict:
    if isinstance(witness, ProbeWitness):
        data = {
            "type": "probe",
            "context_in": witness.c_word.pretty(),
            "context_out": witness.d_word.pretty(),
            "probe": value_json(witness.probe),
            "left": value_json(witness.left),
            "right": value_json(witness.right),
        }
        if witness.probe_term is not None:
            data["probe_term"] = term_text(witness.probe_term)
        if witness.note:
            data["note"] = witness.note
        return data
    if isinstance(witness, SlidePathWitness):
        return {
            "type": "slide-path",
            "steps": [
                {
                    "direction": s.direction,
                    "slide": value_json(s.v),
                    "environment": value_json(s.residual),
                }
                for s in witness.steps
            ],
        }
    if isinstance(witness, ExhaustionWitness):
        return {
            "type": "exhaustion",
            "states_explored": witness.states_explored,
            "environments": [w.pretty() for w in witness.environments],
            "note": witness.note,
        }
    if isinstance(witness, FactorWitness):
        return {
            "type": "factor",
            "pieces": {k: value_json(v) for k, v in sorted(witness.pieces.items())},
            "note": witness.note,
        }
    return {"type": "opaque", "repr": repr(witness)}


def decision_json(decision: Decision) -> dict:
    data: dict[str, Any] = {
        "verdict": decision.verdict.value,
        "method": decision.method,
        "certified": decision.certified,
    }
    if decision.tolerance is not None:
        data["tolerance"] = decision.tolerance
    if decision.coverage:
        data["coverage"] = value_json(dict(decision.coverage))
    if decision.witness is not None:
        data["witness"] = witness_json(decision.witness)
    return data


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class QueryReport:
    query: str
    kind: str
    payload: dict = field(default_factory=dict)


def _comb_summary(c: CombRep) -> dict:
    return {
        "source": [c.source[0].pretty(), c.source[1].pretty()],
        "hole": [c.target[0].pretty(), c.target[1].pretty()],
        "env": c.env.pretty(),
    }


def _poly_summary(p: PolyCombRep) -> dict:
    return {
        "holes": [[a.pretty(), b.pretty()] for a, b in p.holes],
        "outers": [[a.pretty(), b.pretty()] for a, b in p.outers],
        "envs": [e.pretty() for e in p.envs],
    }


def _cpm_summary(m: CpmMorphism) -> dict:
    return {
        "in": m.in_word.pretty(),
        "out": m.out_word.pretty(),
        "kraus_count": len(m.kraus),
        "transfer": _array_json(m.transfer),
        "choi": _array_json(m.choi()),
        "completely_positive": m.is_completely_positive(),
        "trace_preserving": m.is_trace_preserving(),
    }


def _channels():
    """The channel module: it needs numpy, so the first channel statement loads it."""
    from . import cpm

    return cpm


class _Bindings:
    def __init__(self) -> None:
        self.combs: dict[str, CombRep] = {}
        self.polys: dict[str, PolyCombRep] = {}

    def bind_comb(self, name: str, c: CombRep) -> None:
        self.combs[name] = c

    def bind_poly(self, name: str, p: PolyCombRep) -> None:
        self.polys[name] = p

    def get_comb(self, name: str) -> CombRep:
        if name not in self.combs:
            raise ProgramError(f"no comb named {name!r}")
        return self.combs[name]

    def get_poly(self, backend: Backend, name: str) -> PolyCombRep:
        if name in self.polys:
            return self.polys[name]
        if name in self.combs:
            return from_comb(backend, self.combs[name])
        raise ProgramError(f"no poly or comb named {name!r}")


def run_program(
    backend: Backend,
    statements: list[Statement],
    strategy: str = "auto",
    bound: int = 2,
) -> list[QueryReport]:
    """Run every statement; ``strategy`` applies to each of ``equiv comb`` /
    ``equiv optic`` that lists it, the other runs auto."""
    known = set(COMB_STRATEGIES) | set(OPTIC_STRATEGIES)
    comb_strategy, optic_strategy = (
        strategy if strategy in names or strategy not in known else "auto"
        for names in (COMB_STRATEGIES, OPTIC_STRATEGIES)
    )
    deciders = {
        "sigma": lambda c1, c2: equiv_sigma(backend, c1, c2),
        "tau": lambda c1, c2: equiv_tau(backend, c1, c2, bound=bound),
        "comb": lambda c1, c2: equiv_comb(
            backend, c1, c2, strategy=comb_strategy, bound=bound),
        "optic": lambda c1, c2: equiv_optic(
            backend, c1, c2, strategy=optic_strategy, bound=bound),
        "cpm": lambda c1, c2: _channels().cpm_equiv(backend, c1, c2),
        "cpinf": lambda c1, c2: _channels().cpinf_equiv(backend, c1, c2),
        "poly": lambda p1, p2: poly_equiv(backend, p1, p2, bound=bound),
    }
    env = _Bindings()
    reports: list[QueryReport] = []
    for stmt in statements:
        if isinstance(stmt, CombDecl):
            c = comb(
                backend,
                eval_term(stmt.f_term, backend),
                eval_term(stmt.g_term, backend),
                env=stmt.env,
            )
            env.bind_comb(stmt.name, c)
            reports.append(QueryReport(stmt.line, "comb", _comb_summary(c)))
        elif isinstance(stmt, DaggerDecl):
            c = _channels().dagger_comb(
                backend, eval_term(stmt.f_term, backend), env=stmt.env)
            env.bind_comb(stmt.name, c)
            reports.append(QueryReport(stmt.line, "comb", _comb_summary(c)))
        elif isinstance(stmt, PolyDecl):
            p = poly(
                backend,
                stmt.holes,
                stmt.outers,
                stmt.envs,
                [eval_term(t, backend) for t in stmt.seg_terms],
            )
            env.bind_poly(stmt.name, p)
            reports.append(QueryReport(stmt.line, "poly", _poly_summary(p)))
        elif isinstance(stmt, EquivQuery):
            if stmt.relation == "poly":
                reps = (env.get_poly(backend, stmt.left), env.get_poly(backend, stmt.right))
            else:
                reps = (env.get_comb(stmt.left), env.get_comb(stmt.right))
            decision = deciders[stmt.relation](*reps)
            reports.append(
                QueryReport(stmt.line, "decision", decision_json(decision))
            )
        elif isinstance(stmt, ComposeQuery):
            c1 = env.get_comb(stmt.inner)
            c2 = env.get_comb(stmt.outer)
            made = (
                comb_compose(backend, c1, c2)
                if stmt.op == "compose"
                else comb_tensor(backend, c1, c2)
            )
            env.bind_comb(stmt.name, made)
            reports.append(QueryReport(stmt.line, "comb", _comb_summary(made)))
        elif isinstance(stmt, PlugQuery):
            outer = env.get_poly(backend, stmt.outer)
            inner = env.get_poly(backend, stmt.inner)
            made_p = poly_compose_at(
                backend, outer, inner, stmt.hole, inner_port=stmt.port
            )
            env.bind_poly(stmt.name, made_p)
            reports.append(QueryReport(stmt.line, "poly", _poly_summary(made_p)))
        elif isinstance(stmt, LensQuery):
            c = env.get_comb(stmt.name)
            get, put = lens_pair(backend, c)
            reports.append(QueryReport(
                stmt.line, "lens",
                {"get": value_json(get), "put": value_json(put)},
            ))
        elif isinstance(stmt, CpmQuery):
            c = env.get_comb(stmt.name)
            reports.append(QueryReport(
                stmt.line, "cpm", _cpm_summary(_channels().to_cpm(backend, c))
            ))
        else:
            raise ProgramError(f"cannot execute {stmt!r}")
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


def _text_block(report: QueryReport) -> list[str]:
    lines = [f"== {report.query}"]
    if report.kind == "decision":
        payload = report.payload
        lines.append(f"   verdict: {payload['verdict']}")
        lines.append(f"   method: {payload['method']}")
        lines.append(f"   certified: {'yes' if payload['certified'] else 'no'}")
        if "coverage" in payload:
            cov = ", ".join(f"{k}={v}" for k, v in sorted(payload["coverage"].items()))
            lines.append(f"   coverage: {cov}")
        witness = payload.get("witness")
        if witness:
            lines.append(f"   witness: {witness['type']}")
            if witness["type"] == "probe":
                lines.append(
                    f"     context: ({witness['context_in']}, "
                    f"{witness['context_out']})"
                )
                if "probe_term" in witness:
                    lines.append(f"     probe: {witness['probe_term']}")
            elif witness["type"] == "slide-path":
                lines.append(f"     steps: {len(witness['steps'])}")
            elif witness["type"] == "exhaustion":
                lines.append(
                    f"     states: {witness['states_explored']}, "
                    f"environments: {', '.join(witness['environments']) or '(none)'}"
                )
            elif witness["type"] == "factor":
                lines.append(f"     pieces: {', '.join(sorted(witness['pieces']))}")
            note = witness.get("note")
            if note:
                lines.append(f"     note: {note}")
    elif report.kind == "comb":
        payload = report.payload
        lines.append(
            f"   source ({payload['source'][0]}, {payload['source'][1]}), "
            f"hole ({payload['hole'][0]}, {payload['hole'][1]}), "
            f"env {payload['env']}"
        )
    elif report.kind == "poly":
        payload = report.payload
        holes = " ".join(f"({a},{b})" for a, b in payload["holes"]) or "(none)"
        outers = " ".join(f"({a},{b})" for a, b in payload["outers"]) or "(none)"
        lines.append(f"   holes {holes}; outers {outers}")
    elif report.kind == "cpm":
        payload = report.payload
        lines.append(
            f"   {payload['in']} -> {payload['out']}, "
            f"kraus {payload['kraus_count']}, "
            f"CP {'yes' if payload['completely_positive'] else 'no'}, "
            f"TP {'yes' if payload['trace_preserving'] else 'no'}"
        )
    elif report.kind == "lens":
        lines.append("   get/put pair computed")
    return lines


def render_text(reports: list[QueryReport]) -> str:
    lines: list[str] = []
    for report in reports:
        lines.extend(_text_block(report))
    return "\n".join(lines) + "\n"
