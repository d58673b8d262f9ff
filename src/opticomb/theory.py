"""Theory files, and the line grammar of both input files.

Theory and program files are read line by line (``read_lines``): a ``#``
starts a comment, blank lines are skipped, and a line's head ends at its
first whitespace and must be one the file knows.  The rest of the line is
read against its head's syntax string (``read_syntax``): a word in capitals
is a field, ``(x|y)`` one of the words listed and ``[...]`` an optional
part.  Words are separated by any whitespace; ``:``, ``;``, ``=`` and
``->`` take any spacing or none, and a field beside them is any text.
Every refusal (``InputError``) starts ``line N: `` with its line's number.

A theory starts with its backend line, ``backend KIND KEY=VALUE ...``, as
in ``backend matrix semiring=complex tolerance=1e-9`` or ``backend
free-pointed object=a states=phi,psi effects=bang``.  ``KINDS`` holds what
each kind takes, and ``DECLARATIONS`` the syntax of the other lines:

    object NAME EXTENT        # object x dim=2 (matrix, unitary), object s size=3 (finfun)
    morphism NAME : DOM -> COD = LITERAL
    rule G1 ; G2 -> RHS       # rule phi ; bang -> 1, or the endo's rule f ; f -> f

An extent is ASCII digits.  A matrix is a JSON list of equally long rows,
as in ``[[0.707,0],[0,1]]``, of finite numbers; a complex entry may also be
a two-element ``[re, im]`` list, and a rational one a ``"p/q"`` string.  A
function is the list of its output indices, as in ``[0, 2, 1]``.  ``true``
and ``false`` are not numbers.  Free kinds have their objects and
generators built in, and take only rules.  A declaration the backend
refuses (a wrong shape, a non-unitary matrix, an undeclared object) is a
TheoryError.

``tolerance`` (a finite number >= 0, default 1e-9) sets the policy of
complex matrix and unitary theories: values are equal within the tolerance,
and residuals derived from values (unitarity, positivity, a factorization
error, a channel output) within 10 times the tolerance.  The boolean and
rational semirings and the other kinds compare exactly and refuse the
option.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import re
from fractions import Fraction
from typing import Any, Iterator

from .core import NAME, CategoryError, Record


class InputError(Exception):
    """A refusal of an input file; ``line_no``, when known, leads its message."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class TheoryError(InputError):
    """Raised when a theory file cannot be parsed."""


def read_lines(text: str, rows: dict[str, Any], error: type[InputError],
               what: str) -> Iterator[tuple[int, str, str, str, Any]]:
    """``(line_no, line, head, rest, row)`` of each line that is not blank once
    its comment is cut, where ``row`` is ``rows[head]``; a head not in
    ``rows`` is an unknown ``what``."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            head, rest = (*line.split(None, 1), "")[:2]
            if head not in rows:
                raise error(f"unknown {what} {head!r}", line_no)
            yield line_no, line, head, rest, rows[head]


def read_syntax(head: str, syntax: str, rest: str, error: type[InputError],
                line_no: int) -> tuple:
    """The fields of ``rest``, read against ``syntax``; None for a left-out part."""
    pieces = re.split(r" ?(->|[:;=]) ?", syntax)
    if len(pieces) > 1:  # fields beside punctuation
        pattern = r"\s*".join("(.*?)" if p.isupper() else re.escape(p) for p in pieces)
    else:
        pattern = re.sub(r"\b[A-Z][A-Z\d]*\b", r"(\\S+)", syntax)
        pattern = pattern.replace(" [", "(?: ").replace("]", ")?").replace(" ", r"\s+")
    m = re.fullmatch(pattern, rest)
    if m is None:
        raise error(f"{head} syntax: {head} {syntax}", line_no)
    return m.groups()


class TheoryConfig(Record):
    """A parsed theory; ``line_no``, of its backend line, names the backend's refusals."""

    def __init__(self, kind: str, options: dict[str, str] | None = None,
                 objects: dict[str, int] | None = None,
                 morphisms: dict[str, tuple[str, str, Any, int]] | None = None,
                 rules: list[tuple[str, str, str]] | None = None, line_no: int | None = None):
        options, objects, morphisms = ({} if d is None else d for d in (options, objects, morphisms))
        rules = [] if rules is None else rules
        self._fill(locals())


#: each backend kind: the options of its backend line, with their defaults
#: ("": none; finfun takes tolerance only to refuse it with the reason), the
#: key of its objects' extent, and the declarations it takes: the free kinds
#: have their objects and generators built in, and only they take rules
KINDS = {
    "matrix": ({"semiring": "", "tolerance": ""}, "dim", ("object", "morphism")),
    "finfun": ({"tolerance": ""}, "size", ("object", "morphism")),
    "free-commutative": ({"object": "a", "endo": "f"}, None, ("rule",)),
    "free-pointed": ({"object": "a", "states": "phi,psi", "effects": "bang"}, None, ("rule",)),
    "unitary": ({"tolerance": ""}, "dim", ("object", "morphism")),
}


def _once(table: dict, name: str, value: Any, what: str, line_no: int) -> None:
    if name in table:
        raise TheoryError(f"{what} {name} declared twice", line_no)
    table[name] = value


def _name(what: str, name: str, line_no: int) -> str:
    """``name`` if a program can write it: an identifier by ``core.NAME``,
    and not ``I`` (the unit) for an object."""
    rule = "an identifier other than I" if what == "object" else "an identifier"
    if not re.fullmatch(NAME, name) or (what == "object" and name == "I"):
        raise TheoryError(f"{what} name must be {rule}, got {name!r}", line_no)
    return name


def _backend(parts: list[str], line_no: int) -> TheoryConfig:
    if not parts or parts[0] not in KINDS:
        raise TheoryError(f"backend kind must be one of {', '.join(KINDS)}", line_no)
    kind, opts = parts[0], {}
    for part in parts[1:]:
        if "=" not in part:
            raise TheoryError(f"expected key=value, got {part!r}", line_no)
        _once(opts, *part.split("=", 1), "option", line_no)
    defaults, extent_key, _ = KINDS[kind]
    unknown = set(opts) - set(defaults)
    if unknown:
        raise TheoryError(f"unknown options {sorted(unknown)} for {kind}", line_no)
    if "tolerance" in opts:
        parse_tolerance(opts["tolerance"], line_no)
        exact = kind if kind == "finfun" else f"semiring={opts.get('semiring', 'complex')}"
        if exact != "semiring=complex":
            raise TheoryError(f"tolerance= needs a complex matrix or unitary theory; "
                              f"{exact} compares exactly", line_no)
    opts = {key: value for key, value in defaults.items() if value} | opts
    if extent_key is None:  # the term reader reads a state, effect or endo named I as a generator
        names = [(what, opts[what]) for what in ("object", "endo") if what in opts]
        names += [(key[:-1], n) for key in ("states", "effects")
                  for n in opts.get(key, "").split(",") if n]
        for what, name in names:
            _name(what, name, line_no)
    return TheoryConfig(kind, opts, line_no=line_no)


def _object(config: TheoryConfig, name: str, extent: str, line_no: int) -> None:
    key = KINDS[config.kind][1]
    given, eq, value = extent.partition("=")
    if given + eq != key + "=":
        raise TheoryError(f"object for {config.kind} takes {key}=N", line_no)
    if not re.fullmatch("-?[0-9]+", value):
        raise TheoryError(f"{key} must be an integer", line_no)
    if int(value) < 0:
        raise TheoryError(f"{key} must be nonnegative", line_no)
    _once(config.objects, _name("object", name, line_no), int(value), "object", line_no)


def _morphism(config: TheoryConfig, name: str, dom: str, cod: str, literal: str,
              line_no: int) -> None:
    try:
        value = json.loads(literal, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:
        raise TheoryError(f"bad literal: {exc}", line_no) from None
    _once(config.morphisms, _name("morphism", name, line_no), (dom, cod, value, line_no),
          "morphism", line_no)


def _rule(config: TheoryConfig, *rule: str, line_no: int) -> None:
    endo = config.options.get("endo")
    if config.kind == "free-commutative" and rule != (endo, endo, endo):
        raise TheoryError(f"the only rule available is {endo} ; {endo} -> {endo}", line_no)
    if config.kind == "free-pointed":
        if rule[2] != "1":
            raise TheoryError("pointed rules collapse to 1", line_no)
        for what, name in zip(("state", "effect"), rule):
            if not name or name not in config.options[what + "s"].split(","):
                raise TheoryError(f"rule uses undeclared {what} {name!r}", line_no)
    config.rules.append(rule)


#: the syntax of each declaration after the backend line, and its reader
DECLARATIONS = {
    "object": ("NAME EXTENT", _object),
    "morphism": ("NAME : DOM -> COD = LITERAL", _morphism),
    "rule": ("G1 ; G2 -> RHS", _rule),
}


def parse_theory(text: str) -> TheoryConfig:
    config: TheoryConfig | None = None
    rows = {"backend": None, **DECLARATIONS}
    for line_no, _, head, rest, row in read_lines(text, rows, TheoryError, "declaration"):
        if head == "backend":
            if config is not None:
                raise TheoryError("backend declared twice", line_no)
            config = _backend(rest.split(), line_no)
        elif config is None:
            raise TheoryError("the first declaration must be a backend line", line_no)
        elif head not in KINDS[config.kind][2]:
            raise TheoryError(f"{config.kind} theories take no {head}s", line_no)
        else:
            syntax, declare = row
            declare(config, *read_syntax(head, syntax, rest, TheoryError, line_no), line_no=line_no)
    if config is None:
        raise TheoryError("empty theory: no backend line")
    return config


def _finite(text: str) -> float:
    """A JSON number that is finite: NaN, Infinity and overflowing literals are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"entries must be finite numbers, got {text}")
    return value


def _number(e: Any) -> Any:
    if type(e) in (int, float):  # not bool: true and false are not numbers
        return e
    raise ValueError(f"matrix entries are numbers: {e!r}")


def _complex_entry(e: Any) -> complex:
    if isinstance(e, list):
        if len(e) != 2:
            raise ValueError(f"complex entry must be [re, im]: {e!r}")
        return complex(float(_number(e[0])), float(_number(e[1])))
    return complex(float(_number(e)), 0.0)


def _rational_entry(e: Any) -> Fraction:
    if type(e) in (str, int):
        return Fraction(e)
    raise ValueError(f"rational entries are integers or 'p/q' strings: {e!r}")


_ENTRIES = {"bool": _number, "complex": _complex_entry, "rational": _rational_entry}


def _matrix_entries(value: Any, semiring: str) -> list[list[Any]]:
    """Rebuild a JSON matrix literal, a list of equally long rows, for ``semiring``."""
    if not (isinstance(value, list) and value and all(
        isinstance(row, list) and len(row) == len(value[0]) for row in value
    )):
        raise ValueError(f"a matrix literal is a list of equally long rows: {value!r}")
    return [[_ENTRIES[semiring](e) for e in row] for row in value]


def _indices(value: Any) -> list[int]:
    if isinstance(value, list) and all(type(v) is int for v in value):
        return value
    raise ValueError(f"a function is a list of indices: {value!r}")


@contextlib.contextmanager
def _refusal_named(what: str, line_no: int | None = None) -> Iterator[None]:
    """Report a backend's refusal of ``what`` as a TheoryError that names it."""
    try:
        yield
    except (CategoryError, ValueError, ArithmeticError) as exc:
        raise TheoryError(f"{what}: {exc}", line_no) from None


def parse_tolerance(text: str, line_no: int | None = None) -> float:
    """A tolerance from outside input: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise TheoryError(f"tolerance must be a finite number >= 0, got {text!r}", line_no)
    return value


def build_backend(config: TheoryConfig):
    """Turn a parsed theory into a live backend.  Each kind imports its own
    backend module and no other; only matrix and unitary load numpy."""
    kind, opts = config.kind, config.options
    # parse_theory has refused a bad tolerance, and one on an exact theory
    numeric = {"tolerance": float(opts["tolerance"])} if "tolerance" in opts else {}
    semiring = opts.get("semiring", "complex")
    entries = functools.partial(_matrix_entries, semiring=semiring)
    with _refusal_named(f"backend {kind}", config.line_no):
        if kind == "free-commutative":  # a rule line can only restate that the endo is idempotent
            from .backends.free import IdempotentFreeBackend
            return IdempotentFreeBackend(opts["object"], opts["endo"])
        if kind == "free-pointed":
            from .backends.free import PointedFreeBackend
            names = {key: tuple(n for n in opts[key].split(",") if n) for key in ("states", "effects")}
            # no rule lines: the backend's default cancels every state/effect pair
            rules = tuple((g1, g2) for g1, g2, _ in config.rules) or None
            return PointedFreeBackend(opts["object"], rules=rules, **names)
        if kind == "finfun":
            from .backends.finfun import FinFunBackend
            backend, entries = FinFunBackend(config.objects), _indices
        elif kind == "unitary":
            from .backends.unitary import UnitaryBackend
            backend = UnitaryBackend(config.objects, **numeric)
        else:
            from .backends.matrix import MatrixBackend
            backend = MatrixBackend(config.objects, semiring=semiring, **numeric)
    for name, (dom, cod, value, line_no) in config.morphisms.items():
        with _refusal_named(f"morphism {name}", line_no):
            backend.add_generator(name, dom, cod, entries(value))
    return backend


def load_theory(path: str):
    with open(path, encoding="utf-8") as handle:
        return build_backend(parse_theory(handle.read()))
