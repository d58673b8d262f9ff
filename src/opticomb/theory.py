"""Theory files: plain-text descriptions of a backend and its generators.

A theory file is line oriented.  Blank lines and ``#`` comments are
skipped.  The first meaningful line picks the backend kind:

    backend matrix semiring=complex tolerance=1e-9
    backend finfun
    backend free-commutative object=a endo=f
    backend free-pointed object=a states=phi,psi effects=bang
    backend unitary tolerance=1e-9

Then, depending on the kind:

    object x dim=2            # matrix, unitary
    object s size=3           # finfun
    morphism h : x -> x = [[[0.707,0],[0.707,0]],[[0.707,0],[-0.707,0]]]
    morphism f : s -> t = [0, 2, 1]
    rule phi ; bang -> 1      # free-pointed collapse pairs
    rule f ; f -> f           # free-commutative, must name the endo

Matrix entries are finite JSON numbers in rows of equal length.  A complex
matrix is written with every entry a two-element ``[re, im]`` list; an
array of plain numbers is read as real.  Function morphisms are the list
of output indices.  Free backends carry their generators implicitly, so
they take no morphism lines.  A declaration the backend refuses (a wrong
shape, a non-unitary matrix, an undeclared object) is a TheoryError.

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterator

from .core import NAME, CategoryError, ObjectWord
from .backends.finfun import FinFunBackend
from .backends.free import IdempotentFreeBackend, PointedFreeBackend

#: each backend kind and the options its backend line takes; finfun takes
#: tolerance only to refuse it with the reason
KINDS = {
    "matrix": ("semiring", "tolerance"),
    "finfun": ("tolerance",),
    "free-commutative": ("object", "endo"),
    "free-pointed": ("object", "states", "effects"),
    "unitary": ("tolerance",),
}


class TheoryError(Exception):
    """Raised when a theory file cannot be parsed."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass
class TheoryConfig:
    kind: str
    options: dict[str, str] = field(default_factory=dict)
    objects: dict[str, int] = field(default_factory=dict)
    morphisms: dict[str, tuple[str, str, Any, int]] = field(default_factory=dict)
    rules: list[tuple[str, str, str]] = field(default_factory=list)
    #: the line of the backend declaration, which names the backend's refusals
    line_no: int | None = None


def _split_options(parts: list[str], line_no: int) -> dict[str, str]:
    opts: dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise TheoryError(f"expected key=value, got {part!r}", line_no)
        key, _, value = part.partition("=")
        _once(opts, key.strip(), value.strip(), "option", line_no)
    return opts


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


def parse_theory(text: str) -> TheoryConfig:
    config: TheoryConfig | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, rest = (*line.split(None, 1), "")[:2]
        if head == "backend":
            if config is not None:
                raise TheoryError("backend declared twice", line_no)
            parts = rest.split()
            if not parts or parts[0] not in KINDS:
                raise TheoryError(
                    f"backend kind must be one of {', '.join(KINDS)}", line_no
                )
            config = TheoryConfig(parts[0], _split_options(parts[1:], line_no), line_no=line_no)
            opts = config.options
            unknown = set(opts) - set(KINDS[config.kind])
            if unknown:
                raise TheoryError(f"unknown options {sorted(unknown)} for {config.kind}", line_no)
            if "tolerance" in opts:
                parse_tolerance(opts["tolerance"], line_no)
                semiring = opts.get("semiring", "complex")
                if config.kind == "finfun" or semiring != "complex":
                    exact = "finfun" if config.kind == "finfun" else f"semiring={semiring}"
                    raise TheoryError(f"tolerance= needs a complex matrix or unitary theory; "
                                      f"{exact} compares exactly", line_no)
            if config.kind == "free-pointed":  # PointedFreeBackend's default names
                opts.update({"states": "phi,psi", "effects": "bang"} | opts)
            if config.kind.startswith("free-"):
                # the free kinds' built-in names; the term reader reads a
                # state, effect or endo named I as a generator
                names = [(what, opts[what]) for what in ("object", "endo") if what in opts]
                names += [(key[:-1], n) for key in ("states", "effects")
                          for n in opts.get(key, "").split(",") if n]
                for what, name in names:
                    _name(what, name, line_no)
            continue
        if config is None:
            raise TheoryError("the first declaration must be a backend line", line_no)
        if head == "object":
            if config.kind.startswith("free-"):
                raise TheoryError(f"{config.kind} backends carry a fixed object", line_no)
            parts = rest.split()
            if len(parts) != 2:
                raise TheoryError("object takes a name and dim=N or size=N", line_no)
            name = _name("object", parts[0], line_no)
            opts = _split_options(parts[1:], line_no)
            key = "dim" if config.kind in ("matrix", "unitary") else "size"
            if set(opts) != {key}:
                raise TheoryError(f"object for {config.kind} takes {key}=N", line_no)
            try:
                extent = int(opts[key])
            except ValueError:
                raise TheoryError(f"{key} must be an integer", line_no) from None
            if extent < 0:
                raise TheoryError(f"{key} must be nonnegative", line_no)
            _once(config.objects, name, extent, "object", line_no)
        elif head == "morphism":
            if config.kind.startswith("free-"):
                raise TheoryError(f"{config.kind} generators are built in", line_no)
            if "=" not in rest or ":" not in rest:
                raise TheoryError(
                    "morphism syntax: name : word -> word = literal", line_no
                )
            sig, _, literal = rest.partition("=")
            name, _, arrow = sig.partition(":")
            if "->" not in arrow:
                raise TheoryError("morphism boundary needs ->", line_no)
            dom, _, cod = arrow.partition("->")
            try:
                value = json.loads(
                    literal.strip(), parse_float=_finite, parse_constant=_finite
                )
            except ValueError as exc:
                raise TheoryError(f"bad literal: {exc}", line_no) from None
            _once(config.morphisms, _name("morphism", name.strip(), line_no),
                  (dom.strip(), cod.strip(), value, line_no), "morphism", line_no)
        elif head == "rule":
            if "->" not in rest:
                raise TheoryError("rule syntax: g1 ; g2 -> rhs", line_no)
            lhs, _, rhs = rest.partition("->")
            if ";" not in lhs:
                raise TheoryError("rule left side must be g1 ; g2", line_no)
            g1, _, g2 = lhs.partition(";")
            rule = (g1.strip(), g2.strip(), rhs.strip())
            if not config.kind.startswith("free-"):
                raise TheoryError(f"{config.kind} theories take no rules", line_no)
            endo = config.options.get("endo", "f")
            if config.kind == "free-commutative" and rule != (endo, endo, endo):
                raise TheoryError(f"the only rule available is {endo} ; {endo} -> {endo}", line_no)
            if config.kind == "free-pointed":
                if rule[2] != "1":
                    raise TheoryError("pointed rules collapse to 1", line_no)
                for what, name in zip(("state", "effect"), rule):
                    if not name or name not in config.options[what + "s"].split(","):
                        raise TheoryError(f"rule uses undeclared {what} {name!r}", line_no)
            config.rules.append(rule)
        else:
            raise TheoryError(f"unknown declaration {head!r}", line_no)
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
    if isinstance(e, (int, float)):
        return e
    raise ValueError(f"matrix entries are numbers: {e!r}")


def _complex_entry(e: Any) -> complex:
    if isinstance(e, list):
        if len(e) != 2:
            raise ValueError(f"complex entry must be [re, im]: {e!r}")
        return complex(float(_number(e[0])), float(_number(e[1])))
    return complex(float(_number(e)), 0.0)


def _rational_entry(e: Any) -> Fraction:
    if isinstance(e, (str, int)):
        return Fraction(e)
    raise ValueError(f"rational entries are integers or 'p/q' strings: {e!r}")


_ENTRIES = {"bool": _number, "complex": _complex_entry, "rational": _rational_entry}


def _matrix_entries(value: Any, semiring: str) -> list[list[Any]]:
    """Rebuild a JSON matrix literal, a list of equally long rows, for ``semiring``.

    Boolean entries are numbers; complex entries are numbers, taken as real,
    or two-element ``[re, im]`` lists, mixed freely; rational entries are
    integers or ``'p/q'`` strings.
    """
    if not (isinstance(value, list) and value and all(
        isinstance(row, list) and len(row) == len(value[0]) for row in value
    )):
        raise ValueError(f"a matrix literal is a list of equally long rows: {value!r}")
    return [[_ENTRIES[semiring](e) for e in row] for row in value]


def _indices(value: Any) -> list[int]:
    if isinstance(value, list) and all(isinstance(v, int) for v in value):
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
    """Turn a parsed theory into a live backend."""
    kind = config.kind
    opts = config.options
    if kind == "free-commutative":
        # a rule line can only restate that the endo is idempotent
        return IdempotentFreeBackend(opts.get("object", "a"), opts.get("endo", "f"))
    if kind == "free-pointed":
        names = {key: tuple(n for n in opts[key].split(",") if n) for key in ("states", "effects")}
        # no rule lines: the backend's default cancels every state/effect pair
        rules = tuple((g1, g2) for g1, g2, _ in config.rules) or None
        with _refusal_named(f"backend {kind}", config.line_no):
            return PointedFreeBackend(opts.get("object", "a"), rules=rules, **names)
    # parse_theory has refused a bad tolerance, and one on an exact theory
    numeric = {"tolerance": float(opts["tolerance"])} if "tolerance" in opts else {}
    semiring = opts.get("semiring", "complex")
    if kind == "finfun":
        backend = FinFunBackend(config.objects)
        entries = _indices
    else:
        # the matrix modules load numpy, so free and finfun theories never import them
        from .backends.matrix import MatrixBackend
        from .backends.unitary import UnitaryBackend

        with _refusal_named(f"backend {kind}", config.line_no):
            if kind == "unitary":
                backend = UnitaryBackend(config.objects, **numeric)
            else:
                backend = MatrixBackend(config.objects, semiring=semiring, **numeric)
        entries = functools.partial(_matrix_entries, semiring=semiring)
    for name, (dom, cod, value, line_no) in config.morphisms.items():
        with _refusal_named(f"morphism {name}", line_no):
            backend.add_generator(
                name, ObjectWord.parse(dom), ObjectWord.parse(cod), entries(value)
            )
    return backend


def load_theory(path: str):
    with open(path, encoding="utf-8") as handle:
        return build_backend(parse_theory(handle.read()))
