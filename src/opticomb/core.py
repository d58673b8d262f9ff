"""Core vocabulary shared by every backend.

This module defines the pieces every other module builds on:

* :class:`ObjectWord` -- objects of a strict monoidal category, kept as flat
  words of generator names (the unit is the empty word).
* Morphism terms (:class:`Generator`, :class:`Identity`, :class:`Symmetry`,
  :class:`Compose`, :class:`Tensor`) -- a tiny syntax tree with a typed,
  functorial evaluator.
* :class:`Backend` -- the contract a concrete category satisfies for the
  generic deciders: six methods (``object_names``, ``identity``,
  ``symmetry``, ``compose``, ``tensor``, ``equal``) and the ``_gens`` table
  of generator values.  Values carry their own ``dom`` / ``cod``, and words
  compare with ``==``; the rest (the batched filler kernel ``plug_lower``
  then ``plug_upper``, enumeration, cartesian structure, duals, a dagger,
  certification hooks, canonical keys) are optional hooks.
  :class:`SizedBackend` is the base of backends over named finite sizes.
* :class:`Decision` -- the three-valued answer type used by every
  equivalence procedure, together with its witness payloads.
* :class:`Record` -- the base of these and every other record of the
  package: its fields are its ``__init__``'s parameters.
* JSON data -- :func:`value_json`, :func:`witness_json` and
  :func:`decision_json`.  Backend values and witnesses serialize
  themselves through ``to_json``; numbers, arrays, words, terms (in
  program syntax, :func:`term_text`) and containers are handled here.

Everything here is immutable and all operations are pure functions, so
values can be shared freely.

>>> a = ObjectWord.parse("a")
>>> a @ a
ObjectWord.parse('a*a')
>>> len(a @ a @ ObjectWord.unit())
2
"""
from __future__ import annotations

import itertools
import sys
from abc import ABC, abstractmethod
from enum import Enum
from fractions import Fraction
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence

# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class CategoryError(Exception):
    """Base class for structural errors raised by backends and deciders."""


class UnknownGenerator(CategoryError):
    """A term references a generator the backend does not declare."""


class TypeMismatch(CategoryError):
    """Composition of values or terms whose boundary words do not meet.

    Carries the offending term (when raised during term evaluation) so
    callers can point at the exact subterm.
    """

    def __init__(self, message: str, offender: "MorTerm | None" = None):
        super().__init__(message)
        self.offender = offender


class BoundaryMismatch(CategoryError):
    """Two comb representatives do not share the same boundary."""


class NotEnumerable(CategoryError):
    """The backend cannot enumerate the requested hom-set or object list."""


class NotCartesian(CategoryError):
    """Cartesian structure (copy/projections) was requested but absent."""


class NotCompactClosed(CategoryError):
    """Duals / cups / caps were requested from a backend without them."""


class NotDaggerBackend(CategoryError):
    """A dagger was requested from a backend without an involution."""


class IncompatibleStrategy(CategoryError):
    """A probe strategy was requested that the backend cannot support."""


class NonComposableMove(CategoryError):
    """A slide move whose factorization does not reproduce the representative."""


class BadSplit(CategoryError):
    """A tensor split (environment vs. leg) that does not match the value's type."""


class DimensionMismatch(CategoryError):
    """Numeric dimensions disagree where they are required to match."""


class IllTypedFunctor(CategoryError):
    """A backend functor whose object/morphism maps do not preserve types."""


class HoleMismatch(CategoryError):
    """A plug or filler whose pair does not match the hole it is aimed at."""


class UnsupportedShape(CategoryError):
    """A polymorphism composition shape outside the supported fragment."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

_set = object.__setattr__  # how a record's __init__ sets a field


class Record:
    """Base of the immutable records, which generate no code.  A record's
    fields are its ``__init__``'s parameters, stored by :meth:`_fill`, or by
    one ``_set`` each in the records built on hot paths, which costs less.
    A record equals a record of its own type with equal fields, never a
    tuple, hashes by its fields, and refuses assignment.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "__init__" in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]

    def _fill(self, values: dict[str, Any]) -> None:
        """Store each field from ``values``, the ``locals()`` of ``__init__``."""
        for name in self._fields:
            _set(self, name, values[name])

    def _asdict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._fields}

    def replace(self, **changes: Any) -> "Record":
        """The record with ``changes`` (field name -> value), built anew."""
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other: Any) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __setattr__(self, name: str, *value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Object words
# ---------------------------------------------------------------------------

#: the rule for an object or generator name, which a theory declares and a
#: program writes: a letter or ``_``, then letters, digits, ``_`` and ``'``
NAME = r"[^\W\d][\w']*"

_WORDS: dict[tuple[str, ...], "ObjectWord"] = {}  # the one instance of each word

class ObjectWord:
    """A word of generator object names; the monoidal unit is the empty word.

    Tensor is concatenation, written ``@``:

    >>> ObjectWord.parse("a*b") @ ObjectWord.unit()
    ObjectWord.parse('a*b')

    Each factor tuple has exactly one instance (words are hash-consed), so
    equality is identity and hashing is the object's, both run in C.
    """

    __slots__ = ("factors",)

    def __new__(cls, factors: tuple[str, ...] = ()) -> "ObjectWord":
        word = _WORDS.get(factors)
        if word is None:  # setdefault: two threads that race here keep one word
            word = object.__new__(cls)
            object.__setattr__(word, "factors", factors)
            word = _WORDS.setdefault(factors, word)
        return word

    def __setattr__(self, name: str, *value: Any) -> None:
        raise AttributeError(f"ObjectWord is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # copy, deepcopy and pickle give the interned word
        return (ObjectWord, (self.factors,))

    @staticmethod
    def unit() -> "ObjectWord":
        return ObjectWord(())

    @staticmethod
    def of(*names: str) -> "ObjectWord":
        return ObjectWord(tuple(names))

    @staticmethod
    def parse(text: str) -> "ObjectWord":
        """Parse ``'a*b*c'``; ``'I'`` (or ``''``) denotes the unit."""
        text = text.strip()
        if text in ("I", ""):
            return ObjectWord(())
        return ObjectWord(tuple(part.strip() for part in text.split("*")))

    def __matmul__(self, other: "ObjectWord") -> "ObjectWord":
        return ObjectWord(self.factors + other.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self) -> Iterator[str]:
        return iter(self.factors)

    def __bool__(self) -> bool:
        return bool(self.factors)

    def reversed(self) -> "ObjectWord":
        return ObjectWord(tuple(reversed(self.factors)))

    def pretty(self) -> str:
        return "*".join(self.factors) if self.factors else "I"

    def __repr__(self) -> str:
        return f"ObjectWord.parse({self.pretty()!r})"


def _join(words: Sequence[ObjectWord]) -> ObjectWord:
    if len(words) == 1:  # the one-hole case, which builds no new word
        return words[0]
    return ObjectWord(sum((w.factors for w in words), ()))


# ---------------------------------------------------------------------------
# Morphism terms
# ---------------------------------------------------------------------------

class MorTerm(Record):
    """Base class of morphism syntax."""


class Generator(MorTerm):
    def __init__(self, name: str):
        self._fill(locals())


class Identity(MorTerm):
    def __init__(self, word: ObjectWord):
        self._fill(locals())


class Symmetry(MorTerm):
    def __init__(self, left: ObjectWord, right: ObjectWord):
        self._fill(locals())


class Compose(MorTerm):
    """``Compose(first, then)``: ``first`` happens first (diagrammatic order)."""

    def __init__(self, first: MorTerm, then: MorTerm):
        self._fill(locals())


class Tensor(MorTerm):
    def __init__(self, left: MorTerm, right: MorTerm):
        self._fill(locals())


def eval_term(term: MorTerm, backend: "Backend") -> Any:
    """Evaluate a term to a backend value; evaluation is functorial by construction."""
    return _eval(term, backend)


def _eval(term: MorTerm, backend: "Backend") -> Any:
    # recursion stays here, so a traced eval_term counts one call per term
    if isinstance(term, Generator):
        return backend.generator(term.name)
    if isinstance(term, Identity):
        return backend.identity(term.word)
    if isinstance(term, Symmetry):
        return backend.symmetry(term.left, term.right)
    if isinstance(term, Compose):
        first, then = _eval(term.first, backend), _eval(term.then, backend)
        c1, d2 = backend.cod(first), backend.dom(then)
        if c1 != d2:
            raise TypeMismatch(
                f"cannot compose: left produces {c1.pretty()} but right consumes {d2.pretty()}",
                offender=term,
            )
        return backend.compose(first, then)
    if isinstance(term, Tensor):
        return backend.tensor(_eval(term.left, backend), _eval(term.right, backend))
    raise TypeError(f"not a morphism term: {term!r}")


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


# ---------------------------------------------------------------------------
# Enumeration records
# ---------------------------------------------------------------------------

class HomSet(Record):
    """A duplicate-free enumeration of a hom-set, flagged if truncated."""

    def __init__(self, items: tuple, complete: bool):
        self._fill(locals())


class Budget(Record):
    """Enumeration budget derived from a single user-facing integer bound.

    ``max_word_len`` caps extension-object word length; ``max_hom`` caps how
    many morphisms a single hom-set enumeration may return before being
    flagged truncated.
    """

    def __init__(self, max_word_len: int, max_hom: int):
        _set(self, "max_word_len", max_word_len)
        _set(self, "max_hom", max_hom)

    @staticmethod
    def of(bound: int) -> "Budget":
        if bound < 0:
            raise ValueError("bound must be >= 0")
        return Budget(bound, min(4 ** max(bound, 1), 65536))


# ---------------------------------------------------------------------------
# Backend contract
# ---------------------------------------------------------------------------

class Backend(ABC):
    """Operations a concrete symmetric monoidal category must provide.

    Morphism values are opaque to callers; they carry their own boundary
    words, reachable through :meth:`dom` / :meth:`cod`.  Capability flags
    advertise extra structure; deciders consult them before relying on it.
    """

    name: str = "backend"

    # capability flags
    cartesian: bool = False
    compact_closed: bool = False
    has_dagger: bool = False
    enumerable: bool = False
    unitary_values: bool = False

    #: True when equality of braid values settles filler agreement in both
    #: directions, i.e. two combs evaluate the same under every filler exactly
    #: when their braid values coincide.  Compact closed structure gives this
    #: outright; a backend may also set it on the strength of a faithful
    #: tensor-preserving model inside a compact closed category.
    braid_conclusive: bool = False

    #: comparison tolerance for approximate backends, None when equality is exact
    tolerance: float | None = None

    # -- signature ----------------------------------------------------------

    @abstractmethod
    def object_names(self) -> tuple[str, ...]:
        """Generator object names, in declaration order."""

    #: generator values by name, in declaration order; filled by the backend
    _gens: dict[str, Any]

    def generator_names(self) -> tuple[str, ...]:
        """Generator morphism names, in declaration order."""
        return tuple(self._gens)

    def generator(self, name: str) -> Any:
        """Value of a declared generator; raises UnknownGenerator."""
        if name not in self._gens:
            raise UnknownGenerator(f"unknown morphism {name!r}")
        return self._gens[name]

    # -- structure ----------------------------------------------------------

    def dom(self, m: Any) -> ObjectWord:
        """Domain word of a value; values carry it as ``m.dom`` unless overridden."""
        return m.dom

    def cod(self, m: Any) -> ObjectWord:
        return m.cod

    @abstractmethod
    def identity(self, word: ObjectWord) -> Any: ...

    @abstractmethod
    def symmetry(self, left: ObjectWord, right: ObjectWord) -> Any:
        """The braiding left @ right -> right @ left."""

    @abstractmethod
    def compose(self, first: Any, then: Any) -> Any:
        """Diagrammatic composition: ``first`` then ``then``; raises TypeMismatch."""

    @abstractmethod
    def tensor(self, left: Any, right: Any) -> Any: ...

    @abstractmethod
    def equal(self, m1: Any, m2: Any) -> bool:
        """Semantic equality at the backend's tolerance; same-boundary values only."""

    def plug_lower(self, before: Any, beside: Any, fillers: Sequence[Any]) -> Any:
        """``before ; (beside (x) filler)`` for each filler of a non-empty block
        that shares one type: the filler kernel's lower half, which
        :meth:`plug_upper` ends with ``; after``.  ``comb.plug_chain`` plugs a
        context block's distinct fillers of the first hole as one block, and
        a later hole's one at a time; ``polycomb.poly_compose_at`` plugs blocks of one
        filler; the congruence search keys a block's lower half for many tops
        (:meth:`block_key`).  The matrix and finfun backends batch the block."""
        return [self.compose(before, self.tensor(beside, lam)) for lam in fillers]

    def plug_upper(self, lower: Any, after: Any) -> list:
        """``; after`` on each value of a lower half: the plugged values."""
        return [self.compose(v, after) for v in lower]

    def block_key(self, lower: Any, after: Any) -> Hashable:
        """Equal exactly when every value of ``plug_upper(lower, after)`` is
        :meth:`equal`; by default the tuple of the values' keys."""
        return tuple(self.canonical_key(v) for v in self.plug_upper(lower, after))

    def bend(self, holes: Sequence[tuple[ObjectWord, ObjectWord]],
             envs: Sequence[ObjectWord], segments: Sequence[Any]) -> Any:
        """The name of a chain (``comb.plug_chain``), every hole bent around:
        ``B (x) A_0' .. A_{n-1}' -> B' (x) A_0 .. A_{n-1}``, each hole output
        waiting on the right until its segment takes it in, each hole input
        parked on the far right.  The swap filler ``sigma(A_i', A_i)`` at
        context ``(A_i', A_i)`` in every hole gives it up to fixed symmetries,
        so it refutes plugging equivalence on any backend; on one hole it is
        the braid value.  By default swaps and segments beside identities,
        composed hole by hole; the matrix backend contracts."""
        ins, outs = [a for (a, _) in holes], [a1 for (_, a1) in holes]
        val = self.tensor(segments[0], self.identity(_join(outs)))
        for i, ((a, a1), e) in enumerate(zip(holes, envs)):
            rest = outs[i + 1 :] + ins[:i]
            right = _join([a1] + rest)
            val = self.compose(val, self.tensor(self.identity(e), self.symmetry(a, right)))
            val = self.compose(val, self.tensor(segments[i + 1], self.identity(_join(rest + [a]))))
        return val

    def _require_composable(self, first: Any, then: Any) -> None:
        if self.cod(first) != self.dom(then):
            raise TypeMismatch(
                f"cannot compose {self.cod(first).pretty()} into {self.dom(then).pretty()}"
            )

    def _require_same_boundary(self, m1: Any, m2: Any) -> None:
        if m1.dom != m2.dom or m1.cod != m2.cod:
            raise TypeMismatch(
                f"cannot compare {m1.dom.pretty()} -> {m1.cod.pretty()} with "
                f"{m2.dom.pretty()} -> {m2.cod.pretty()}"
            )

    # -- enumeration ---------------------------------------------------------

    def enumerate_objects(self, max_len: int) -> tuple[ObjectWord, ...]:
        """All object words up to the given length, shortest first then lexicographic."""
        names = sorted(self.object_names())
        return tuple(ObjectWord(f) for n in range(max_len + 1)
                     for f in itertools.product(names, repeat=n))

    def enumerate_hom(self, dom: ObjectWord, cod: ObjectWord, budget: int) -> HomSet:
        """Up to ``budget`` morphisms dom -> cod in a fixed deterministic order.

        ``complete=True`` only when the returned items exhaust the hom-set.
        """
        raise NotEnumerable(f"{self.name} cannot enumerate hom-sets")

    # -- cartesian structure --------------------------------------------------

    def copy(self, word: ObjectWord) -> Any:
        raise NotCartesian(f"{self.name} has no copy map")

    def proj1(self, left: ObjectWord, right: ObjectWord) -> Any:
        raise NotCartesian(f"{self.name} has no projections")

    def proj2(self, left: ObjectWord, right: ObjectWord) -> Any:
        raise NotCartesian(f"{self.name} has no projections")

    # -- compact structure -----------------------------------------------------

    def dual(self, word: ObjectWord) -> ObjectWord:
        raise NotCompactClosed(f"{self.name} has no duals")

    def cup(self, word: ObjectWord) -> Any:
        """Unit I -> dual(word) @ word."""
        raise NotCompactClosed(f"{self.name} has no cups")

    def cap(self, word: ObjectWord) -> Any:
        """Counit word @ dual(word) -> I."""
        raise NotCompactClosed(f"{self.name} has no caps")

    # -- dagger ----------------------------------------------------------------

    def dagger(self, m: Any) -> Any:
        raise NotDaggerBackend(f"{self.name} has no dagger")

    # -- certification hooks -----------------------------------------------------

    def env_lengths_for_boundary(
        self,
        source: tuple[ObjectWord, ObjectWord],
        target: tuple[ObjectWord, ObjectWord],
    ) -> tuple[int, ...] | None:
        """Word lengths an environment can have for combs on this boundary.

        ``None`` means unknown or unbounded.  Backends whose hom-sets are
        graded (so most environment shapes host no representative at all)
        override this; it is what lets a bounded zigzag search certify that
        its state space was exhausted.
        """
        return None

    def extension_word_len_needed(
        self,
        source: tuple[ObjectWord, ObjectWord],
        target: tuple[ObjectWord, ObjectWord],
    ) -> int | None:
        """Extension word length at which probe agreement becomes conclusive.

        ``None`` means the backend offers no such certificate and enumerated
        probing can refute but never confirm.
        """
        return None

    def canonical_key(self, m: Any) -> Hashable:
        """A hashable key for searches: equal keys exactly when :meth:`equal`.

        Only exact backends have keys; one that compares within a tolerance
        raises NotEnumerable, since no key can follow that comparison.
        """
        raise NotEnumerable(f"{self.name} has no canonical keys")

    def value_to_term(self, m: Any) -> MorTerm | None:
        """A term evaluating to ``m``, when the backend can reconstruct one."""
        return None


class SizedBackend(Backend):
    """A backend whose objects are named finite sizes (matrix dimensions, set
    sizes); a word's size is the product of its factors' sizes."""

    def __init__(self, dims: Mapping[str, int]):
        for obj, d in dims.items():
            if d < 0:
                raise DimensionMismatch(f"object {obj} has negative size {d}")
        self.dims = dict(dims)
        self._gens = {}

    def object_names(self) -> tuple[str, ...]:
        return tuple(self.dims)

    def dim(self, word: ObjectWord) -> int:
        total = 1
        for f in word:
            if f not in self.dims:
                raise UnknownGenerator(f"unknown object {f!r}")
            total *= self.dims[f]
        return total

    def extension_word_len_needed(
        self,
        source: tuple[ObjectWord, ObjectWord],
        target: tuple[ObjectWord, ObjectWord],
    ) -> int:
        # the swap filler at context (B', B) recovers the braid value, and
        # braid values settle filler agreement on every sized backend
        hole_in, hole_out = target
        return max(len(hole_in), len(hole_out))


def permutation_term(words: Sequence[ObjectWord], perm: Sequence[int]) -> MorTerm:
    """A term permuting tensor blocks: output slot j holds input block ``perm[j]``.

    Built from adjacent transpositions, so it evaluates in any symmetric
    backend.  ``words[i]`` is the word of input block i.
    """
    order = list(perm)
    if sorted(order) != list(range(len(words))):
        raise ValueError(f"not a permutation of {len(words)} blocks: {perm}")
    current = list(range(len(words)))
    total = ObjectWord(tuple(f for w in words for f in w.factors))
    term: MorTerm = Identity(total)
    # bubble the blocks into place with adjacent swaps
    for target_pos in range(len(order)):
        src = current.index(order[target_pos])
        while src > target_pos:
            left = ObjectWord(tuple(f for i in current[: src - 1] for f in words[i]))
            a, b = words[current[src - 1]], words[current[src]]
            right = ObjectWord(tuple(f for i in current[src + 1 :] for f in words[i]))
            step: MorTerm = Symmetry(a, b)
            if left:
                step = Tensor(Identity(left), step)
            if right:
                step = Tensor(step, Identity(right))
            term = Compose(term, step)
            current[src - 1], current[src] = current[src], current[src - 1]
            src -= 1
    return term


def block_permutation(
    backend: Backend, words: Sequence[ObjectWord], perm: Sequence[int]
) -> Any:
    """Evaluated form of :func:`permutation_term` in the given backend."""
    return eval_term(permutation_term(words, perm), backend)


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------

class Verdict(str, Enum):
    EQUIVALENT = "equivalent"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


class ProbeWitness(Record):
    """A probe on which two representatives evaluate to different values.

    The probe is the filler ``probe : C (x) A -> D (x) A'`` at context
    ``(c_word, d_word)``; ``left`` and ``right`` are the values
    ``comb.plug_chain`` gives the two representatives on it.  A witness on a
    chain with n != 1 holes holds a tuple in ``c_word``, ``d_word``,
    ``probe`` and ``probe_term``, one entry per hole: :meth:`of` writes that
    layout and :meth:`probes` reads it.
    """

    def __init__(self, c_word: ObjectWord | tuple[ObjectWord, ...],
                 d_word: ObjectWord | tuple[ObjectWord, ...], probe: Any, left: Any,
                 right: Any, probe_term: MorTerm | tuple[MorTerm, ...] | None = None,
                 note: str = ""):
        self._fill(locals())

    @staticmethod
    def of(fillers: Sequence[Any], contexts: Sequence[tuple[ObjectWord, ObjectWord]],
           left: Any, right: Any, terms: Iterable[Any], note: str) -> "ProbeWitness":
        """The witness of the probe ``(fillers, contexts)``."""
        fields = [tuple(c for c, _ in contexts), tuple(d for _, d in contexts),
                  tuple(fillers), tuple(terms)]
        cw, dw, probe, term = fields if len(fillers) != 1 else [f[0] for f in fields]
        return ProbeWitness(cw, dw, probe, left, right, term, note)

    def probes(self) -> list[tuple[list, tuple]]:
        """The witness as a one-probe stream of ``comb.plug_chain``."""
        one = isinstance(self.c_word, ObjectWord)
        cs, ds, fillers = ([f] if one else f for f in (self.c_word, self.d_word, self.probe))
        return [([tuple(fillers)], tuple(zip(cs, ds)))]

    def to_json(self) -> dict:
        data = {
            "type": "probe",
            "context_in": value_json(self.c_word),
            "context_out": value_json(self.d_word),
            "probe": value_json(self.probe),
            "left": value_json(self.left),
            "right": value_json(self.right),
        }
        if self.probe_term is not None:
            data["probe_term"] = value_json(self.probe_term)
        if self.note:
            data["note"] = self.note
        return data


class SlideStep(Record):
    def __init__(self, direction: str, v: Any, residual: Any):
        _set(self, "direction", direction)  # "push_up" | "push_down"
        _set(self, "v", v)
        _set(self, "residual", residual)

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "slide": value_json(self.v),
            "environment": value_json(self.residual),
        }


class SlidePathWitness(Record):
    """A chain of slide moves connecting two representatives."""

    def __init__(self, steps: tuple[SlideStep, ...]):
        self._fill(locals())

    def to_json(self) -> dict:
        return {"type": "slide-path", "steps": value_json(self.steps)}


class ExhaustionWitness(Record):
    """Evidence that a certified-finite search space was fully explored."""

    def __init__(self, states_explored: int, environments: tuple[ObjectWord, ...],
                 note: str = ""):
        self._fill(locals())

    def to_json(self) -> dict:
        return {
            "type": "exhaustion",
            "states_explored": self.states_explored,
            "environments": [w.pretty() for w in self.environments],
            "note": self.note,
        }


class FactorWitness(Record):
    """Factorization data produced by a structural decision procedure."""

    def __init__(self, pieces: Mapping[str, Any], note: str = ""):
        self._fill(locals())

    def to_json(self) -> dict:
        return {
            "type": "factor",
            "pieces": {k: value_json(v) for k, v in sorted(self.pieces.items())},
            "note": self.note,
        }


class Decision(Record):
    """Three-valued decision with provenance.

    Invariants enforced here: a DISTINCT verdict always carries a witness,
    and an EQUIVALENT verdict is only ever emitted as certified -- probe
    strategies that merely ran out of probes must return UNKNOWN with
    coverage statistics instead.
    """

    def __init__(self, verdict: Verdict, method: str, certified: bool, witness: Any = None,
                 tolerance: float | None = None, coverage: Mapping[str, Any] | None = None):
        if verdict is Verdict.DISTINCT and witness is None:
            raise ValueError("a distinct verdict requires a witness")
        if verdict is Verdict.EQUIVALENT and not certified:
            raise ValueError("an uncertified equivalence must be reported unknown")
        _set(self, "verdict", verdict)
        _set(self, "method", method)
        _set(self, "certified", certified)
        _set(self, "witness", witness)
        _set(self, "tolerance", tolerance)
        _set(self, "coverage", coverage)

    @staticmethod
    def equivalent(method: str, witness: Any = None,
                   coverage: Mapping[str, Any] | None = None) -> "Decision":
        return Decision(Verdict.EQUIVALENT, method, True, witness, None, coverage)

    @staticmethod
    def distinct(method: str, witness: Any,
                 coverage: Mapping[str, Any] | None = None) -> "Decision":
        return Decision(Verdict.DISTINCT, method, True, witness, None, coverage)

    @staticmethod
    def unknown(method: str, coverage: Mapping[str, Any] | None = None) -> "Decision":
        return Decision(Verdict.UNKNOWN, method, False, None, None, coverage)

    def is_equivalent(self) -> bool:
        return self.verdict is Verdict.EQUIVALENT

    def is_distinct(self) -> bool:
        return self.verdict is Verdict.DISTINCT

    def is_unknown(self) -> bool:
        return self.verdict is Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# JSON data
# ---------------------------------------------------------------------------

def value_json(value: Any) -> Any:
    """Serialize a value to JSON data: a backend value or witness through
    its ``to_json``; a number, array, word, term, decision or container here."""
    if hasattr(value, "to_json"):
        return value.to_json()
    # numpy is imported only where a matrix value is built: until then no
    # value is a numpy array or number, and serializing loads nothing
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.ndarray):
        return value_json(np.atleast_2d(value).tolist())
    if np is not None and isinstance(value, np.generic):
        value = value.item()  # the Python scalar of a numpy scalar
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
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def witness_json(witness: Any) -> dict:
    """A witness's own JSON data; one without ``to_json`` shows its repr."""
    if hasattr(witness, "to_json"):
        return witness.to_json()
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
