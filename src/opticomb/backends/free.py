"""Three small syntactically-presented backends with exact equality.

``IdempotentFreeBackend`` is the commutative strand category on one object
with one idempotent endomorphism.  Because its symmetry is an identity,
naturality forces every hom-set on n strands down to two classes: the
identity, and "applies the endomorphism somewhere".  Values keep their
per-strand flags for display, equality compares the collapsed class.

``PointedFreeBackend`` is the free symmetric monoidal category on one
object with a choice of point generators (states) and a discarding effect,
modulo rewrite rules that cancel chosen state/effect pairs.  Morphisms
normalize to wiring data: which inputs pass to which outputs, which are
discarded, which outputs are freshly seeded, plus any scalar loops the
rules do not cancel.  Each rule erases one state and one effect node and
a state has a single output wire, so rewriting terminates, no two rules
overlap, and normal forms are unique.  A wiring is stored as two index
tuples, per input where it goes and per output where it comes from, so
``compose`` and ``tensor`` are tuple gathers.

``AbsorbingPointedBackend`` is the pointed theory on ``psi, phi`` and
``bang`` with no cancelling rules and one equation,
``bang (x) psi = bang (x) phi``.  It has no faithful compact closed model,
so braid values do not settle filler agreement on it.
"""
from __future__ import annotations

import functools
import itertools
from typing import Hashable, Iterable

from ..core import (
    Backend,
    Compose,
    Generator,
    HomSet,
    Identity,
    MorTerm,
    ObjectWord,
    Record,
    Tensor,
    UnknownGenerator,
    _set,
    permutation_term,
)


class _OneObjectBackend(Backend):
    """Object words of the free backends: runs of the one ``object_name``."""

    object_name: str

    def strands(self, n: int) -> ObjectWord:
        return ObjectWord((self.object_name,) * n)

    def _check_word(self, word: ObjectWord) -> ObjectWord:
        for fct in word:
            if fct != self.object_name:
                raise UnknownGenerator(f"unknown object {fct!r}")
        return word

    def object_names(self) -> tuple[str, ...]:
        return (self.object_name,)


# ---------------------------------------------------------------------------
# Idempotent strands
# ---------------------------------------------------------------------------

class StrandMor(Record):
    """Parallel strands, each either the identity or the idempotent endo.

    ``word`` is both boundary words; ``flags[i]`` marks the endo on strand i.
    """

    def __init__(self, word: ObjectWord, flags: tuple[bool, ...]):
        _set(self, "word", word)
        _set(self, "flags", flags)

    @property
    def dom(self) -> ObjectWord:
        return self.word

    cod = dom

    def touched(self) -> bool:
        return any(self.flags)

    def __repr__(self) -> str:
        body = "*".join("f" if x else "1" for x in self.flags) or "1"
        return f"StrandMor({self.word.pretty()}, {body})"

    def to_json(self) -> dict:
        """The word and the endo flags, as JSON data."""
        flags = list(self.flags)
        return {"word": self.word.pretty(), "flags": flags, "touched": self.touched()}


class IdempotentFreeBackend(_OneObjectBackend):
    """Free commutative strand category on one idempotent endomorphism."""

    name = "free-commutative"
    enumerable = True
    # a one-dimensional matrix model (object -> dimension 1, endo -> the 1x1
    # zero matrix) separates the two classes on every hom-set and preserves
    # all structure, so braid values settle filler agreement here
    braid_conclusive = True

    def __init__(self, object_name: str = "a", endo_name: str = "f"):
        self.object_name = object_name
        self.endo_name = endo_name
        self._gens = {endo_name: StrandMor(self.strands(1), (True,))}

    # -- structure ----------------------------------------------------------------

    def identity(self, word: ObjectWord) -> StrandMor:
        w = self._check_word(word)
        return StrandMor(w, (False,) * len(w))

    def symmetry(self, left: ObjectWord, right: ObjectWord) -> StrandMor:
        # the symmetry is an identity wiring in the collapsed category
        return self.identity(left @ right)

    def compose(self, first: StrandMor, then: StrandMor) -> StrandMor:
        self._require_composable(first, then)
        return StrandMor(
            first.word, tuple(x or y for x, y in zip(first.flags, then.flags))
        )

    def tensor(self, left: StrandMor, right: StrandMor) -> StrandMor:
        return StrandMor(left.word @ right.word, left.flags + right.flags)

    def equal(self, m1: StrandMor, m2: StrandMor) -> bool:
        self._require_same_boundary(m1, m2)
        return m1.touched() == m2.touched()

    # -- enumeration -----------------------------------------------------------------

    def enumerate_hom(self, dom: ObjectWord, cod: ObjectWord, budget: int) -> HomSet:
        d = self._check_word(dom)
        c = self._check_word(cod)
        if len(d) != len(c):
            return HomSet((), complete=True)
        n = len(d)
        if n == 0:
            items: tuple = (self.identity(d),)
        else:
            items = (
                StrandMor(d, (False,) * n),
                StrandMor(d, (True,) + (False,) * (n - 1)),
            )
        if len(items) > budget:
            return HomSet(items[:budget], complete=False)
        return HomSet(items, complete=True)

    # -- hooks ----------------------------------------------------------------------

    def env_lengths_for_boundary(
        self,
        source: tuple[ObjectWord, ObjectWord],
        target: tuple[ObjectWord, ObjectWord],
    ) -> tuple[int, ...]:
        # every morphism preserves strand count, so the environment width
        # is pinned by the boundary
        e = len(source[0]) - len(target[0])
        if e >= 0 and len(source[1]) - len(target[1]) == e:
            return (e,)
        return ()

    def extension_word_len_needed(
        self,
        source: tuple[ObjectWord, ObjectWord],
        target: tuple[ObjectWord, ObjectWord],
    ) -> int:
        # the all-identity filler at the narrowest typable context already
        # separates the two collapsed classes any composite can land in
        return abs(len(target[0]) - len(target[1]))

    def canonical_key(self, m: StrandMor) -> Hashable:
        return ("strand", len(m.word), m.touched())

    def value_to_term(self, m: StrandMor) -> MorTerm:
        n = len(m.word)
        if not m.touched():
            return Identity(m.word)
        if n == 1:
            return Generator(self.endo_name)
        return Tensor(Generator(self.endo_name), Identity(self.strands(n - 1)))


# ---------------------------------------------------------------------------
# Pointed wirings
# ---------------------------------------------------------------------------

class WiringMor(Record):
    """Normal form of a diagram built from states, an effect, and wires.

    ``ins[i]`` is the output that input i passes to, or the name of the
    effect that discards it; ``outs[j]`` is the input that output j comes
    from, or the name of the state that seeds it.  ``scalars`` is the sorted
    multiset of (state, effect) loops the rewrite rules left behind.
    ``matching``, ``caps`` and ``seeds`` read the same data as sorted
    (input, output), (input, effect) and (output, state) pairs.
    """

    def __init__(self, dom: ObjectWord, cod: ObjectWord, ins: tuple, outs: tuple,
                 scalars: tuple):
        _set(self, "dom", dom)
        _set(self, "cod", cod)
        _set(self, "ins", ins)
        _set(self, "outs", outs)
        _set(self, "scalars", scalars)

    def pairs(self) -> tuple[tuple, tuple, tuple]:
        """``(matching, caps, seeds)``, read in one pass."""
        matching: list = []
        caps: list = []
        for pair in enumerate(self.ins):
            (caps if type(pair[1]) is str else matching).append(pair)
        seeds = [pair for pair in enumerate(self.outs) if type(pair[1]) is str]
        return tuple(matching), tuple(caps), tuple(seeds)

    matching = property(lambda self: self.pairs()[0])
    caps = property(lambda self: self.pairs()[1])
    seeds = property(lambda self: self.pairs()[2])

    def __repr__(self) -> str:
        labelled = zip(("wires", "caps", "seeds", "scalars"), (*self.pairs(), self.scalars))
        body = "; ".join(f"{label} {list(pairs)}" for label, pairs in labelled if pairs) or "empty"
        return f"WiringMor({self.dom.pretty()} -> {self.cod.pretty()}: {body})"

    def to_json(self) -> dict:
        """The boundary words and the sorted wiring, as JSON data."""
        return {
            "dom": self.dom.pretty(),
            "cod": self.cod.pretty(),
            "matching": [list(p) for p in self.matching],
            "caps": list(self.caps),
            "seeds": list(self.seeds),
            "scalars": [list(p) for p in self.scalars],
        }


class PointedFreeBackend(_OneObjectBackend):
    """Free symmetric monoidal category on states and a discarding effect.

    ``rules`` lists (state, effect) pairs whose composite rewrites to the
    empty diagram.  Hom-set enumeration generates scalar-free wirings but
    is always reported as truncated: the backend treats its own hom-sets
    as open-ended, so downstream certification never leans on it.
    """

    name = "free-pointed"
    enumerable = True
    # the braid value of a comb records the complete wiring of the open
    # diagram, and plugging a filler composes wirings, so braid agreement
    # settles filler agreement here as well
    braid_conclusive = True

    def __init__(
        self,
        object_name: str = "a",
        states: Iterable[str] = ("phi", "psi"),
        effects: Iterable[str] = ("bang",),
        rules: Iterable[tuple[str, str]] | None = None,
    ):
        self.object_name = object_name
        self.states = tuple(states)
        self.effects = tuple(effects)
        if rules is None:
            rules = [(s, e) for s in self.states for e in self.effects]
        self.rules = frozenset(rules)
        for s, e in self.rules:
            if s not in self.states:
                raise UnknownGenerator(f"rule uses undeclared state {s!r}")
            if e not in self.effects:
                raise UnknownGenerator(f"rule uses undeclared effect {e!r}")
        names = self.states + self.effects
        if len(set(names)) != len(names):
            raise ValueError(f"state and effect names must be distinct, got {names}")
        unit, a = ObjectWord.unit(), self.strands(1)
        self._gens = {s: WiringMor(unit, a, (), (s,), ()) for s in self.states}
        self._gens.update((e, WiringMor(a, unit, (e,), (), ())) for e in self.effects)

    # -- structure ------------------------------------------------------------------

    def identity(self, word: ObjectWord) -> WiringMor:
        w = self._check_word(word)
        wires = tuple(range(len(w)))
        return WiringMor(w, w, wires, wires, ())

    def symmetry(self, left: ObjectWord, right: ObjectWord) -> WiringMor:
        nl, nr = len(self._check_word(left)), len(self._check_word(right))
        ins = tuple(range(nr, nr + nl)) + tuple(range(nr))
        outs = tuple(range(nl, nl + nr)) + tuple(range(nl))
        return WiringMor(left @ right, right @ left, ins, outs, ())

    def compose(self, first: WiringMor, then: WiringMor) -> WiringMor:
        self._require_composable(first, then)
        # an input goes where ``then`` sends its middle wire, an output comes from
        # where ``first`` takes it; a state fed into an effect closes a loop
        mid_ins, mid_outs = then.ins, first.outs
        ins = tuple([x if type(x) is str else mid_ins[x] for x in first.ins])
        outs = tuple([y if type(y) is str else mid_outs[y] for y in then.outs])
        loops = [(s, e) for s, e in zip(mid_outs, mid_ins)
                 if type(s) is str and type(e) is str and (s, e) not in self.rules]
        scalars = first.scalars + then.scalars + tuple(loops)
        if len(scalars) > 1:
            scalars = tuple(sorted(scalars))
        return WiringMor(first.dom, then.cod, ins, outs, scalars)

    def tensor(self, left: WiringMor, right: WiringMor) -> WiringMor:
        di, do = len(left.dom), len(left.cod)
        ins = left.ins + tuple([x if type(x) is str else do + x for x in right.ins])
        outs = left.outs + tuple([y if type(y) is str else di + y for y in right.outs])
        scalars = tuple(sorted(left.scalars + right.scalars))
        return WiringMor(left.dom @ right.dom, left.cod @ right.cod, ins, outs, scalars)

    def equal(self, m1: WiringMor, m2: WiringMor) -> bool:
        self._require_same_boundary(m1, m2)
        return m1.ins == m2.ins and m1.outs == m2.outs and m1.scalars == m2.scalars

    # -- enumeration -------------------------------------------------------------------

    def enumerate_hom(self, dom: ObjectWord, cod: ObjectWord, budget: int) -> HomSet:
        """Scalar-free wirings in a fixed order; always flagged truncated."""
        m, n = len(self._check_word(dom)), len(self._check_word(cod))
        # the scan has always returned at least one wiring, whatever the budget
        items = itertools.islice(self._wirings(dom, cod, m, n), max(budget, 1))
        return HomSet(tuple(items), complete=False)

    def _wirings(self, dom: ObjectWord, cod: ObjectWord, m: int, n: int):
        """Most through-wires first, then in ``itertools`` order: wired inputs and
        outputs, their assignment, the other inputs' effects, outputs' states."""
        for k in range(min(m, n), -1, -1):
            for wired_in in itertools.combinations(range(m), k):
                for wired_out in itertools.combinations(range(n), k):
                    for assigned in itertools.permutations(wired_out):
                        to, back = dict(zip(wired_in, assigned)), dict(zip(assigned, wired_in))
                        outs = list(itertools.product(
                            *[(back[j],) if j in back else self.states for j in range(n)]))
                        for ins in itertools.product(
                                *[(to[i],) if i in to else self.effects for i in range(m)]):
                            for out in outs:
                                yield WiringMor(dom, cod, ins, out, ())

    # -- hooks ------------------------------------------------------------------------------

    def canonical_key(self, m: WiringMor) -> Hashable:
        # sorted pairs, so that the key's repr, which orders the congruence
        # search's braid classes, is the wiring's own text
        return ("wiring", m.dom, m.cod, *m.pairs(), m.scalars)

    def block_key(self, lower: list, after: WiringMor) -> Hashable:
        # one block's values share a boundary, so their raw tuples key them
        return tuple((v.ins, v.outs, v.scalars) for v in self.plug_upper(lower, after))

    def value_to_term(self, m: WiringMor) -> MorTerm:
        """Reconstruct a term whose evaluation is this wiring."""
        p, q = len(m.dom), len(m.cod)
        _, caps, seeds = m.pairs()
        pairs = [(i, j) for j, i in enumerate(m.outs) if type(i) is int]  # by output
        k = len(pairs)
        strand = ObjectWord((self.object_name,))

        # identity permutations are left out, so no layer is a bare id(...)
        layers: list[MorTerm] = []
        perm = [i for (i, _) in pairs + list(caps)]
        if perm != list(range(p)):
            layers.append(permutation_term([strand] * p, perm))
        # the effects, then the states, beside the k through-wires
        for names in ([e for _, e in caps], [s for _, s in seeds]):
            if names:
                layer = functools.reduce(Tensor, map(Generator, names))
                layers.append(Tensor(Identity(self.strands(k)), layer) if k else layer)
        # current block order: matched outputs by ascending target, then seeds
        current = [j for (_, j) in pairs] + [j for (j, _) in seeds]
        perm = [current.index(t) for t in range(q)]
        if perm != list(range(q)):
            layers.append(permutation_term([strand] * q, perm))
        term = functools.reduce(Compose, layers) if layers else Identity(m.dom)
        for (s, e) in m.scalars:
            term = Tensor(term, Compose(Generator(s), Generator(e)))
        return term


class AbsorbingPointedBackend(PointedFreeBackend):
    """Free pointed wirings on ``psi, phi : I -> a`` and ``bang : a -> I``
    modulo the single equation ``bang (x) psi = bang (x) phi``.

    A state node and a ``bang`` node that it does not feed form a convex
    subdiagram, so the equation may relabel a state exactly when some
    ``bang`` is not fed by it.  Values are kept in the normal form that
    writes such a state as the least state name: a seed is erased as soon
    as the wiring holds a ``bang`` (a cap or a loop), a loop's state once
    the wiring holds a second ``bang``.  Composing or tensoring never
    removes a ``bang``, so erasure is stable and the normal form is a
    congruence; the loops ``psi;bang`` and ``phi;bang`` stay distinct while
    their squares and product coincide.

    In a compact closed model the equation forces ``bang = 0`` or
    ``psi = phi``, and either collapses those two loops.  No faithful
    compact closed model exists, so ``braid_conclusive`` is False: the
    combs ``(psi, bang)`` and ``(phi, bang)`` have equal braid values
    ``bang (x) psi`` and ``bang (x) phi``, yet the identity filler tells
    them apart.
    """

    name = "free-pointed-absorbing"
    braid_conclusive = False

    def __init__(self):
        super().__init__(states=("phi", "psi"), effects=("bang",), rules=())

    def normal_form(self, m: WiringMor) -> WiringMor:
        """Erase every state label that some unfed ``bang`` makes irrelevant."""
        bangs = len(m.scalars) + sum(type(x) is str for x in m.ins)
        if bangs == 0:
            return m
        erased = min(self.states)
        outs = tuple(erased if type(y) is str else y for y in m.outs)
        scalars = m.scalars
        if bangs >= 2:
            scalars = tuple((erased, e) for (_, e) in m.scalars)
        return WiringMor(m.dom, m.cod, m.ins, outs, scalars)

    def compose(self, first: WiringMor, then: WiringMor) -> WiringMor:
        return self.normal_form(super().compose(first, then))

    def tensor(self, left: WiringMor, right: WiringMor) -> WiringMor:
        return self.normal_form(super().tensor(left, right))

    def enumerate_hom(self, dom: ObjectWord, cod: ObjectWord, budget: int) -> HomSet:
        """Normal forms of the raw enumeration, deduplicated; always truncated."""
        raw = super().enumerate_hom(dom, cod, budget).items
        items = dict.fromkeys(self.normal_form(m) for m in raw)
        return HomSet(tuple(items), complete=False)
