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
overlap, and normal forms are unique.

``AbsorbingPointedBackend`` is the pointed theory on ``psi, phi`` and
``bang`` with no cancelling rules and one equation,
``bang (x) psi = bang (x) phi``.  It has no faithful compact closed model,
so braid values do not settle filler agreement on it.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable

from ..core import (
    Backend,
    Compose,
    Generator,
    HomSet,
    Identity,
    MorTerm,
    ObjectWord,
    Tensor,
    UnknownGenerator,
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

@dataclass(frozen=True)
class StrandMor:
    """Parallel strands, each either the identity or the idempotent endo.

    ``word`` is both boundary words; ``flags[i]`` marks the endo on strand i.
    """

    word: ObjectWord
    flags: tuple[bool, ...]

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

@dataclass(frozen=True)
class WiringMor:
    """Normal form of a diagram built from states, an effect, and wires.

    ``matching`` holds (input, output) pairs of through-wires, ``caps`` the
    discarded inputs as (input, effect name), ``seeds`` the freshly created
    outputs as (output, state name), and ``scalars`` the sorted multiset of
    (state, effect) loops the rewrite rules left behind.
    """

    dom: ObjectWord
    cod: ObjectWord
    matching: frozenset
    caps: frozenset
    seeds: frozenset
    scalars: tuple

    def __repr__(self) -> str:
        parts = []
        if self.matching:
            parts.append("wires " + str(sorted(self.matching)))
        if self.caps:
            parts.append("caps " + str(sorted(self.caps)))
        if self.seeds:
            parts.append("seeds " + str(sorted(self.seeds)))
        if self.scalars:
            parts.append("scalars " + str(list(self.scalars)))
        body = "; ".join(parts) or "empty"
        return f"WiringMor({self.dom.pretty()} -> {self.cod.pretty()}: {body})"

    def to_json(self) -> dict:
        """The boundary words and the sorted wiring, as JSON data."""
        return {
            "dom": self.dom.pretty(),
            "cod": self.cod.pretty(),
            "matching": sorted(list(p) for p in self.matching),
            "caps": sorted((i, e) for i, e in self.caps),
            "seeds": sorted((j, s) for j, s in self.seeds),
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
        unit, a, none = ObjectWord.unit(), self.strands(1), frozenset()
        self._gens = {
            s: WiringMor(unit, a, none, none, frozenset({(0, s)}), ()) for s in self.states
        }
        self._gens.update(
            (e, WiringMor(a, unit, none, frozenset({(0, e)}), none, ())) for e in self.effects
        )

    # -- structure ------------------------------------------------------------------

    def identity(self, word: ObjectWord) -> WiringMor:
        w = self._check_word(word)
        return WiringMor(
            w, w, frozenset((i, i) for i in range(len(w))),
            frozenset(), frozenset(), (),
        )

    def symmetry(self, left: ObjectWord, right: ObjectWord) -> WiringMor:
        nl, nr = len(self._check_word(left)), len(self._check_word(right))
        matching = frozenset(
            [(i, nr + i) for i in range(nl)] + [(nl + j, j) for j in range(nr)]
        )
        return WiringMor(left @ right, right @ left, matching, frozenset(), frozenset(), ())

    def compose(self, first: WiringMor, then: WiringMor) -> WiringMor:
        self._require_composable(first, then)
        out_of_mid = {t: o for (t, o) in then.matching}
        cap_of_mid = {t: e for (t, e) in then.caps}
        matching = []
        caps = list(first.caps)
        seeds = list(then.seeds)
        scalars = list(first.scalars) + list(then.scalars)
        for (i, t) in first.matching:
            if t in out_of_mid:
                matching.append((i, out_of_mid[t]))
            else:
                caps.append((i, cap_of_mid[t]))
        for (t, s) in first.seeds:
            if t in out_of_mid:
                seeds.append((out_of_mid[t], s))
            else:
                pair = (s, cap_of_mid[t])
                if pair not in self.rules:
                    scalars.append(pair)
        return WiringMor(
            first.dom, then.cod,
            frozenset(matching), frozenset(caps), frozenset(seeds),
            tuple(sorted(scalars)),
        )

    def tensor(self, left: WiringMor, right: WiringMor) -> WiringMor:
        di, do = len(left.dom), len(left.cod)
        matching = frozenset(
            list(left.matching) + [(di + i, do + j) for (i, j) in right.matching]
        )
        caps = frozenset(list(left.caps) + [(di + i, e) for (i, e) in right.caps])
        seeds = frozenset(list(left.seeds) + [(do + j, s) for (j, s) in right.seeds])
        return WiringMor(
            left.dom @ right.dom, left.cod @ right.cod,
            matching, caps, seeds, tuple(sorted(left.scalars + right.scalars)),
        )

    def equal(self, m1: WiringMor, m2: WiringMor) -> bool:
        self._require_same_boundary(m1, m2)
        return (
            m1.matching == m2.matching
            and m1.caps == m2.caps
            and m1.seeds == m2.seeds
            and m1.scalars == m2.scalars
        )

    # -- enumeration -------------------------------------------------------------------

    def enumerate_hom(self, dom: ObjectWord, cod: ObjectWord, budget: int) -> HomSet:
        """Scalar-free wirings in a fixed order; always flagged truncated."""
        m, n = len(self._check_word(dom)), len(self._check_word(cod))
        # the scan has always returned at least one wiring, whatever the budget
        items = itertools.islice(self._wirings(dom, cod, m, n), max(budget, 1))
        return HomSet(tuple(items), complete=False)

    def _wirings(self, dom: ObjectWord, cod: ObjectWord, m: int, n: int):
        for k in range(min(m, n), -1, -1):
            for ins in itertools.combinations(range(m), k):
                for outs in itertools.combinations(range(n), k):
                    for assigned in itertools.permutations(outs):
                        matching = frozenset(zip(ins, assigned))
                        rest_in = [i for i in range(m) if i not in ins]
                        rest_out = [j for j in range(n) if j not in outs]
                        for caps in itertools.product(self.effects, repeat=len(rest_in)):
                            for seeds in itertools.product(self.states, repeat=len(rest_out)):
                                yield WiringMor(
                                    dom, cod, matching,
                                    frozenset(zip(rest_in, caps)),
                                    frozenset(zip(rest_out, seeds)), (),
                                )

    # -- hooks ------------------------------------------------------------------------------

    def canonical_key(self, m: WiringMor) -> Hashable:
        # the frozensets hash and compare by content, and cache their hashes
        return ("wiring", m.dom, m.cod, m.matching, m.caps, m.seeds, m.scalars)

    def value_to_term(self, m: WiringMor) -> MorTerm:
        """Reconstruct a term whose evaluation is this wiring."""
        p, q = len(m.dom), len(m.cod)
        pairs = sorted(m.matching, key=lambda ij: ij[1])
        k = len(pairs)
        capped = sorted(i for (i, _) in m.caps)
        cap_name = dict(m.caps)
        seeded = sorted(j for (j, _) in m.seeds)
        seed_name = dict(m.seeds)
        strand = ObjectWord((self.object_name,))

        # identity permutations are left out, so no layer is a bare id(...)
        layers: list[MorTerm] = []
        perm = [i for (i, _) in pairs] + capped
        if perm != list(range(p)):
            layers.append(permutation_term([strand] * p, perm))
        # the effects, then the states, beside the k through-wires
        for names in ([cap_name[i] for i in capped], [seed_name[j] for j in seeded]):
            if names:
                layer = functools.reduce(Tensor, map(Generator, names))
                layers.append(Tensor(Identity(self.strands(k)), layer) if k else layer)
        # current block order: matched outputs by ascending target, then seeds
        current = [j for (_, j) in pairs] + seeded
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
        bangs = len(m.caps) + len(m.scalars)
        if bangs == 0:
            return m
        erased = min(self.states)
        seeds = frozenset((j, erased) for (j, _) in m.seeds)
        scalars = m.scalars
        if bangs >= 2:
            scalars = tuple((erased, e) for (_, e) in m.scalars)
        return WiringMor(m.dom, m.cod, m.matching, m.caps, seeds, scalars)

    def compose(self, first: WiringMor, then: WiringMor) -> WiringMor:
        return self.normal_form(super().compose(first, then))

    def tensor(self, left: WiringMor, right: WiringMor) -> WiringMor:
        return self.normal_form(super().tensor(left, right))

    def enumerate_hom(self, dom: ObjectWord, cod: ObjectWord, budget: int) -> HomSet:
        """Normal forms of the raw enumeration, deduplicated; always truncated."""
        raw = super().enumerate_hom(dom, cod, budget).items
        items = dict.fromkeys(self.normal_form(m) for m in raw)
        return HomSet(tuple(items), complete=False)
