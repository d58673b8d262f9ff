"""Combs with one hole, their evaluations, and extensional equivalences.

A comb on boundary ``(A, A') -> (B, B')`` is a pair of morphisms around a
hole: a bottom ``f : A -> E (x) B`` and a top ``g : E (x) B' -> A'``
sharing an environment ``E`` that bypasses the hole.  Plugging a filler
``lam : C (x) B -> D (x) B'`` into the hole yields the extended evaluation
``C (x) A -> D (x) A'``; two combs are extensionally equivalent when every
filler yields the same value.  ``CombRep`` is one type for pieces with any
number of holes, ``polycomb``'s included, and a comb is its one-hole case:
``plug_chain`` evaluates a chain on a stream of probes (``extended_eval``
is its one-probe stream), the backend's ``bend`` names it (the braid value,
on one hole), and ``_splice`` nests one chain in a hole of another.

Three progressively cheaper relations are decidable here:

* ``equiv_comb`` -- filler agreement itself, decided through braid values,
  lens components, or bounded probe enumeration, always with an explicit
  certification story.
* ``equiv_sigma`` -- equality of braid values (the hole bent around by a
  symmetry).  Filler agreement always implies it, because the swap filler
  at context ``(B', B)`` recovers the braid value.
* ``equiv_tau`` -- agreement on fillers with trivial context only, a
  cheap screen that can refute but rarely confirms: the ``enumerate``
  route at context length 0.

Each invariant is compared in one place.  ``braid_refutation`` compares
the names of two chains, for one hole and for n, and reports a difference
as the swap filler in every hole; ``equiv_sigma``, the comb ``braid`` and
``lens`` routes, the optic ``name-form`` route, zigzag's ``braid-value``
screen and ``poly_equiv`` call it, and each says what equal names
certify.  ``lens_refutation`` compares lens components for the comb and
optic ``lens`` routes.  ``filler_probes`` draws the fillers of every
probe scan, and ``_probe_route`` scans them for ``equiv_tau``, the
``enumerate`` route and ``poly_equiv``, with one coverage schema.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .core import (
    Backend,
    BadSplit,
    BoundaryMismatch,
    Budget,
    Decision,
    FactorWitness,
    HoleMismatch,
    IllTypedFunctor,
    IncompatibleStrategy,
    NotCartesian,
    ObjectWord,
    ProbeWitness,
    Symmetry,
    TypeMismatch,
    UnsupportedShape,
    _join,
)


Pair = tuple[ObjectWord, ObjectWord]


def _pp(pair: Pair) -> str:
    return f"({pair[0].pretty()},{pair[1].pretty()})"


@dataclass(frozen=True)
class CombRep:
    """A representative with ordered holes: the chain ``(holes, envs,
    segments)`` of :func:`plug_chain`, whose first segment takes in the
    joined outer inputs and whose last gives out the joined outer outputs
    of ``outers``, the pairs ``(B_j, B_j')``.

    A comb is the one-hole case.  ``source`` is its outer pairs joined, the
    pair (A, A'), ``target`` the hole pair (B, B'), ``env`` the bypass word
    E, with ``f : A -> E (x) B`` below the hole and ``g : E (x) B' -> A'``
    above it.  These five raise ``UnsupportedShape`` on a piece that does
    not have exactly one hole.
    """

    holes: tuple[Pair, ...]
    outers: tuple[Pair, ...]
    envs: tuple[ObjectWord, ...]
    segments: tuple[Any, ...]

    def _one_hole(self) -> tuple:
        if len(self.holes) != 1:
            raise UnsupportedShape(f"{self!r} has {len(self.holes)} holes, a comb has one")
        return self.holes[0], self.envs[0], *self.segments

    @cached_property
    def source(self) -> Pair:
        self._one_hole()
        return _join([a for a, _ in self.outers]), _join([a1 for _, a1 in self.outers])

    target = cached_property(lambda self: self._one_hole()[0])
    env = cached_property(lambda self: self._one_hole()[1])
    f = cached_property(lambda self: self._one_hole()[2])
    g = cached_property(lambda self: self._one_hole()[3])

    def boundary(self) -> tuple:
        return (self.source, self.target)

    def chain(self) -> tuple:
        """The chain ``(holes, envs, segments)`` of :func:`plug_chain`."""
        return self.holes, self.envs, self.segments

    def __repr__(self) -> str:
        if len(self.holes) == len(self.outers) == 1:
            return f"CombRep({_pp(self.source)} -> {_pp(self.target)} env {self.env.pretty()})"
        hs, os_ = (", ".join(map(_pp, pairs)) for pairs in (self.holes, self.outers))
        return f"CombRep(holes=[{hs}] outers=[{os_}])"


def _split_env(word: ObjectWord, env: ObjectWord) -> ObjectWord:
    if len(word) < len(env) or ObjectWord(word.factors[: len(env)]) != env:
        raise BadSplit(
            f"{word.pretty()} does not start with environment {env.pretty()}"
        )
    return ObjectWord(word.factors[len(env) :])


def comb(backend: Backend, f: Any, g: Any, env: ObjectWord) -> CombRep:
    """Assemble a comb from its two pieces, inferring the boundary."""
    hole = _split_env(backend.cod(f), env), _split_env(backend.dom(g), env)
    return CombRep((hole,), ((backend.dom(f), backend.cod(g)),), (env,), (f, g))


def identity_comb(backend: Backend, b: ObjectWord, b1: ObjectWord) -> CombRep:
    return CombRep(((b, b1),), ((b, b1),), (ObjectWord.unit(),),
                   (backend.identity(b), backend.identity(b1)))


def comb_compose(backend: Backend, c1: CombRep, c2: CombRep) -> CombRep:
    """Put c2 into the hole of c1: the composite has c1's source and c2's hole.

    The composite bottom runs c1's bottom and then c2's bottom beside c1's
    environment; the composite top runs c2's top first, then c1's.
    """
    if c1.target != c2.source:
        raise BoundaryMismatch(
            f"cannot nest: inner boundary {_pp(c1.target)} does not match outer source "
            f"{_pp(c2.source)}"
        )
    holes, envs, segments = _splice(backend, c1.chain(), c2.chain(), 0)
    return CombRep(holes, c1.outers, envs, segments)


def _splice(backend: Backend, chain: tuple, inner: tuple, j: int) -> tuple:
    """Splice the chain ``inner`` (:func:`plug_chain`), with one or more holes,
    into hole ``j`` of ``chain``: it runs beside the environment ``M_j``, its
    bottom after segment ``j`` and its top before segment ``j + 1``."""
    holes, envs, segs = chain
    in_holes, in_envs, in_segs = inner
    id_mj = backend.identity(envs[j])
    first = backend.compose(segs[j], backend.tensor(id_mj, in_segs[0]))
    middle = tuple(backend.tensor(id_mj, s) for s in in_segs[1:-1])
    last = backend.compose(backend.tensor(id_mj, in_segs[-1]), segs[j + 1])
    return (holes[:j] + in_holes + holes[j + 1 :],
            envs[:j] + tuple(envs[j] @ e for e in in_envs) + envs[j + 1 :],
            segs[:j] + (first, *middle, last) + segs[j + 2 :])


def comb_tensor(backend: Backend, c1: CombRep, c2: CombRep) -> CombRep:
    """Side-by-side combs, with both environments routed to the left."""
    (a1, a1p), (b1, b1p) = c1.source, c1.target
    (a2, a2p), (b2, b2p) = c2.source, c2.target
    f = backend.compose(
        backend.tensor(c1.f, c2.f),
        backend.tensor(
            backend.tensor(backend.identity(c1.env), backend.symmetry(b1, c2.env)),
            backend.identity(b2),
        ),
    )
    g = backend.compose(
        backend.tensor(
            backend.tensor(backend.identity(c1.env), backend.symmetry(c2.env, b1p)),
            backend.identity(b2p),
        ),
        backend.tensor(c1.g, c2.g),
    )
    return CombRep(((b1 @ b2, b1p @ b2p),), ((a1 @ a2, a1p @ a2p),),
                   (c1.env @ c2.env,), (f, g))


def plug_chain(
    backend: Backend, holes: Sequence[Pair], envs: Sequence[ObjectWord],
    segments: Sequence[Any], blocks: Iterable[tuple[Sequence[Sequence[Any]], Sequence[Pair]]],
) -> Iterator[Any]:
    """The values of the probes of each context block ``(tuples, contexts)``,
    in order, a block at a time: each tuple ``fillers`` of the non-empty
    block plugs ``fillers[i] : C_i (x) A_i -> D_i (x) A_i'`` into hole ``i``
    at ``contexts[i] = (C_i, D_i)``.

    The chain runs ``segments[0] : B -> M_0 (x) A_0``, then
    ``segments[i] : M_{i-1} (x) A_{i-1}' -> M_i (x) A_i``, up to
    ``segments[n] : M_{n-1} (x) A_{n-1}' -> B'``, with ``holes[i] = (A_i,
    A_i')`` and ``envs[i] = M_i``; a value runs ``C_0 .. C_{n-1} (x) B ->
    D_0 .. D_{n-1} (x) B'``.  Context legs wait on the far left.  The
    stretch before filler ``j`` (or after the last) depends only on ``C_j
    ..`` and ``.. D_{j-1}``, so it is built once per stream.  Plugging is
    associative, so hole 0 takes the block's distinct fillers (the items of
    its hom-set, for :func:`filler_probes`) with one ``plug_lower`` and one
    ``plug_upper``; then each tuple in turn plugs its later fillers one by
    one into its hole-0 value and is yielded.  One hole composes ``((1_C
    (x) f) (sigma_{C,E} (x) 1_B)) (1_E (x) filler) ((sigma_{E,D} (x) 1_B')
    (1_D (x) g))``, leaving out each identity on the unit word and each
    swap with a unit leg.  Every filler of a block is type-checked before
    any of the block is plugged.
    """
    for block, path in _block_paths(backend, holes, envs, segments, blocks, None, True):
        if not holes:
            yield from [path[0][0]] * len(block)
            continue
        (_, beside), (after, _) = path[:2]
        firsts = {id(fillers[0]): fillers[0] for fillers in block}  # each hole-0 filler once
        tops = dict(zip(firsts, backend.plug_upper(
            backend.plug_lower(path[0][0], beside, list(firsts.values())), after)))
        for fillers in block:
            value = tops[id(fillers[0])]
            for lam, ((_, beside), (after, _)) in zip(fillers[1:], zip(path[1:], path[2:])):
                (value,) = backend.plug_upper(backend.plug_lower(value, beside, (lam,)), after)
            yield value


def _block_paths(
    backend: Backend, holes: Sequence[Pair], envs: Sequence[ObjectWord], segments: Sequence[Any],
    blocks: Iterable[tuple[Sequence[Sequence[Any]], Sequence[Pair]]], built: dict | None, check: bool,
) -> Iterator[tuple[Sequence[Sequence[Any]], list[tuple[Any, Any]]]]:
    """Each block with its path: per stretch ``j`` one pair object, the stretch
    and the identity beside filler ``j`` (None after the last).  A ``built``
    table passed to many chains builds stretch ``j`` once for all that share
    segment ``j`` (keyed by ``id`` and held, so the id is not reused), holes
    and environments.  ``check`` false skips the check of every filler."""
    n = len(holes)
    # per segment: (cs[j:], ds[:j]) -> (stretch j, identity beside filler j)
    tables = [{} for _ in segments] if built is None else [
        built.setdefault((j, id(seg), holes, envs), (seg, {}))[1] for j, seg in enumerate(segments)
    ]

    def whisker(words: tuple, m: Any) -> Any:  # no identity on the unit word
        word = _join(words)
        return backend.tensor(backend.identity(word), m) if word else m

    def stretch(j: int, cs: tuple, ds: tuple) -> tuple[Any, Any]:
        # from filler j - 1 (or B) to filler j (or B'), and the identity
        # beside filler j; no swap with a unit leg is built
        key = (cs[j:], ds[:j])
        if key not in tables[j]:
            val = whisker(cs[j:] + ds[:j], segments[j])
            if j and envs[j - 1] and ds[j - 1]:  # park filler j - 1's output leg past M_{j-1}
                swap = whisker(cs[j:] + ds[: j - 1], backend.symmetry(envs[j - 1], ds[j - 1]))
                val = backend.compose(backend.tensor(swap, backend.identity(holes[j - 1][1])), val)
            beside = None
            if j < n:
                across = _join(cs[j + 1 :] + ds[:j] + (envs[j],))
                if cs[j] and across:
                    val = backend.compose(val, backend.tensor(
                        backend.symmetry(cs[j], across), backend.identity(holes[j][0])
                    ))
                beside = backend.identity(across)
            tables[j][key] = val, beside
        return tables[j][key]

    last = None
    for block, contexts in blocks:
        if contexts != last:
            if len(contexts) != n:
                raise HoleMismatch(f"expected {n} fillers and {n} contexts")
            cs = tuple(c for c, _ in contexts)
            ds = tuple(d for _, d in contexts)
            if check:
                types = [(c @ a, d @ a1) for c, d, (a, a1) in zip(cs, ds, holes)]
        for fillers in block if check else ():
            if len(fillers) != n:
                raise HoleMismatch(f"expected {n} fillers and {n} contexts")
            for i, (lam, (want_d, want_c)) in enumerate(zip(fillers, types)):
                if (backend.dom(lam), backend.cod(lam)) != (want_d, want_c):
                    raise TypeMismatch(
                        f"filler {i} must be {want_d.pretty()} -> {want_c.pretty()}, got "
                        f"{backend.dom(lam).pretty()} -> {backend.cod(lam).pretty()}"
                    )
        if contexts != last:
            last, path = contexts, [stretch(j, cs, ds) for j in range(n + 1)]
        yield block, path


def extended_eval(
    backend: Backend, c: CombRep, filler: Any, c_word: ObjectWord, d_word: ObjectWord
) -> Any:
    """Plug ``filler : C (x) B -> D (x) B'`` into the hole.

    The result has type ``C (x) A -> D (x) A'``: a one-probe stream of
    :func:`plug_chain`, whose context legs ride past the environment.
    """
    return next(plug_chain(backend, *c.chain(), [([(filler,)], ((c_word, d_word),))]))


def braid_eval(backend: Backend, c: CombRep) -> Any:
    """Bend the hole around: the value ``(g (x) 1_B) (1_E (x) sym) (f (x) 1_B')``.

    This is a complete invariant for filler agreement exactly when the
    backend advertises ``braid_conclusive``; it is always a sound refuter,
    because plugging the swap filler at context ``(B', B)`` reproduces it
    up to fixed symmetries.
    """
    return backend.bend(*c.chain())


# ---------------------------------------------------------------------------
# Lens components (cartesian backends)
# ---------------------------------------------------------------------------

def lens_pair(backend: Backend, c: CombRep) -> tuple[Any, Any]:
    """The (get, put) presentation of a comb over a cartesian backend.

    get = discard the environment leg of f; put feeds the outer input
    through f's environment leg and pairs it with the new hole output.
    """
    if not backend.cartesian:
        raise NotCartesian(f"{backend.name} is not cartesian")
    (a, a1), (b, b1) = c.source, c.target
    e = c.env
    get = backend.compose(c.f, backend.proj2(e, b))
    keep = backend.compose(
        backend.proj1(a, b1), backend.compose(c.f, backend.proj1(e, b))
    )
    fresh = backend.proj2(a, b1)
    paired = backend.compose(
        backend.copy(a @ b1), backend.tensor(keep, fresh)
    )
    put = backend.compose(paired, c.g)
    return get, put


# ---------------------------------------------------------------------------
# The decision core: one comparison per invariant, one probe scanner,
# relations, ``decide``
# ---------------------------------------------------------------------------

def _check_same_boundary(c1: CombRep, c2: CombRep) -> None:
    if c1.boundary() != c2.boundary():
        raise BoundaryMismatch(
            f"combs live on different boundaries: {c1!r} vs {c2!r}"
        )


#: the note of every name witness, for one hole and for n
NAME_NOTE = "the names differ, so the swap filler in every hole separates the two"


def braid_refutation(backend: Backend, x: Any, y: Any) -> ProbeWitness | None:
    """Compare the names (``Backend.bend``) of two chains of one shape:
    combs, or poly pieces with any number of holes.

    Plugging the swap filler ``sigma(A_i', A_i)`` at context ``(A_i', A_i)``
    into every hole gives ``sigma(A_0'..A_{n-1}', B) ; name ; sigma(B',
    A_0..A_{n-1})``, so differing names refute filler agreement, and with it
    slide equivalence, on every backend.  The witness is that probe, with
    those two values, built from the names without plugging.  None means
    the names agree; what that certifies is the caller's to say.
    """
    chain = x.chain()
    n1, n2 = backend.bend(*chain), backend.bend(*y.chain())
    if backend.equal(n1, n2):
        return None
    holes, _, segments = chain
    contexts = tuple((a1, a) for a, a1 in holes)
    before = backend.symmetry(_join([c for c, _ in contexts]), backend.dom(segments[0]))
    after = backend.symmetry(backend.cod(segments[-1]), _join([d for _, d in contexts]))
    left, right = (backend.compose(backend.compose(before, n), after) for n in (n1, n2))
    return ProbeWitness.of([backend.symmetry(c, d) for c, d in contexts], contexts, left, right,
                           [Symmetry(c, d) for c, d in contexts], NAME_NOTE)


def lens_refutation(backend: Backend, c1: CombRep, c2: CombRep) -> FactorWitness | None:
    """Compare the (get, put) components of two combs over a cartesian backend:
    the four components when they differ, else None."""
    (get1, put1), (get2, put2) = lens_pair(backend, c1), lens_pair(backend, c2)
    same_get = backend.equal(get1, get2)
    if same_get and backend.equal(put1, put2):
        return None
    return FactorWitness(
        pieces={"get_left": get1, "get_right": get2, "put_left": put1, "put_right": put2},
        note=f"the {'put' if same_get else 'get'} components differ",
    )


def _compare(refute: Callable[..., Any], method: str,
             backend: Backend, x: Any, y: Any, *_) -> Decision:
    """A route that certifies whatever ``refute`` does not refute."""
    witness = refute(backend, x, y)
    if witness is None:
        return Decision.equivalent(method)
    return Decision.distinct(method, witness)


def filler_probes(
    backend: Backend,
    holes: Sequence[Pair],
    words: Sequence[ObjectWord],
    max_hom: int,
    scans: list[bool],
) -> Iterator[tuple[list[tuple[Any, ...]], tuple[Pair, ...]]]:
    """The probes of a chain's ``holes`` as context blocks ``(tuples,
    contexts)`` for :func:`plug_chain`, lazily: for each tuple of context
    pairs of ``words``, the filler tuples, one filler per hole.

    Each hole's hom-set ``C_i (x) A_i -> D_i (x) A_i'`` is enumerated when the
    walk reaches its context tuple, and its completeness flag appended to
    ``scans``; the block of a tuple is the product of those hom-sets, left
    out when empty.
    """
    for contexts in itertools.product(itertools.product(words, words), repeat=len(holes)):
        homs = [backend.enumerate_hom(c @ a, d @ a1, max_hom)
                for (c, d), (a, a1) in zip(contexts, holes)]
        scans.extend(h.complete for h in homs)
        if block := list(itertools.product(*(h.items for h in homs))):
            yield block, contexts


def probe_scan(
    backend: Backend, rep1: Any, rep2: Any, blocks: Iterable[Any],
) -> tuple[tuple[Any, Any, Any] | None, int]:
    """Evaluate both representatives on each probe of the context blocks, in
    order.

    Each representative (a comb or a poly piece) is one :func:`plug_chain`
    stream of its ``chain()`` over the blocks, drawn once and lazily, a
    block at a time.  Returns ``((probe, left, right), tried)`` for the
    first probe ``(fillers, contexts)`` on which they differ, or ``(None,
    tried)`` when every probe agrees.
    """
    blocks, b1, b2 = itertools.tee(blocks, 3)
    probes = ((fillers, contexts) for block, contexts in blocks for fillers in block)
    evals = zip(
        probes, plug_chain(backend, *rep1.chain(), b1),
        plug_chain(backend, *rep2.chain(), b2),
    )
    tried = 0
    for tried, (probe, v1, v2) in enumerate(evals, 1):
        if not backend.equal(v1, v2):
            return (probe, v1, v2), tried
    return None, tried


def _probe_witness(backend: Backend, hit: tuple, note: str) -> ProbeWitness:
    (fillers, contexts), v1, v2 = hit
    return ProbeWitness.of(fillers, contexts, v1, v2, map(backend.value_to_term, fillers), note)


@dataclass(frozen=True)
class Route:
    """One way to decide a relation, as an entry of that relation's table.

    ``applicable`` says whether the backend supports the route; naming a
    route that does not apply raises ``IncompatibleStrategy`` with
    ``needs``.  ``strategy="auto"`` takes the first route of the table whose
    ``auto`` test (by default ``applicable``) holds, else the last route,
    and runs that route's ``screens`` before it: routes gated by their own
    ``applicable``, of which only a DISTINCT answer decides.
    """

    name: str
    run: Callable[..., Decision]
    applicable: Callable[[Backend], bool] = lambda backend: True
    needs: str = ""
    auto: Callable[[Backend], bool] | None = None
    screens: tuple[Route, ...] = ()


@dataclass(frozen=True)
class Relation:
    """A relation as its table of routes, decided by :func:`decide`; ``check``
    raises on operands the relation cannot compare.  A relation with one fixed
    comparison names its one route ``auto``, so it offers no other strategy."""

    routes: tuple[Route, ...]
    check: Callable[[Any, Any], None] = lambda x, y: None

    @property
    def strategies(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(("auto", *(r.name for r in self.routes))))


def decide(relation: Relation, backend: Backend, x: Any, y: Any,
           strategy: str = "auto", bound: int = 2) -> Decision:
    """Decide ``relation`` on ``x`` and ``y`` by the route ``strategy`` names,
    or by the one ``auto`` picks, after its screens; the answer reports the
    backend's tolerance.  A negative bound is refused before any route runs."""
    relation.check(x, y)
    Budget.of(bound)
    routes = relation.routes
    if strategy == "auto":
        route = next((r for r in routes if (r.auto or r.applicable)(backend)), routes[-1])
    elif strategy in relation.strategies:
        route = next(r for r in routes if r.name == strategy)
    else:
        raise IncompatibleStrategy(f"unknown strategy {strategy!r}, "
                                   f"expected one of {relation.strategies}")
    if not route.applicable(backend):
        raise IncompatibleStrategy(f"{route.needs}, not {backend.name}")
    for screen in route.screens if strategy == "auto" else ():
        if screen.applicable(backend) and (d := screen.run(backend, x, y, bound)).is_distinct():
            break
    else:
        d = route.run(backend, x, y, bound)
    return replace(d, tolerance=backend.tolerance)


# ---------------------------------------------------------------------------
# Equivalence deciders
# ---------------------------------------------------------------------------

def _braid_route(backend: Backend, c1: CombRep, c2: CombRep, bound: int) -> Decision:
    witness = braid_refutation(backend, c1, c2)
    if witness is not None:
        return Decision.distinct("braid-value", witness)
    if backend.braid_conclusive:
        return Decision.equivalent("braid-value", coverage={"conclusive": True})
    return Decision.unknown(
        "braid-value", coverage={"braid_values_agree": True, "conclusive": False}
    )


def _lens_route(backend: Backend, c1: CombRep, c2: CombRep, bound: int) -> Decision:
    """Equal components certify: one ``push_down`` to the environment A (the
    outer input) moves each comb to its lens form ``(<1_A, get>, put)``, so
    the two are two slides apart, and slides keep every filler value.
    Differing components prove nothing about fillers (an empty hole output
    makes every comb on the boundary agree), so the ``braid`` route answers."""
    if lens_refutation(backend, c1, c2) is None:
        return Decision.equivalent("lens-components")
    return replace(_braid_route(backend, c1, c2, bound), method="lens-components")


def _probe_route(
    method: str, note: str, length: int | None,
    backend: Backend, x: Any, y: Any, bound: int,
) -> Decision:
    """Plug every filler tuple into the holes of two chains at every pair of
    context words up to ``length`` (the bound when None): ``equiv_tau`` and
    ``poly_equiv``'s scan at length 0, the ``enumerate`` route at the bound.
    Agreement certifies once that length reaches a comb's conclusive context
    length and every hom-set scan was complete; n-hole pieces never certify."""
    length = bound if length is None else length
    words = backend.enumerate_objects(length)
    scans: list[bool] = []
    blocks = filler_probes(backend, x.chain()[0], words, Budget.of(bound).max_hom, scans)
    hit, tried = probe_scan(backend, x, y, blocks)
    if hit is not None:
        return Decision.distinct(
            method, _probe_witness(backend, hit, note), coverage={"probes_tried": tried}
        )
    needed = (backend.extension_word_len_needed(x.source, x.target)
              if len(x.holes) == 1 else None)
    coverage = {"probes_tried": tried, "context_words": len(words),
                "hom_scans_complete": all(scans), "disagreements": 0,
                "conclusive_context_len": needed, "bound": bound}
    if needed is not None and length >= needed and all(scans):
        return Decision.equivalent(method, coverage=coverage)
    return Decision.unknown(method, coverage=coverage)


#: braid-value equality: the swap filler's one probe
SIGMA = Relation((Route("auto", partial(_compare, braid_refutation, "braid-compare")),),
                 _check_same_boundary)
#: agreement on the fillers of trivial context: the probe route at context length 0
TAU = Relation((Route("auto", partial(
    _probe_route, "trivial-context-probes", "trivial-context filler separates the combs", 0
)),), _check_same_boundary)
#: filler agreement, with its routes in the order ``auto`` tries them
COMB = Relation((
    Route("braid", _braid_route,
          auto=lambda b: b.braid_conclusive or not (b.cartesian or b.enumerable)),
    Route("lens", _lens_route, lambda b: b.cartesian,
          "lens strategy needs a cartesian backend"),
    Route("enumerate", partial(_probe_route, "enumerated-probes",
                               "enumerated filler separates the combs", None),
          lambda b: b.enumerable, "enumerate strategy needs an enumerable backend"),
), _check_same_boundary)
COMB_ROUTES, COMB_STRATEGIES = COMB.routes, COMB.strategies


def equiv_sigma(backend: Backend, c1: CombRep, c2: CombRep) -> Decision:
    """Decide braid-value equality.  Always certified: it is a direct compare."""
    return decide(SIGMA, backend, c1, c2)


def equiv_tau(backend: Backend, c1: CombRep, c2: CombRep, bound: int = 2) -> Decision:
    """Screen with trivial-context fillers ``B -> B'`` only.

    A disagreement certifies genuine inextensibility; agreement certifies
    equivalence only when the hom-set scan was complete and the backend
    pins the conclusive context size at zero.  Otherwise the verdict is
    unknown, with coverage counts.
    """
    return decide(TAU, backend, c1, c2, bound=bound)


def equiv_comb(
    backend: Backend,
    c1: CombRep,
    c2: CombRep,
    strategy: str = "auto",
    bound: int = 2,
) -> Decision:
    """Decide whether two combs agree under every filler.

    Strategies: ``braid`` compares braid values (complete refuter
    everywhere, conclusive where the backend says so); ``lens`` certifies
    equal cartesian components and otherwise answers as ``braid``;
    ``enumerate`` plugs every enumerable filler up to the bound; ``auto``
    picks braid on a backend whose braid values are conclusive, else lens,
    else enumerate, else braid (``COMB_ROUTES``).
    """
    return decide(COMB, backend, c1, c2, strategy, bound)


# ---------------------------------------------------------------------------
# Congruence search
# ---------------------------------------------------------------------------

def _fingerprinter(backend: Backend, blocks: list) -> Callable[[CombRep], tuple]:
    """A comb's keys of the context ``blocks`` (:func:`plug_chain`), interned
    per block and computed once.  The combs share one boundary, so the first
    comb checks the fillers; combs that share a bottom or a top share its
    stretches through one table, a bottom's lower halves through another."""
    interned: list[dict[Any, int]] = [{} for _ in blocks]
    prints: dict[int, tuple[CombRep, tuple[int, ...]]] = {}  # holds c, so its id stays
    built: dict = {}
    lowers: dict[tuple[int, int], Any] = {}  # (id of stretch 0, block index) -> lower half

    def fingerprint(c: CombRep) -> tuple[int, ...]:
        if id(c) not in prints:
            holes, envs, segments = c.chain()
            keys = []
            for i, (block, (first, (after, _))) in enumerate(_block_paths(
                backend, holes, envs, segments, blocks, built, not prints
            )):
                if (id(first), i) not in lowers:
                    lowers[id(first), i] = backend.plug_lower(*first, [f[0] for f in block])
                key = backend.block_key(lowers[id(first), i], after)
                keys.append(interned[i].setdefault(key, len(interned[i])))
            prints[id(c)] = c, tuple(keys)
        return prints[id(c)][1]

    return fingerprint


def _namer(backend: Backend, b: ObjectWord, b1: ObjectWord) -> Callable[[CombRep], Any]:
    """The names of the combs on hole ``(B, B')``: :meth:`Backend.bend`'s one-hole
    definition, split at the hole as :func:`_fingerprinter` splits a filler's
    path.  The bottom half ``(f (x) 1_B') ; (1_E (x) sigma_{B,B'})`` is built
    once per bottom, the top half ``g (x) 1_B`` once per top, and a comb pays
    one ``compose`` of the two."""
    swap, id_b, id_b1 = backend.symmetry(b, b1), backend.identity(b), backend.identity(b1)
    lows: dict[int, tuple] = {}  # id of a bottom or top -> (it, its half), held so the id stays
    highs: dict[int, tuple] = {}

    def name(c: CombRep) -> Any:
        if id(c.f) not in lows:
            lows[id(c.f)] = c.f, backend.compose(
                backend.tensor(c.f, id_b1), backend.tensor(backend.identity(c.env), swap))
        if id(c.g) not in highs:
            highs[id(c.g)] = c.g, backend.tensor(c.g, id_b)
        return backend.compose(lows[id(c.f)][1], highs[id(c.g)][1])

    return name


def sigma_congruence_search(
    backend: Backend,
    boundaries: Iterable[tuple[ObjectWord, ObjectWord, ObjectWord, ObjectWord]],
    bound: int = 2,
    max_pairs: int = 400,
) -> ProbeWitness | None:
    """Search for braid-equal combs that some filler tells apart.

    Enumerates comb representatives over the given boundaries, groups them
    by braid value, and probes every braid-equal pair with enumerated
    fillers.  Returns the first separating probe found, or None when the
    bounded search exhausts without one.  On a backend that sets
    ``braid_conclusive`` None is the expected outcome, and the search keeps
    that claim falsifiable; on ``AbsorbingPointedBackend`` it finds the
    braid-equal pair ``(psi, bang)``, ``(phi, bang)``.

    A comb's braid value is its name from :func:`_namer`: one ``compose`` of
    its bottom's half and its top's, each built once.  Each comb is
    evaluated on the probe list once, by context block, after
    the stretches that :func:`plug_chain` (every probe scan) builds: the
    combs pair every bottom with every top, so a stretch is built once per
    segment, and a bottom's ``plug_lower`` of a block once for all its tops,
    each of which pays one ``block_key``; each filler is checked once.  A
    comb's fingerprint is its block keys, interned per block.  Keys agree
    exactly when every value of the block is ``equal``, so a pair differs
    exactly when the fingerprints do; the blocks from the first differing one
    on are replayed through :func:`probe_scan`, so the pairs, the
    ``max_pairs`` cut and the witness are those of a pair-by-pair scan.
    """
    from .sampling import enumerate_combs

    budget = Budget.of(bound)
    words = backend.enumerate_objects(budget.max_word_len)
    pairs_checked = 0
    for (a, a1, b, b1) in boundaries:
        groups: dict[Any, list[CombRep]] = {}
        name = _namer(backend, b, b1)
        for c in enumerate_combs(backend, (a, a1), (b, b1), bound):
            groups.setdefault(backend.canonical_key(name(c)), []).append(c)
        blocks = list(filler_probes(backend, ((b, b1),), words, budget.max_hom, []))
        fingerprint = _fingerprinter(backend, blocks)
        for _, members in sorted(groups.items(), key=lambda kv: repr(kv[0])):
            for c1, c2 in itertools.combinations(members, 2):
                pairs_checked += 1
                if pairs_checked > max_pairs:
                    return None
                p1, p2 = fingerprint(c1), fingerprint(c2)
                if p1 == p2:
                    continue
                first = next(i for i, (k1, k2) in enumerate(zip(p1, p2)) if k1 != k2)
                hit, _ = probe_scan(backend, c1, c2, blocks[first:])
                if hit is not None:
                    return _probe_witness(
                        backend, hit, "filler separates braid-equal combs"
                    )
    return None


# ---------------------------------------------------------------------------
# Structure-preserving maps between backends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackendFunctor:
    """A strict monoidal map from one backend into another.

    ``object_map`` sends generator object names to target words;
    ``value_map`` sends morphism values to morphism values.
    """

    source: Backend
    target: Backend
    object_map: Mapping[str, ObjectWord]
    value_map: Callable[[Any], Any]

    def map_word(self, word: ObjectWord) -> ObjectWord:
        out: ObjectWord = ObjectWord.unit()
        for fct in word:
            if fct not in self.object_map:
                raise IllTypedFunctor(f"no image for object {fct!r}")
            out = out @ self.object_map[fct]
        return out

    def map_comb(self, c: CombRep) -> CombRep:
        """The image of a representative with any number of holes."""
        def pairs(ps: tuple) -> tuple:
            return tuple((self.map_word(a), self.map_word(a1)) for a, a1 in ps)

        return CombRep(pairs(c.holes), pairs(c.outers), tuple(map(self.map_word, c.envs)),
                       tuple(map(self.value_map, c.segments)))


def lift_functor(
    source: Backend,
    target: Backend,
    object_map: Mapping[str, ObjectWord],
    value_map: Callable[[Any], Any],
) -> BackendFunctor:
    """Build a BackendFunctor after checking it preserves the structure.

    Verifies types of generator images, preservation of identities and
    symmetries on generator objects, and preservation of composition and
    tensor on all composable generator pairs.
    """
    fun = BackendFunctor(source, target, dict(object_map), value_map)
    for name in source.object_names():
        if name not in fun.object_map:
            raise IllTypedFunctor(f"object map misses {name!r}")
    for name in source.generator_names():
        g = source.generator(name)
        img = value_map(g)
        if (target.dom(img), target.cod(img)) != (
            fun.map_word(source.dom(g)), fun.map_word(source.cod(g))
        ):
            raise IllTypedFunctor(f"image of {name!r} has the wrong boundary")
    for name in source.object_names():
        w = ObjectWord((name,))
        if not target.equal(
            value_map(source.identity(w)), target.identity(fun.map_word(w))
        ):
            raise IllTypedFunctor(f"identity on {name!r} is not preserved")
        for other in source.object_names():
            w2 = ObjectWord((other,))
            img = value_map(source.symmetry(w, w2))
            expect = target.symmetry(fun.map_word(w), fun.map_word(w2))
            if not target.equal(img, expect):
                raise IllTypedFunctor(f"symmetry on {name!r},{other!r} is not preserved")
    gens = [source.generator(n) for n in source.generator_names()]
    for g1 in gens:
        for g2 in gens:
            if source.cod(g1) == source.dom(g2):
                lhs = value_map(source.compose(g1, g2))
                rhs = target.compose(value_map(g1), value_map(g2))
                if not target.equal(lhs, rhs):
                    raise IllTypedFunctor("composition is not preserved")
            lhs = value_map(source.tensor(g1, g2))
            rhs = target.tensor(value_map(g1), value_map(g2))
            if not target.equal(lhs, rhs):
                raise IllTypedFunctor("tensor is not preserved")
    return fun
