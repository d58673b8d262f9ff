"""Optics: combs identified only up to environment slides.

The optic relation is finer than filler agreement.  Two representatives
are slide-equivalent when a chain of moves connects them, each move
re-expressing one side of the environment:

* ``push_down``: factor the bottom as ``f = (v (x) 1_B) . f0`` with
  ``v : E0 -> E`` and absorb v into the top, shrinking the environment to
  E0.
* ``push_up``: factor the top as ``g = g0 . (v (x) 1_B')`` with
  ``v : E -> E1`` and absorb v into the bottom.

The two moves are mutually inverse, so slide classes are the connected
components of the move graph and a breadth-first search from one
representative decides membership.  A reached representative yields a
certified yes with the move chain as witness; exhausting the component
yields a certified no only when the backend pins all environment shapes
and every hom-set scan along the way was complete.  Moves are found by key
lookup in indexes built once per backend, boundary and environment pair
(E0, E); their entries carry v already whiskered for the side it moves
into.  The neighbours a state reaches by one step through E0 are recorded
too, each distinct state once, so a state that a later query visits again
costs no composite.  The three tables are this module's ``SLIDE_TABLES``,
keyed weakly by backend and capped at ``MAX_SLIDE_INDEXES`` and
``MAX_SLIDE_NEIGHBORS``.  Nothing empties them: an entry is built from
hom-set scans, composites, tensors and keys, which read the backend's
object sizes and the values alone, so a generator added later leaves every
entry true.  An index entry keeps the completeness of the hom-set scans it
was built from, and each visit folds it into the coverage, so a warm query
scans no hom-set; neighbours are read in order, a ``SlideStep`` is built only
for a state reached first, and the search returns at the goal.

On structured backends (the routes of ``OPTIC``) the search is bypassed:
environment-rotation factoring classifies optics over unitary backends,
braid values over compact closed ones, and (get, put) components over
cartesian ones.  Elsewhere the search route's screens, which ``auto`` runs
first, are the refuters of ``equiv_sigma`` and ``equiv_tau``, since slide
equivalence implies filler agreement and so equal braid values.
"""
from __future__ import annotations

import weakref
from collections import deque
from functools import partial
from typing import Any

from .core import (
    Backend,
    Budget,
    Decision,
    ExhaustionWitness,
    FactorWitness,
    NonComposableMove,
    ObjectWord,
    ProbeWitness,
    SlidePathWitness,
    SlideStep,
)
from .comb import (
    TAU,
    CombRep,
    Relation,
    Route,
    _check_same_boundary,
    _compare,
    braid_refutation,
    comb as make_comb,
    decide,
    lens_refutation,
    probe_scan,
)
from .sampling import env_words_for


def slide_related(backend: Backend, f: Any, v: Any, g: Any) -> tuple[CombRep, CombRep]:
    """The canonical slide-equivalent pair built around ``v : E -> E1``.

    With ``f : A -> E (x) B`` and ``g : E1 (x) B' -> A'``, the lower
    representative keeps v in its top and the upper one absorbs v into its
    bottom; one ``push_up`` move connects them.
    """
    e = backend.cod(f)
    e0 = backend.dom(v)
    e1 = backend.cod(v)
    b = ObjectWord(e.factors[len(e0):])
    if ObjectWord(e.factors[: len(e0)]) != e0:
        raise NonComposableMove(
            f"cod(f) = {e.pretty()} does not start with dom(v) = {e0.pretty()}"
        )
    b1 = ObjectWord(backend.dom(g).factors[len(e1):])
    lower = make_comb(
        backend, f, backend.compose(backend.tensor(v, backend.identity(b1)), g), e0
    )
    upper = make_comb(
        backend, backend.compose(f, backend.tensor(v, backend.identity(b))), g, e1
    )
    return lower, upper


def _state_key(backend: Backend, e: ObjectWord, f: Any, g: Any):
    return (e, backend.canonical_key(f), backend.canonical_key(g))


#: the slide search stops adding states to its frontier at this many
MAX_SLIDE_STATES = 4096
#: a slide search whose backend already has this many move indexes keeps its
#: own for itself, so a table holds at most this many plus one search's
MAX_SLIDE_INDEXES = 256
#: the same for neighbour lists and for the distinct states they hold
MAX_SLIDE_NEIGHBORS = 4096
#: per backend, the slide search's move indexes, neighbour lists and distinct
#: neighbour states, shared by all its queries and dropped with the backend
SLIDE_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _zigzag(backend: Backend, o1: CombRep, o2: CombRep, bound: int) -> Decision:
    budget = Budget.of(bound)
    (a, a1), (b, b1) = o1.source, o1.target
    id_b, id_b1 = backend.identity(b), backend.identity(b1)
    envs, graded = env_words_for(backend, o1.source, o1.target, bound)
    env_list = list(envs)
    for extra in (o1.env, o2.env):
        if extra not in env_list:
            env_list.append(extra)

    def hom(dom: ObjectWord, cod: ObjectWord):
        return backend.enumerate_hom(dom, cod, budget.max_hom)

    indexes, table, states = SLIDE_TABLES.setdefault(backend, ({}, {}, {}))
    if len(indexes) >= MAX_SLIDE_INDEXES:
        indexes = {}
    if max(len(table), len(states)) >= MAX_SLIDE_NEIGHBORS:
        table, states = {}, {}

    def moves(step, e0, e, side_key):
        """The ``(v, piece, v (x) 1)`` of ``step`` between E0 and E whose recomposed
        side has ``side_key``, in hom order, with v whiskered for the side it moves
        into.  An index is built from its hom-set scans (pieces only if a v exists)
        and keeps their completeness, which every visit folds into the coverage."""
        nonlocal scans_complete
        down = step == "push_down"
        key = (step, e0, e, a, a1, b, b1, budget.max_hom)
        if key not in indexes:
            vs = hom(e0, e) if down else hom(e, e0)
            pieces = (hom(a, e0 @ b) if down else hom(e0 @ b1, a1)) if vs.items else vs
            index = {}
            for v in vs.items:
                v_b, v_b1 = backend.tensor(v, id_b), backend.tensor(v, id_b1)
                for piece in pieces.items:
                    side = backend.compose(piece, v_b) if down else backend.compose(v_b1, piece)
                    index.setdefault(backend.canonical_key(side), []).append(
                        (v, piece, v_b1 if down else v_b))
            indexes[key] = (index, vs.complete and pieces.complete)
        index, complete = indexes[key]
        scans_complete = scans_complete and complete
        return index.get(side_key, ())

    def neighbors_of(step, e0, state, cur_key):
        """The ``(next_state, next_key, v)`` of ``step`` through E0, in move order;
        ``moves`` runs on every visit, so the coverage counts the scans behind them."""
        e, f, g = state
        down = step == "push_down"
        found = moves(step, e0, e, cur_key[1] if down else cur_key[2])
        key = (step, e0, cur_key, a, a1, b, b1, budget.max_hom)
        if key not in table:
            nexts = []
            for v, piece, v_w in found:
                nxt = (e0, piece, backend.compose(v_w, g)) if down else (
                    e0, backend.compose(f, v_w), piece)
                nxt_key = _state_key(backend, *nxt)
                nexts.append((*states.setdefault(nxt_key, (nxt, nxt_key)), v))
            table[key] = nexts
        return table[key]

    start = (o1.env, o1.f, o1.g)
    goal_key = _state_key(backend, o2.env, o2.f, o2.g)
    start_key = _state_key(backend, *start)
    parents: dict[Any, tuple[Any, SlideStep] | None] = {start_key: None}
    queue = deque([(start, start_key)])
    scans_complete, truncated = True, False

    def emit_path(end_key) -> SlidePathWitness:
        steps = []
        while parents[end_key] is not None:
            end_key, step = parents[end_key]
            steps.append(step)
        return SlidePathWitness(tuple(reversed(steps)))

    if start_key == goal_key:
        return Decision.equivalent("slide-search", witness=SlidePathWitness(()))

    while queue:
        cur, cur_key = queue.popleft()
        for e0 in env_list:
            # push_down: f = (v (x) 1_B) . f0 moves v out of the bottom;
            # push_up: g = g0 . (v (x) 1_B') moves v out of the top
            for step_name in ("push_down", "push_up"):
                for state, key, v in neighbors_of(step_name, e0, cur, cur_key):
                    if key in parents:
                        continue
                    parents[key] = (cur_key, SlideStep(step_name, v, e0))
                    if key == goal_key:
                        return Decision.equivalent("slide-search", witness=emit_path(key))
                    if len(parents) >= MAX_SLIDE_STATES:
                        truncated = True
                    else:
                        queue.append((state, key))

    coverage = {
        "states_explored": len(parents),
        "environments_graded": graded,
        "hom_scans_complete": scans_complete,
        "frontier_truncated": truncated,
    }
    if graded and scans_complete and not truncated:
        witness = ExhaustionWitness(
            states_explored=len(parents),
            environments=tuple(env_list),
            note="the full slide component of the left representative was "
                 "explored and never met the right one",
        )
        return Decision.distinct("slide-search", witness, coverage=coverage)
    return Decision.unknown("slide-search", coverage=coverage)


def _unitary_factor_route(backend: Backend, o1: CombRep, o2: CombRep, *_) -> Decision:
    """Decide slide equivalence of unitary combs by factoring the change of
    environment.

    ``u = f2 . dagger(f1)`` must be an environment rotation beside an
    identity on the hole input, ``v = dagger(g1) . g2`` one beside an
    identity on the hole output, and the two rotations must cancel.  All
    slides in a unitary backend are invertible, so a whole zigzag collapses
    to one rotation and this check is complete.  The matrix arithmetic is
    :func:`backends.unitary.environment_rotation`'s, imported on first use
    so that this module loads without numpy.
    """
    from .backends.unitary import environment_rotation

    (b, b1) = o1.target
    u = backend.compose(backend.dagger(o1.f), o2.f)
    v = backend.compose(o2.g, backend.dagger(o1.g))
    ok, pieces = environment_rotation(
        u.array, v.array, backend.dim(o1.env), backend.dim(o2.env),
        backend.dim(b), backend.dim(b1), backend.tolerance,
    )
    if ok:
        witness = FactorWitness(
            pieces=pieces,
            note="both sides factor through one environment rotation",
        )
        return Decision.equivalent("unitary-factorization", witness=witness)
    witness = FactorWitness(
        pieces=pieces,
        note="no environment rotation relates the representatives",
    )
    return Decision.distinct("unitary-factorization", witness)


#: slide equivalence, with its routes in the order ``auto`` tries them; the slide
#: search is screened by the refuters of ``equiv_sigma`` and ``equiv_tau``
OPTIC = Relation((
    Route("unitary-factor", _unitary_factor_route, lambda b: b.unitary_values,
          "factorization needs a unitary backend"),
    Route("name-form", partial(_compare, braid_refutation, "name-form"),
          lambda b: b.compact_closed,
          "name forms need a compact closed backend"),
    Route("lens", partial(_compare, lens_refutation, "lens-components"), lambda b: b.cartesian,
          "lens strategy needs a cartesian backend"),
    Route("zigzag", _zigzag, lambda b: b.enumerable,
          "slide search needs an enumerable backend", screens=(
              Route("braid-value", partial(_compare, braid_refutation, "braid-value")),
              Route("trivial-context", TAU.routes[0].run, lambda b: not b.braid_conclusive),
          )),
), _check_same_boundary)


def equiv_optic(
    backend: Backend,
    o1: CombRep,
    o2: CombRep,
    strategy: str = "auto",
    bound: int = 2,
) -> Decision:
    """Decide slide equivalence of two representatives on one boundary.

    When ``auto`` lands on the slide search, differing braid values answer
    DISTINCT first, then, where braid values are not conclusive, a separating
    trivial-context filler (``equiv_tau``); ``strategy="zigzag"`` searches alone.
    """
    return decide(OPTIC, backend, o1, o2, strategy, bound)


def check_probe_witness(backend: Backend, x: Any, y: Any, witness: ProbeWitness) -> bool:
    """Re-run a probe witness on two combs, or two poly pieces: do they really
    disagree on it?"""
    return probe_scan(backend, x, y, witness.probes())[0] is not None
