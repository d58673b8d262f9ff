"""Combs with several ordered holes and their plugging structure.

A poly representative is a ``comb.CombRep`` with holes ``(A_i, A_i')``,
outer pairs ``(B_j, B_j')``, environments ``M_i`` threading between
consecutive holes, and segments ``s_0 ... s_n``: the bottom segment turns
the outer inputs into the first environment and hole input, each middle
segment turns one hole's output into the next environment and hole input,
and the top segment turns the last hole's output into the outer outputs.
Plugging fillers, the name (the backend's ``bend``), the probe route and
the splice are ``comb``'s.

A one-hole piece is a comb, so ``poly_equiv`` hands a one-hole pair of one
shape (the same holes and outer pairs) to ``equiv_comb``.  It compares the
names of any other pair through ``comb.braid_refutation``, the comparison
the one-hole routes use: differing names refute on every backend, with
the swap filler in every hole as the witness, and equal names confirm
where the name is complete: over compact closed backends, and for
hole-free pieces.  Elsewhere an enumerable backend runs ``comb``'s probe
route at context length 0, which refutes but never confirms.

Composition plugs one representative into a hole of another.  Two shapes
are supported: an inner piece with holes and exactly one outer pair
splices its hole chain into place (``comb._splice``, which nests combs
too), and a hole-free inner piece (a single segment, one-port pieces
included) plugs one of its ports into the hole.  Its remaining ports
ride as luggage beside the environments: their inputs through every
segment below the hole, their outputs through every segment above it, to
join the host's outer boundary.  At the hole the reordered inner segment
is a filler, plugged by ``Backend.plug_lower`` then ``plug_upper``.
Together these cover unit/counit plugging and the yanking identities.
"""
from __future__ import annotations

from typing import Any, Sequence

from .core import (
    Backend,
    Decision,
    HoleMismatch,
    NotCompactClosed,
    ObjectWord,
    TypeMismatch,
    UnsupportedShape,
    block_permutation,
)
from .comb import (
    CombRep, Pair, Relation, Route, _join, _pp, _probe_route, _splice, braid_refutation,
    decide, equiv_comb, plug_chain,
)


def poly(
    backend: Backend,
    holes: Sequence[Pair],
    outers: Sequence[Pair],
    envs: Sequence[ObjectWord],
    segments: Sequence[Any],
) -> CombRep:
    """Assemble and type-check a poly representative."""
    holes, outers = tuple(map(tuple, holes)), tuple(map(tuple, outers))
    envs, segments = tuple(envs), tuple(segments)
    n = len(holes)
    if len(envs) != n:
        raise TypeMismatch(f"{n} holes need {n} environments, got {len(envs)}")
    if len(segments) != n + 1:
        raise TypeMismatch(f"{n} holes need {n + 1} segments, got {len(segments)}")
    ins = _join([p[0] for p in outers])
    outs = _join([p[1] for p in outers])
    # segment i runs from what hole i - 1 leaves (or B) to what hole i takes (or B')
    ends = [ins] + [m @ a1 for m, (_, a1) in zip(envs, holes)]
    starts = [m @ a for m, (a, _) in zip(envs, holes)] + [outs]
    for i, (d, c) in enumerate(zip(ends, starts)):
        got_d, got_c = backend.dom(segments[i]), backend.cod(segments[i])
        if (got_d, got_c) != (d, c):
            raise TypeMismatch(
                f"segment {i} must be {d.pretty()} -> {c.pretty()}, got "
                f"{got_d.pretty()} -> {got_c.pretty()}"
            )
    return CombRep(holes, outers, envs, segments)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def poly_extended_eval(
    backend: Backend, p: CombRep, fillers: Sequence[Any], contexts: Sequence[Pair]
) -> Any:
    """Plug ``fillers[i] : C_i (x) A_i -> D_i (x) A_i'`` into every hole.

    The result runs ``C_0 .. C_{n-1} (x) B -> D_0 .. D_{n-1} (x) B'``.  For
    a single hole this is the one-hole extended evaluation, factor for
    factor: both are one-probe streams of :func:`~opticomb.comb.plug_chain`.
    """
    return next(plug_chain(backend, *p.chain(), [([fillers], contexts)]))


def poly_name(backend: Backend, p: CombRep) -> Any:
    """The one-shot value ``B (x) A_0' .. A_{n-1}' -> A_0 .. A_{n-1} (x) B'``.

    Feeds every hole output straight back in: the chain's name
    (``Backend.bend``, for one hole the braid value) with the hole inputs
    moved to the left.  Plugging the swap filler
    ``sigma(A_i', A_i)`` at context ``(A_i', A_i)`` into every hole gives
    ``sigma(A_0' .. A_{n-1}', B) ; name``.  No decision reads it:
    ``poly_equiv`` compares the chain names themselves.
    """
    outs = _join([b1 for (_, b1) in p.outers])
    ins = _join([a for (a, _) in p.holes])
    return backend.compose(backend.bend(*p.chain()), backend.symmetry(outs, ins))


def _check_same_shape(p: CombRep, q: CombRep) -> None:
    if p.holes != q.holes or p.outers != q.outers:
        raise HoleMismatch(f"representatives live on different shapes: {p!r} vs {q!r}")


def _poly_route(backend: Backend, p: CombRep, q: CombRep, bound: int) -> Decision:
    if len(p.holes) == 1:
        return equiv_comb(backend, p, q, bound=bound)
    witness = braid_refutation(backend, p, q)
    if witness is not None:
        return Decision.distinct("poly-name", witness)
    if backend.compact_closed or not p.holes:
        return Decision.equivalent("poly-name")
    if not backend.enumerable:
        return Decision.unknown(
            "poly-name", coverage={"names_agree": True, "conclusive": False}
        )
    note = "a tuple of trivial-context fillers separates the representatives"
    return _probe_route("poly-probes", note, 0, backend, p, q, bound)


#: plugging equivalence: one fixed comparison
POLY = Relation((Route("auto", _poly_route),), _check_same_shape)


def poly_equiv(
    backend: Backend, p: CombRep, q: CombRep, bound: int = 2
) -> Decision:
    """Decide plugging equivalence of two poly representatives.

    The two must have the same holes and outer pairs, else
    ``HoleMismatch``.  A one-hole pair is decided by ``equiv_comb``.  Any
    other pair is compared by name first: differing names refute on every
    backend, with the swap filler in every hole.  Equal names confirm where
    the name is complete, over compact closed backends and for hole-free
    pieces (whose name is their segment).  Elsewhere, on an enumerable
    backend, the shared probe route at context length 0 (method
    ``poly-probes``) plugs every trivial-context filler tuple: it can
    refute, with a probe witness that
    :func:`~opticomb.optic.check_probe_witness` replays, and never
    confirms.  The verdict is otherwise unknown.
    """
    return decide(POLY, backend, p, q, bound=bound)


# ---------------------------------------------------------------------------
# Plugging
# ---------------------------------------------------------------------------

def poly_compose_at(
    backend: Backend,
    outer: CombRep,
    inner: CombRep,
    hole_index: int,
    inner_port: int | None = None,
) -> CombRep:
    """Plug ``inner`` into hole ``hole_index`` of ``outer``.

    Supported shapes: an inner with no holes (one chosen port fills the
    host hole, the remaining ports are appended to the host's outer
    boundary), or an inner with exactly one outer pair (its hole chain is
    spliced into the host).
    """
    n = len(outer.holes)
    if not 0 <= hole_index < n:
        raise HoleMismatch(f"no hole {hole_index} in a {n}-hole representative")
    if inner_port is not None and not 0 <= inner_port < len(inner.outers):
        raise HoleMismatch(f"inner has no port {inner_port}")
    pair = outer.holes[hole_index]
    if len(inner.outers) == 1 and inner.outers[0] != pair:
        raise HoleMismatch(
            f"inner boundary {_pp(inner.outers[0])} does not fit hole {_pp(pair)}"
        )
    if not inner.holes:
        port = inner_port
        if port is None:
            fits = [l for l, pr in enumerate(inner.outers) if pr == pair]
            if not fits:
                raise HoleMismatch(f"no port of the inner piece fits hole {_pp(pair)}")
            port = fits[0]
        elif inner.outers[port] != pair:
            raise HoleMismatch(
                f"port {port} is {_pp(inner.outers[port])}, hole is {_pp(pair)}"
            )
        return _plug_segment(backend, outer, inner, hole_index, port)
    if len(inner.outers) == 1:
        holes, envs, segments = _splice(backend, outer.chain(), inner.chain(), hole_index)
        return poly(backend, holes, outer.outers, envs, segments)
    raise UnsupportedShape(
        "plugging supports a one-outer inner or a hole-free inner only"
    )


def _plug_segment(
    backend: Backend, outer: CombRep, inner: CombRep, j: int, port: int
) -> CombRep:
    """Case two: a hole-free inner piece, one of whose ports fills hole ``j``.

    The spare port inputs ``L_in`` ride as luggage beside the environment
    up to hole ``j``.  There the inner segment, with its ports reordered,
    is the filler ``A_j (x) L_in -> A_j' (x) L_out`` plugged into the hole,
    and the spare outputs ``L_out`` ride on to leave with the top segment.
    A one-port piece carries empty luggage.
    """
    segs, n = outer.segments, len(outer.holes)
    others = [l for l in range(len(inner.outers)) if l != port]
    order = [port] + others
    x_in, x_out = ([pr[k] for pr in inner.outers] for k in (0, 1))
    l_in, l_out = _join([x_in[l] for l in others]), _join([x_out[l] for l in others])

    def carry(i: int, luggage: ObjectWord) -> Any:
        # segment i beside the luggage, which rides left of the hole wires,
        # except where the filler of hole j takes or gives it
        val = backend.tensor(segs[i], backend.identity(luggage))
        if i not in (0, j + 1):
            swap = backend.symmetry(luggage, outer.holes[i - 1][1])
            val = backend.compose(
                backend.tensor(backend.identity(outer.envs[i - 1]), swap), val
            )
        if i not in (n, j):
            swap = backend.symmetry(outer.holes[i][0], luggage)
            val = backend.compose(
                val, backend.tensor(backend.identity(outer.envs[i]), swap)
            )
        return val

    gather = block_permutation(
        backend, [x_in[l] for l in order], [order.index(l) for l in range(len(order))]
    )
    scatter = block_permutation(backend, x_out, order)
    filler = backend.compose(backend.compose(gather, inner.segments[0]), scatter)
    lower = backend.plug_lower(carry(j, l_in), backend.identity(outer.envs[j]), (filler,))
    (merged,) = backend.plug_upper(lower, carry(j + 1, l_out))
    return poly(
        backend,
        outer.holes[:j] + outer.holes[j + 1 :],
        outer.outers + tuple(inner.outers[l] for l in others),
        [m @ l_in for m in outer.envs[:j]] + [m @ l_out for m in outer.envs[j + 1 :]],
        [carry(i, l_in) for i in range(j)]
        + [merged]
        + [carry(i, l_out) for i in range(j + 2, n + 1)],
    )


# ---------------------------------------------------------------------------
# Unit and counit for the hole pairing
# ---------------------------------------------------------------------------

def star_unit(backend: Backend, a: ObjectWord, a1: ObjectWord) -> CombRep:
    """The hole-free piece with ports ``(A,A')`` and ``(A',A)`` joined by a swap."""
    return poly(
        backend,
        holes=(),
        outers=((a, a1), (a1, a)),
        envs=(),
        segments=(backend.symmetry(a, a1),),
    )


def star_counit(backend: Backend, a: ObjectWord, a1: ObjectWord) -> CombRep:
    """The closed two-hole piece pairing ``(A,A')`` against ``(A',A)``.

    Needs compact structure: the first hole's input is created against a
    dual leg that the second hole's output later annihilates.
    """
    if not backend.compact_closed:
        raise NotCompactClosed(
            f"the counit needs cups and caps, absent from {backend.name}"
        )
    a_star = backend.dual(a)
    return poly(
        backend,
        holes=((a, a1), (a1, a)),
        outers=(),
        envs=(a_star, a_star),
        segments=(
            backend.cup(a),
            backend.identity(a_star @ a1),
            backend.cap(a_star),
        ),
    )
