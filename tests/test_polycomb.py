import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opticomb import (
    AbsorbingPointedBackend,
    Budget,
    FinFunBackend,
    HoleMismatch,
    NotCompactClosed,
    ObjectWord,
    ProbeWitness,
    TypeMismatch,
    UnsupportedShape,
    Verdict,
    braid_eval,
    check_probe_witness,
    comb,
    comb_compose,
    comb_tensor,
    equiv_comb,
    equiv_optic,
    equiv_sigma,
    equiv_tau,
    extended_eval,
    identity_comb,
    lens_pair,
    poly,
    poly_compose_at,
    poly_equiv,
    poly_extended_eval,
    poly_name,
    star_counit,
    star_unit,
)

from opticomb.comb import NAME_NOTE, filler_probes, probe_scan

from conftest import NAME_BACKENDS, join, rand_mat, random_pieces, word

U = ObjectWord.unit()

# module scope, so hypothesis draws against one backend of each kind
SPLICE_BACKENDS = {name: (NAME_BACKENDS[name][0](), NAME_BACKENDS[name][1])
                   for name in ("bool", "finfun", "pointed")}


@pytest.fixture
def one_hole(cbe, rng):
    """A random comb: source (x, y), hole (y, x), env x*y."""
    e = word("x", "y")
    f = rand_mat(cbe, rng, word("x"), e @ word("y"))
    g = rand_mat(cbe, rng, e @ word("x"), word("y"))
    return comb(cbe, f, g, env=e)


@pytest.fixture
def two_hole(cbe, rng):
    """Outer (x, y); holes (y, x) then (x, y); envs x then y."""
    x, y = word("x"), word("y")
    s0 = rand_mat(cbe, rng, x, x @ y)
    s1 = rand_mat(cbe, rng, x @ x, y @ x)
    s2 = rand_mat(cbe, rng, y @ y, y)
    return poly(cbe, [(y, x), (x, y)], [(x, y)], [x, y], [s0, s1, s2])


class TestShape:
    def test_count_mismatches(self, cbe, rng):
        x, y = word("x"), word("y")
        s0 = rand_mat(cbe, rng, x, x @ y)
        with pytest.raises(TypeMismatch):
            poly(cbe, [(y, x)], [(x, y)], [], [s0, s0])
        with pytest.raises(TypeMismatch):
            poly(cbe, [(y, x)], [(x, y)], [x], [s0])

    def test_segment_boundary_checked(self, cbe, rng):
        x, y = word("x"), word("y")
        s0 = rand_mat(cbe, rng, x, x @ y)
        bad_top = rand_mat(cbe, rng, x @ y, y)  # wants x*x -> y
        with pytest.raises(TypeMismatch):
            poly(cbe, [(y, x)], [(x, y)], [x], [s0, bad_top])

    def test_comb_round_trip(self, cbe, one_hole):
        back = replace(one_hole, outers=(one_hole.source,))
        assert back.boundary() == one_hole.boundary()
        assert back.env == one_hole.env
        assert cbe.equal(back.f, one_hole.f) and cbe.equal(back.g, one_hole.g)

    def test_source_needs_one_hole(self, cbe, two_hole):
        with pytest.raises(UnsupportedShape):
            two_hole.source

    def test_identity_comb_shape(self, cbe):
        p = identity_comb(cbe, word("x"), word("y"))
        assert p.holes == p.outers == ((word("x"), word("y")),)
        assert p.envs == (U,)


class TestOneType:
    """A comb is the one-hole case of a piece, of one type: its comb fields
    and the comb operations refuse a piece with any other number of holes,
    and never answer."""

    @pytest.fixture
    def pieces(self):
        ff = FinFunBackend({"s": 2})
        s = word("s")
        one = ff.identity(s)
        two = poly(ff, [(s, s), (s, s)], [(s, s)], [U, U], [one, one, one])
        return ff, two, star_unit(ff, s, s), identity_comb(ff, s, s)

    @pytest.mark.parametrize("field", ["source", "target", "env", "f", "g"])
    def test_comb_fields_need_one_hole(self, pieces, field):
        _, two, none, _ = pieces
        for piece in (two, none):
            with pytest.raises(UnsupportedShape, match="a comb has one"):
                getattr(piece, field)

    @pytest.mark.parametrize("call", [equiv_comb, equiv_sigma, equiv_tau, equiv_optic,
                                      comb_tensor, comb_compose])
    def test_comb_operations_refuse_two_holes(self, pieces, call):
        ff, two, _, c = pieces
        for x, y in ((two, two), (two, c), (c, two)):
            with pytest.raises(UnsupportedShape):
                call(ff, x, y)

    def test_lens_pair_refuses_two_holes(self, pieces):
        ff, two, _, c = pieces
        assert len(lens_pair(ff, c)) == 2
        with pytest.raises(UnsupportedShape):
            lens_pair(ff, two)

    def test_two_outer_pairs_decide_as_the_joined_comb(self):
        """A one-hole piece with two outer pairs is decided by ``equiv_comb``
        itself, as the comb with one joined outer pair is."""
        ff = FinFunBackend({"s": 2})
        s = word("s")
        tops = ff.enumerate_hom(s, s, 8).items
        pieces = [poly(ff, [(s, s)], [(s, U), (U, s)], [U], [ff.identity(s), t]) for t in tops]
        verdicts = set()
        for p, q in itertools.product(pieces, repeat=2):
            joined = replace(p, outers=(p.source,)), replace(q, outers=(q.source,))
            assert joined[0].outers == ((s, s),) and joined[0].boundary() == p.boundary()
            d = equiv_comb(ff, p, q)
            assert d == equiv_comb(ff, *joined) == poly_equiv(ff, p, q)
            verdicts.add(d.verdict)
        assert verdicts == {Verdict.EQUIVALENT, Verdict.DISTINCT}


class TestEvaluation:
    def test_single_hole_matches_comb_evaluation_exactly(self, cbe, rng, one_hole):
        p = one_hole
        cw, dw = word("y"), word("x")
        lam = rand_mat(cbe, rng, cw @ word("y"), dw @ word("x"))
        via_comb = extended_eval(cbe, one_hole, lam, cw, dw)
        via_poly = poly_extended_eval(cbe, p, [lam], [(cw, dw)])
        # same factors in the same order: equality is exact, not approximate
        assert np.array_equal(via_comb.array, via_poly.array)

    def test_filler_count_checked(self, cbe, rng, two_hole):
        lam = rand_mat(cbe, rng, word("y"), word("x"))
        with pytest.raises(HoleMismatch):
            poly_extended_eval(cbe, two_hole, [lam], [(U, U)])
        # as many contexts as holes, but one filler short
        with pytest.raises(HoleMismatch, match="expected 2 fillers and 2 contexts"):
            poly_extended_eval(cbe, two_hole, [lam], [(U, U), (U, U)])

    def test_filler_boundary_checked(self, cbe, rng, two_hole):
        good = rand_mat(cbe, rng, word("y"), word("x"))
        bad = rand_mat(cbe, rng, word("y"), word("y"))
        with pytest.raises(TypeMismatch):
            poly_extended_eval(cbe, two_hole, [good, bad], [(U, U), (U, U)])

    def test_two_hole_types(self, cbe, rng, two_hole):
        lam0 = rand_mat(cbe, rng, word("y"), word("x"))
        lam1 = rand_mat(cbe, rng, word("x"), word("y"))
        val = poly_extended_eval(cbe, two_hole, [lam0, lam1], [(U, U), (U, U)])
        assert cbe.dom(val) == word("x") and cbe.cod(val) == word("y")

    def test_name_braid_coherence(self, cbe, one_hole):
        """For one hole, the name is the braid value with its legs swapped."""
        name = poly_name(cbe, one_hole)
        (a, a1) = one_hole.source
        (b, b1) = one_hole.target
        rebuilt = cbe.compose(braid_eval(cbe, one_hole), cbe.symmetry(a1, b))
        assert cbe.equal(name, rebuilt)


@pytest.mark.parametrize("name", sorted(NAME_BACKENDS))
def test_swap_fillers_give_the_name(name):
    """Plugging ``sigma(A_i', A_i)`` at context ``(A_i', A_i)`` into every
    hole gives ``sigma(A_0' .. A_{n-1}', B) ; poly_name``: the name is a
    plugging value, so differing names refute on every backend."""
    make, obj = NAME_BACKENDS[name]
    backend = make()
    rng = np.random.default_rng(20261018)
    for n in (0, 1, 2):
        pieces = random_pieces(backend, word(obj), n, rng, 8)
        assert pieces
        for p in pieces:
            fillers = [backend.symmetry(a1, a) for (a, a1) in p.holes]
            contexts = [(a1, a) for (a, a1) in p.holes]
            plugged = poly_extended_eval(backend, p, fillers, contexts)
            ins, outs = join(a for a, _ in p.outers), join(a1 for _, a1 in p.holes)
            named = backend.compose(backend.symmetry(outs, ins), poly_name(backend, p))
            assert backend.equal(plugged, named), (n, p)


@pytest.mark.parametrize("name", sorted(NAME_BACKENDS))
def test_splicing_an_identity_comb_changes_no_value(name):
    """The units law: an identity comb spliced into hole ``j`` of a two-hole
    piece agrees with the piece on every probe at context length <= 1."""
    make, obj = NAME_BACKENDS[name]
    backend, o = make(), word(obj)
    rng = np.random.default_rng(20261020)
    probed = 0
    for p in random_pieces(backend, o, 2, rng, 12):
        for j, (a, a1) in enumerate(p.holes):
            spliced = poly_compose_at(backend, p, identity_comb(backend, a, a1), j)
            assert spliced.holes == p.holes and spliced.outers == p.outers
            blocks = filler_probes(backend, p.holes, [U, o], Budget.of(1).max_hom, [])
            hit, tried = probe_scan(backend, spliced, p, blocks)
            assert hit is None, (j, p)
            probed += tried
    assert probed


class TestEquivalence:
    def test_name_route_confirms_and_refutes(self, cbe, rng, two_hole):
        d = poly_equiv(cbe, two_hole, two_hole)
        assert d.verdict is Verdict.EQUIVALENT and d.certified
        assert d.method == "poly-name"
        x, y = word("x"), word("y")
        other = poly(
            cbe, [(y, x), (x, y)], [(x, y)], [x, y],
            [
                rand_mat(cbe, rng, x, x @ y),
                rand_mat(cbe, rng, x @ x, y @ x),
                rand_mat(cbe, rng, y @ y, y),
            ],
        )
        d2 = poly_equiv(cbe, two_hole, other)
        assert d2.verdict is Verdict.DISTINCT and d2.certified
        # the swap filler in both holes, as the one-hole routes report it
        assert isinstance(d2.witness, ProbeWitness)
        assert len(d2.witness.probe) == 2 and d2.witness.note == NAME_NOTE
        assert check_probe_witness(cbe, two_hole, other, d2.witness)

    def test_shape_mismatch_raises(self, cbe, two_hole):
        with pytest.raises(HoleMismatch):
            poly_equiv(cbe, two_hole, identity_comb(cbe, word("x"), word("y")))

    def test_outer_split_is_part_of_the_shape(self):
        """Pieces with the same joined outer words but different outer pairs
        have different shapes: ``poly_equiv`` refuses them, with one hole or
        two, where ``equiv_comb`` decides the one-hole pair."""
        ff = FinFunBackend({"s": 2})
        s = word("s")
        for n in (1, 2):
            split, joined = (poly(ff, [(s, s)] * n, outers, [U] * n, [ff.identity(s)] * (n + 1))
                             for outers in ([(s, U), (U, s)], [(s, s)]))
            if n == 1:
                d = equiv_comb(ff, split, joined)
                assert d.verdict is Verdict.EQUIVALENT and d.certified
            with pytest.raises(HoleMismatch, match="different shapes"):
                poly_equiv(ff, split, joined)

    def test_one_hole_pieces_are_combs(self, idem):
        a = word("a")
        f = idem.generator("f")
        fid = comb(idem, f, idem.identity(a), env=U)
        for other in (comb(idem, f, f, env=U), comb(idem, idem.identity(a), f, env=U)):
            d = poly_equiv(idem, fid, other)
            assert d == equiv_comb(idem, fid, other)
            assert d.method == "braid-value" and d.certified

    def test_outer_words_are_joined(self):
        """A one-hole piece with no outer pair, or with two, is the comb on
        its joined outer words."""
        ff = FinFunBackend({"s": 2})
        s = word("s")
        point, delete = ff.enumerate_hom(U, s, 4).items[0], ff.enumerate_hom(s, U, 4).items[0]
        p = poly(ff, [(s, s)], [], [U], [point, delete])
        one = ff.identity(s)
        q = poly(ff, [(s, s)], [(s, U), (U, s)], [U], [one, one])
        for piece, source in ((p, (U, U)), (q, (s, s))):
            assert piece.source == source
            d = poly_equiv(ff, piece, piece)
            assert d.verdict is Verdict.EQUIVALENT and d.certified
            assert d.method == "braid-value"

    def test_probe_route_refutes_on_enumerable(self):
        """Equal names, told apart by the identity filler."""
        ab = AbsorbingPointedBackend()
        a = word("a")
        psi, phi, bang = (ab.generator(g) for g in ("psi", "phi", "bang"))
        # one hole: the comb on the unit outer words, refuted by equiv_comb
        p, q = (poly(ab, [(a, a)], [], [U], [s, bang]) for s in (psi, phi))
        assert ab.equal(poly_name(ab, p), poly_name(ab, q))
        d = poly_equiv(ab, p, q)
        assert d.verdict is Verdict.DISTINCT and d.certified
        assert d.method == "enumerated-probes"
        assert d == equiv_comb(ab, p, q)
        # two holes: the trivial-context tuple scan
        p, q = (poly(ab, [(a, a), (U, U)], [], [U, U], [s, bang, ab.identity(U)])
                for s in (psi, phi))
        assert ab.equal(poly_name(ab, p), poly_name(ab, q))
        d = poly_equiv(ab, p, q)
        assert d.verdict is Verdict.DISTINCT and d.certified
        assert d.method == "poly-probes"
        assert d.coverage == {"probes_tried": 1}
        assert ab.equal(d.witness.probe[0], ab.identity(a))
        assert check_probe_witness(ab, p, q, d.witness)

    def test_probe_route_cannot_confirm(self, idem):
        a = word("a")
        f, one = idem.generator("f"), idem.identity(a)
        p = poly(idem, [(a, a), (a, a)], [(a, a)], [U, U], [f, one, f])
        d = poly_equiv(idem, p, p)
        assert d.verdict is Verdict.UNKNOWN and d.method == "poly-probes"
        assert d.coverage == {
            "probes_tried": 4, "context_words": 1, "hom_scans_complete": True,
            "disagreements": 0, "conclusive_context_len": None, "bound": 2,
        }

    def test_no_route_available(self, ube):
        q = word("q")
        ident = identity_comb(ube, q, q)
        d = poly_equiv(ube, ident, ident)
        assert d.verdict is Verdict.EQUIVALENT and d.certified
        assert d.method == "braid-value"
        ube.add_generator("h", "q", "q", np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        one, h = ube.identity(q), ube.generator("h")
        p = poly(ube, [(q, q), (q, q)], [(q, q)], [U, U], [one, one, one])
        d = poly_equiv(ube, p, p)
        assert d.verdict is Verdict.UNKNOWN and d.method == "poly-name"
        assert d.coverage == {"names_agree": True, "conclusive": False}
        other = poly(ube, [(q, q), (q, q)], [(q, q)], [U, U], [one, h, one])
        d = poly_equiv(ube, p, other)
        assert d.verdict is Verdict.DISTINCT and d.certified
        assert d.method == "poly-name"

    def test_probe_witnesses_replay(self):
        """Every ``poly-probes`` DISTINCT witness on two-hole absorbing pieces
        with no outer pair separates the pair it was found on, and not a
        piece from itself.  Only pieces with equal names reach the scan."""
        ab = AbsorbingPointedBackend()
        a, found = word("a"), 0
        for holes in itertools.product(itertools.product((U, a), repeat=2), repeat=2):
            for envs in itertools.product((U, a), repeat=2):
                ends = [U] + [m @ a1 for m, (_, a1) in zip(envs, holes)]
                starts = [m @ h for m, (h, _) in zip(envs, holes)] + [U]
                if any(len(d) + len(c) > 3 for d, c in zip(ends, starts)):
                    continue
                homs = [ab.enumerate_hom(d, c, 8).items for d, c in zip(ends, starts)]
                by_name = {}
                for segments in itertools.product(*homs):
                    p = poly(ab, holes, [], envs, segments)
                    by_name.setdefault(ab.canonical_key(poly_name(ab, p)), []).append(p)
                pairs = (pq for ps in by_name.values() for pq in itertools.combinations(ps, 2))
                for p, q in pairs:
                    d = poly_equiv(ab, p, q)
                    if d.method == "poly-probes" and d.is_distinct():
                        found += 1
                        assert check_probe_witness(ab, p, q, d.witness)
                        assert not check_probe_witness(ab, p, p, d.witness)
        assert found

    def test_hole_free_pieces_are_decided_by_name(self, ffb):
        s = word("s")
        g, h = ffb.enumerate_hom(s, s, 4).items[:2]
        p = poly(ffb, [], [(s, s)], [], [g])
        d = poly_equiv(ffb, p, p)
        assert d.verdict is Verdict.EQUIVALENT and d.certified
        assert d.method == "poly-name"
        d = poly_equiv(ffb, p, poly(ffb, [], [(s, s)], [], [h]))
        assert d.verdict is Verdict.DISTINCT and d.certified
        assert d.method == "poly-name"
        closed = poly(ffb, [], [], [], [ffb.identity(U)])
        assert poly_equiv(ffb, closed, closed).verdict is Verdict.EQUIVALENT


class TestPlugging:
    def test_splice_agrees_with_comb_compose(self, cbe, rng):
        host = comb(
            cbe,
            rand_mat(cbe, rng, word("x"), word("x", "y")),
            rand_mat(cbe, rng, word("x", "x"), word("y")),
            env=word("x"),
        )
        nested = comb(
            cbe,
            rand_mat(cbe, rng, word("y"), word("y", "x")),
            rand_mat(cbe, rng, word("y", "y"), word("x")),
            env=word("y"),
        )
        via_comb = comb_compose(cbe, host, nested)
        via_poly = poly_compose_at(cbe, host, nested, 0)
        assert via_poly.holes == via_comb.holes
        assert via_poly.outers == via_comb.outers
        lam = rand_mat(cbe, rng, word("x"), word("y"))
        v1 = poly_extended_eval(cbe, via_comb, [lam], [(U, U)])
        v2 = poly_extended_eval(cbe, via_poly, [lam], [(U, U)])
        assert cbe.equal(v1, v2)

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(SPLICE_BACKENDS)),
        lengths=st.lists(st.integers(0, 1), min_size=6, max_size=6),
        envs=st.lists(st.integers(1, 2), min_size=2, max_size=2),
        picks=st.lists(st.integers(0, 15), min_size=4, max_size=4),
    )
    def test_comb_compose_is_the_one_hole_splice(self, name, lengths, envs, picks):
        """Nesting two combs, each with an environment, gives the comb that
        splicing their one-hole pieces gives, piece for piece."""
        backend, o = SPLICE_BACKENDS[name]
        a, a1, b, b1, c, c1 = (word(*[o] * n) for n in lengths)
        e1, e2 = (word(*[o] * n) for n in envs)

        def pick(dom, cod, k):
            items = backend.enumerate_hom(dom, cod, 16).items
            return items[k % len(items)]

        outer = comb(backend, pick(a, e1 @ b, picks[0]), pick(e1 @ b1, a1, picks[1]), env=e1)
        inner = comb(backend, pick(b, e2 @ c, picks[2]), pick(e2 @ c1, b1, picks[3]), env=e2)
        nested = comb_compose(backend, outer, inner)
        spliced = poly_compose_at(backend, outer, inner, 0)
        assert (spliced.source, spliced.target, spliced.env) == \
            (nested.source, nested.target, nested.env)
        assert backend.equal(spliced.f, nested.f) and backend.equal(spliced.g, nested.g)

    def test_splice_into_two_hole_host(self, cbe, rng, two_hole):
        """Splicing then filling equals filling the inner value directly."""
        y, x = word("y"), word("x")
        inner = comb(
            cbe,
            rand_mat(cbe, rng, y, y @ y),
            rand_mat(cbe, rng, y @ x, x),
            env=y,
        )  # boundary (y, x), hole (y, x)
        spliced = poly_compose_at(cbe, two_hole, inner, 0)
        assert spliced.holes == ((y, x), (x, y))
        lam0 = rand_mat(cbe, rng, y, x)
        lam1 = rand_mat(cbe, rng, x, y)
        direct = poly_extended_eval(cbe, spliced, [lam0, lam1], [(U, U), (U, U)])
        inner_value = extended_eval(cbe, inner, lam0, U, U)
        staged = poly_extended_eval(
            cbe, two_hole, [inner_value, lam1], [(U, U), (U, U)]
        )
        assert cbe.equal(direct, staged)

    def test_plug_hole_free_single_port(self, cbe, rng, two_hole):
        y, x = word("y"), word("x")
        m = rand_mat(cbe, rng, y, x)
        flat = poly(cbe, [], [(y, x)], [], [m])
        plugged = poly_compose_at(cbe, two_hole, flat, 0)
        assert plugged.holes == ((x, y),)
        lam1 = rand_mat(cbe, rng, x, y)
        direct = poly_extended_eval(cbe, plugged, [lam1], [(U, U)])
        staged = poly_extended_eval(cbe, two_hole, [m, lam1], [(U, U), (U, U)])
        assert cbe.equal(direct, staged)

    def test_plug_hole_free_with_luggage(self, cbe, rng, two_hole):
        """A spare port on the inner piece becomes a new outer port."""
        x, y = word("x"), word("y")
        ins, outs = x, y  # host outer boundary
        l_in, l_out = x, x
        m = rand_mat(cbe, rng, y @ l_in, x @ l_out)  # port0 (y,x), port1 (x,x)
        inner = poly(cbe, [], [(y, x), (l_in, l_out)], [], [m])
        plugged = poly_compose_at(cbe, two_hole, inner, 0, inner_port=0)
        assert plugged.outers == ((ins, outs), (l_in, l_out))
        assert plugged.holes == ((x, y),)
        lam1 = rand_mat(cbe, rng, x, y)
        direct = poly_extended_eval(cbe, plugged, [lam1], [(U, U)])
        # same plug via a context-shaped filler: the spare port rides as context
        fill0 = cbe.compose(
            cbe.compose(cbe.symmetry(l_in, y), m), cbe.symmetry(x, l_out)
        )
        ctx = poly_extended_eval(
            cbe, two_hole, [fill0, lam1], [(l_in, l_out), (U, U)]
        )
        rebuilt = cbe.compose(
            cbe.compose(cbe.symmetry(ins, l_in), ctx), cbe.symmetry(l_out, outs)
        )
        assert cbe.equal(direct, rebuilt)

    @pytest.mark.parametrize("n,j", [(n, j) for n in (3, 4) for j in range(n)])
    def test_plug_hole_free_into_many_hole_hosts(self, qbe, rng, n, j):
        """Spare ports on both sides of the plugged one ride past every other
        hole of the host: exact rational values, every hole index."""
        x, y = word("x"), word("y")

        def rand_q(dom, cod):
            return qbe.mat(dom, cod, [
                [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                 for _ in range(qbe.dim(dom))]
                for _ in range(qbe.dim(cod))
            ])

        holes = [(x, y), (y, x @ y), (U, x), (y, y)][:n]
        envs = [y, U, x, x][:n]
        b, b1 = x, y
        ends = [b] + [m @ a1 for m, (_, a1) in zip(envs, holes)]
        starts = [m @ a for m, (a, _) in zip(envs, holes)] + [b1]
        host = poly(qbe, holes, [(b, b1)], envs,
                    [rand_q(d, c) for d, c in zip(ends, starts)])
        a, a1 = holes[j]
        ports = [(x, y), (a, a1), (y, x)]  # the plugged port sits between two spares
        m = rand_q(join(p[0] for p in ports), join(p[1] for p in ports))
        inner = poly(qbe, [], ports, [], [m])
        plugged = poly_compose_at(qbe, host, inner, j, inner_port=1)
        assert plugged.holes == tuple(holes[:j] + holes[j + 1:])
        assert plugged.outers == ((b, b1), (x, y), (y, x))
        lams = [rand_q(h, h1) for h, h1 in holes]
        direct = poly_extended_eval(
            qbe, plugged, lams[:j] + lams[j + 1:], [(U, U)] * (n - 1)
        )
        # the same plug via a context-shaped filler at hole j
        l_in, l_out = x @ y, y @ x
        fill = qbe.compose(
            qbe.compose(qbe.tensor(qbe.identity(x), qbe.symmetry(y, a)), m),
            qbe.tensor(qbe.identity(y), qbe.symmetry(a1, x)),
        )
        ctx = [(U, U)] * n
        ctx[j] = (l_in, l_out)
        staged = poly_extended_eval(qbe, host, lams[:j] + [fill] + lams[j + 1:], ctx)
        rebuilt = qbe.compose(
            qbe.compose(qbe.symmetry(b, l_in), staged), qbe.symmetry(l_out, b1)
        )
        assert qbe.equal(direct, rebuilt)

    def test_plug_errors(self, cbe, rng, two_hole):
        y, x = word("y"), word("x")
        m = rand_mat(cbe, rng, y, x)
        flat = poly(cbe, [], [(y, x)], [], [m])
        with pytest.raises(HoleMismatch):
            poly_compose_at(cbe, two_hole, flat, 5)
        with pytest.raises(HoleMismatch):
            poly_compose_at(cbe, two_hole, flat, 1)  # hole 1 is (x, y)
        with pytest.raises(HoleMismatch):
            poly_compose_at(cbe, two_hole, flat, 0, inner_port=3)
        hole_and_ports = poly(
            cbe, [(y, x)], [(y, x), (x, y)],
            [U],
            [
                rand_mat(cbe, rng, y @ x, y),
                rand_mat(cbe, rng, x, x @ y),
            ],
        )
        with pytest.raises(UnsupportedShape):
            poly_compose_at(cbe, two_hole, hole_and_ports, 0)

    @pytest.mark.parametrize("port", [7, -1])
    def test_port_out_of_range_is_named(self, cbe, rng, two_hole, port):
        """A port outside the inner's outer pairs is refused as such, also
        when the inner has one outer pair and holes of its own."""
        y, x = word("y"), word("x")
        inner = comb(
            cbe, rand_mat(cbe, rng, y, y @ y), rand_mat(cbe, rng, y @ x, x), env=y,
        )  # boundary (y, x), hole (y, x)
        with pytest.raises(HoleMismatch, match=f"inner has no port {port}"):
            poly_compose_at(cbe, two_hole, inner, 0, inner_port=port)


class TestStars:
    def test_shapes(self, cbe):
        x, y = word("x"), word("y")
        unit = star_unit(cbe, x, y)
        counit = star_counit(cbe, x, y)
        assert unit.holes == () and unit.outers == ((x, y), (y, x))
        assert counit.holes == ((x, y), (y, x)) and counit.outers == ()

    def test_snake_at_first_hole(self, cbe):
        x, y = word("x"), word("y")
        snake = poly_compose_at(
            cbe, star_counit(cbe, x, y), star_unit(cbe, x, y), 0
        )
        assert snake.holes == ((y, x),) and snake.outers == ((y, x),)
        d = poly_equiv(cbe, snake, identity_comb(cbe, y, x))
        assert d.verdict is Verdict.EQUIVALENT and d.certified

    def test_snake_at_second_hole(self, cbe):
        x, y = word("x"), word("y")
        snake = poly_compose_at(
            cbe, star_counit(cbe, x, y), star_unit(cbe, x, y), 1
        )
        assert snake.holes == ((x, y),) and snake.outers == ((x, y),)
        d = poly_equiv(cbe, snake, identity_comb(cbe, x, y))
        assert d.verdict is Verdict.EQUIVALENT and d.certified

    def test_counit_needs_compact_closure(self, ffb):
        with pytest.raises(NotCompactClosed):
            star_counit(ffb, word("s"), word("s"))
