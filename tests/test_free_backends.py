import pytest
from hypothesis import given, settings, strategies as st

from opticomb import (
    AbsorbingPointedBackend,
    IdempotentFreeBackend,
    PointedFreeBackend,
    TypeMismatch,
    UnknownGenerator,
    Verdict,
    comb,
    equiv_comb,
    equiv_sigma,
    eval_term,
    extended_eval,
)
from opticomb.program import term_text

from conftest import word


class TestIdempotent:
    def test_endo_idempotent(self, idem):
        f = idem.generator("f")
        assert idem.equal(idem.compose(f, f), f)

    def test_tensor_position_collapsed(self, idem):
        f = idem.generator("f")
        one = idem.identity(word("a"))
        assert idem.equal(idem.tensor(f, one), idem.tensor(one, f))

    def test_identity_distinct_from_endo(self, idem):
        f = idem.generator("f")
        assert not idem.equal(f, idem.identity(word("a")))

    def test_symmetry_trivial(self, idem):
        s = idem.symmetry(word("a"), word("a"))
        assert idem.equal(s, idem.identity(word("a", "a")))

    def test_equal_needs_same_width(self, idem):
        f = idem.generator("f")
        wide = idem.identity(word("a", "a"))
        with pytest.raises(TypeMismatch, match="^cannot compare a -> a with a\\*a -> a\\*a$"):
            idem.equal(f, wide)
        assert (f.dom, f.cod, wide.dom) == (word("a"), word("a"), word("a", "a"))

    def test_unknown_object_named_in_written_order(self, idem):
        with pytest.raises(UnknownGenerator, match="^unknown object 'c'$"):
            idem.identity(word("a", "c", "b"))

    def test_enumerate_two_classes(self, idem):
        hs = idem.enumerate_hom(word("a", "a"), word("a", "a"), 8)
        assert hs.complete and len(hs.items) == 2
        touched = sorted(m.touched() for m in hs.items)
        assert touched == [False, True]

    def test_env_grading(self, idem):
        lens = idem.env_lengths_for_boundary(
            (word("a", "a"), word("a", "a")), (word("a"), word("a"))
        )
        assert lens == (1,)
        assert idem.env_lengths_for_boundary(
            (word("a"), word("a", "a")), (word("a"), word("a"))
        ) == ()

    def test_value_to_term_round_trip(self, idem):
        hs = idem.enumerate_hom(word("a", "a"), word("a", "a"), 8)
        for v in hs.items:
            term = idem.value_to_term(v)
            assert idem.equal(eval_term(term, idem), v)


class TestPointed:
    def test_state_effect_collapse(self, pointed):
        phi = pointed.generator("phi")
        bang = pointed.generator("bang")
        loop = pointed.compose(phi, bang)
        assert pointed.equal(loop, pointed.identity(word()))

    def test_unmatched_pair_leaves_scalar(self):
        be = PointedFreeBackend(states=("phi", "psi"), effects=("bang",),
                                rules=(("phi", "bang"),))
        loop = be.compose(be.generator("psi"), be.generator("bang"))
        assert not be.equal(loop, be.identity(word()))
        assert loop.scalars == (("psi", "bang"),)

    def test_bad_rule_name_rejected(self):
        with pytest.raises(UnknownGenerator):
            PointedFreeBackend(rules=(("phi", "zap"),))

    def test_symmetry_not_identity(self, pointed):
        a = word("a")
        s = pointed.symmetry(a, a)
        assert not pointed.equal(s, pointed.identity(a @ a))

    def test_effect_then_state_is_not_identity(self, pointed):
        phi = pointed.generator("phi")
        bang = pointed.generator("bang")
        reset = pointed.compose(bang, phi)
        assert not pointed.equal(reset, pointed.identity(word("a")))

    def test_hom_enumeration_never_complete(self, pointed):
        hs = pointed.enumerate_hom(word("a"), word("a"), 64)
        assert not hs.complete
        assert len(hs.items) >= 3  # identity plus reset-by-each-state

    def test_value_to_term_round_trip(self, pointed):
        a = word("a")
        hs = pointed.enumerate_hom(a @ a, a, 32)
        assert len(hs.items) > 0
        for v in hs.items:
            term = pointed.value_to_term(v)
            assert pointed.equal(eval_term(term, pointed), v)

    def test_value_to_term_skips_identity_layers(self, pointed):
        a = word("a")
        assert term_text(pointed.value_to_term(pointed.identity(a))) == "id(a)"
        swap = pointed.value_to_term(pointed.symmetry(a, a))
        assert term_text(swap) == "id(a*a) ; sym(a,a)"
        reset = pointed.compose(pointed.generator("bang"), pointed.generator("phi"))
        assert term_text(pointed.value_to_term(reset)) == "bang ; phi"

    def test_scalar_value_term_round_trip(self):
        be = PointedFreeBackend(states=("phi", "psi"), effects=("bang",),
                                rules=(("phi", "bang"),))
        loop = be.compose(be.generator("psi"), be.generator("bang"))
        term = be.value_to_term(loop)
        assert be.equal(eval_term(term, be), loop)


def raw_wirings(max_width=2):
    """Scalar-free pointed wirings up to the width, each also beside a loop."""
    raw = PointedFreeBackend(rules=())
    loops = [raw.identity(word())] + [
        raw.compose(raw.generator(s), raw.generator("bang")) for s in ("phi", "psi")
    ]
    out = {}
    for m in range(max_width + 1):
        for n in range(max_width + 1):
            homs = raw.enumerate_hom(word(*"a" * m), word(*"a" * n), 256).items
            out[m, n] = [raw.tensor(v, loop) for v in homs for loop in loops]
    return out


class TestAbsorbing:
    @pytest.fixture
    def ab(self):
        return AbsorbingPointedBackend()

    @staticmethod
    def loop(ab, state):
        return ab.compose(ab.generator(state), ab.generator("bang"))

    def test_equation_holds(self, ab):
        bang = ab.generator("bang")
        assert ab.equal(ab.tensor(bang, ab.generator("psi")),
                        ab.tensor(bang, ab.generator("phi")))

    def test_loops_distinct(self, ab):
        assert not ab.equal(self.loop(ab, "psi"), self.loop(ab, "phi"))

    def test_loop_products_collapse(self, ab):
        s1, s2 = self.loop(ab, "psi"), self.loop(ab, "phi")
        square = ab.tensor(s1, s1)
        assert ab.equal(square, ab.tensor(s1, s2))
        assert ab.equal(square, ab.tensor(s2, s2))
        assert ab.equal(square, ab.compose(s1, s1))

    def test_normal_form_is_a_congruence(self, ab):
        wirings = raw_wirings()
        nf = ab.normal_form
        for (m, k), firsts in wirings.items():
            for n in range(3):
                for x in firsts:
                    for y in wirings[k, n]:
                        assert ab.equal(ab.compose(x, y), ab.compose(nf(x), nf(y)))
        everything = [v for vs in wirings.values() for v in vs]
        for x in everything:
            for y in everything:
                assert ab.equal(ab.tensor(x, y), ab.tensor(nf(x), nf(y)))

    def test_canonical_key_agrees_with_equal(self, ab):
        for (m, n), vs in raw_wirings().items():
            values = list(dict.fromkeys(ab.normal_form(v) for v in vs))
            for v in values:
                for w in values:
                    same_key = ab.canonical_key(v) == ab.canonical_key(w)
                    assert same_key == ab.equal(v, w)

    def test_value_to_term_round_trip(self, ab):
        for vs in raw_wirings().values():
            for v in vs:
                v = ab.normal_form(v)
                assert ab.equal(eval_term(ab.value_to_term(v), ab), v)

    def test_braid_values_inconclusive(self, ab):
        bang = ab.generator("bang")
        c1 = comb(ab, ab.generator("psi"), bang, env=word())
        c2 = comb(ab, ab.generator("phi"), bang, env=word())
        assert equiv_sigma(ab, c1, c2).verdict is Verdict.EQUIVALENT
        braid = equiv_comb(ab, c1, c2, strategy="braid")
        assert braid.verdict is Verdict.UNKNOWN and not braid.certified
        d = equiv_comb(ab, c1, c2)
        assert d.verdict is Verdict.DISTINCT and d.certified
        w = d.witness
        assert ab.equal(extended_eval(ab, c1, w.probe, w.c_word, w.d_word), w.left)
        assert ab.equal(extended_eval(ab, c2, w.probe, w.c_word, w.d_word), w.right)
        assert not ab.equal(w.left, w.right)
        assert ab.equal(eval_term(w.probe_term, ab), w.probe)


@pytest.mark.parametrize(
    "backend", [PointedFreeBackend(), AbsorbingPointedBackend()], ids=["pointed", "absorbing"]
)
def test_canonical_key_equal_exactly_when_equal(backend):
    # every enumerated wiring, also after a double swap of its outputs (equal, with
    # its sets built in another order) and beside each loop
    loops = [backend.identity(word())] + [
        backend.compose(backend.generator(s), backend.generator("bang")) for s in ("phi", "psi")
    ]
    for m in range(3):
        for n in range(3):
            homs = backend.enumerate_hom(word(*"a" * m), word(*"a" * n), 256).items
            values = list(homs)
            if n:
                a, rest = word("a"), word(*"a" * (n - 1))
                twice = backend.compose(backend.symmetry(a, rest), backend.symmetry(rest, a))
                values += [backend.compose(v, twice) for v in homs]
            values = [backend.tensor(v, loop) for v in values for loop in loops]
            for v in values:
                for w in values:
                    same_key = backend.canonical_key(v) == backend.canonical_key(w)
                    assert same_key == backend.equal(v, w), (v, w)


def _oracle_compose(rules, first, then):
    """Composite of two wirings given as (matching, caps, seeds, scalars) with
    frozensets of pairs: the dict-and-frozenset algorithm the index tuples
    replaced, kept as the oracle."""
    matching_1, caps_1, seeds_1, scalars_1 = first
    matching_2, caps_2, seeds_2, scalars_2 = then
    out_of_mid, cap_of_mid = dict(matching_2), dict(caps_2)
    matching, caps, seeds = [], list(caps_1), list(seeds_2)
    scalars = list(scalars_1) + list(scalars_2)
    for i, t in matching_1:
        if t in out_of_mid:
            matching.append((i, out_of_mid[t]))
        else:
            caps.append((i, cap_of_mid[t]))
    for t, s in seeds_1:
        if t in out_of_mid:
            seeds.append((out_of_mid[t], s))
        elif (s, cap_of_mid[t]) not in rules:
            scalars.append((s, cap_of_mid[t]))
    return frozenset(matching), frozenset(caps), frozenset(seeds), tuple(sorted(scalars))


def _oracle_tensor(left, right, di, do):
    matching = set(left[0]) | {(di + i, do + j) for i, j in right[0]}
    caps = set(left[1]) | {(di + i, e) for i, e in right[1]}
    seeds = set(left[2]) | {(do + j, s) for j, s in right[2]}
    return (frozenset(matching), frozenset(caps), frozenset(seeds),
            tuple(sorted(left[3] + right[3])))


def _oracle_absorbing(wiring):
    matching, caps, seeds, scalars = wiring
    bangs = len(caps) + len(scalars)
    if bangs == 0:
        return wiring
    seeds = frozenset((j, "phi") for j, _ in seeds)
    if bangs >= 2:
        scalars = tuple(("phi", e) for _, e in scalars)
    return matching, caps, seeds, scalars


def _as_sets(v):
    for pairs in (v.matching, v.caps, v.seeds):
        assert pairs == tuple(sorted(pairs))
    return frozenset(v.matching), frozenset(v.caps), frozenset(v.seeds), v.scalars


#: every rule, one rule, none, and the absorbing normal form
ORACLE_BACKENDS = {
    "pointed": PointedFreeBackend(),
    "one-rule": PointedFreeBackend(rules=[("psi", "bang")]),
    "no-rules": PointedFreeBackend(rules=()),
    "absorbing": AbsorbingPointedBackend(),
}


def _oracle_pool(backend, max_width=2):
    """The enumerated wirings up to the width, each beside each loop."""
    loops = [backend.identity(word())] + [
        backend.compose(backend.generator(s), backend.generator("bang")) for s in ("phi", "psi")
    ]
    return {(m, n): [backend.tensor(v, loop) for loop in loops for v in backend.enumerate_hom(
                word(*"a" * m), word(*"a" * n), 256).items]
            for m in range(max_width + 1) for n in range(max_width + 1)}


ORACLE_POOLS = {name: _oracle_pool(backend) for name, backend in ORACLE_BACKENDS.items()}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(ORACLE_BACKENDS)),
       widths=st.tuples(*[st.integers(0, 2)] * 4), data=st.data())
def test_tuple_wirings_match_the_frozenset_algorithm(name, widths, data):
    """``compose`` and ``tensor`` as index-tuple gathers against the oracle:
    loops that a rule cancels and loops it keeps, the absorbing normal form,
    and composites of composites, whose loops ``compose`` made."""
    backend, pool = ORACLE_BACKENDS[name], ORACLE_POOLS[name]
    normal = _oracle_absorbing if name == "absorbing" else (lambda w: w)
    m, k, n, p = widths
    x, y, z = (data.draw(st.sampled_from(pool[w])) for w in ((m, k), (k, n), (n, p)))
    xy = backend.compose(x, y)
    assert _as_sets(xy) == normal(_oracle_compose(backend.rules, _as_sets(x), _as_sets(y)))
    assert _as_sets(backend.compose(xy, z)) == normal(
        _oracle_compose(backend.rules, _as_sets(xy), _as_sets(z)))
    for left, right in ((x, z), (xy, x)):
        assert _as_sets(backend.tensor(left, right)) == normal(_oracle_tensor(
            _as_sets(left), _as_sets(right), len(left.dom), len(left.cod)))


class TestNames:
    def test_custom_names(self):
        idem = IdempotentFreeBackend(object_name="w", endo_name="step")
        assert idem.object_names() == ("w",)
        step = idem.generator("step")
        assert idem.dom(step) == word("w")
