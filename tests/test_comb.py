import functools
import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from opticomb import (
    AbsorbingPointedBackend,
    BadSplit,
    BoundaryMismatch,
    Budget,
    FinFunBackend,
    IdempotentFreeBackend,
    IllTypedFunctor,
    IncompatibleStrategy,
    Mat,
    MatrixBackend,
    ObjectWord,
    PointedFreeBackend,
    ProbeWitness,
    Symmetry,
    TypeMismatch,
    UnitaryBackend,
    Verdict,
    braid_eval,
    check_probe_witness,
    comb,
    comb_compose,
    comb_tensor,
    enumerate_combs,
    equiv_comb,
    equiv_sigma,
    equiv_tau,
    extended_eval,
    functions_as_boolean_matrices,
    identity_comb,
    lens_pair,
    lift_functor,
    poly,
    poly_extended_eval,
    sigma_congruence_search,
)
from opticomb.comb import (
    _block_paths, _fingerprinter, _namer, _probe_witness, braid_refutation, filler_probes,
    plug_chain, probe_scan,
)
from opticomb.core import Backend, HomSet, value_json
from opticomb.program import witness_json

from conftest import NAME_BACKENDS, rand_mat, random_pieces, word


@pytest.fixture
def pair(cbe, rng):
    """A random comb with source (x, y), hole (y, x), env x*y."""
    a, e = word("x"), word("x", "y")
    f = rand_mat(cbe, rng, a, e @ word("y"))
    g = rand_mat(cbe, rng, e @ word("x"), word("y"))
    return comb(cbe, f, g, env=e)


@pytest.fixture
def sibling(cbe, rng):
    """Same boundary as ``pair``, independent entries."""
    e = word("x", "y")
    f = rand_mat(cbe, rng, word("x"), e @ word("y"))
    g = rand_mat(cbe, rng, e @ word("x"), word("y"))
    return comb(cbe, f, g, env=e)


class TestConstruction:
    def test_boundary_inference(self, pair):
        assert pair.source == (word("x"), word("y"))
        assert pair.target == (word("y"), word("x"))
        assert pair.env == word("x", "y")

    def test_env_must_prefix(self, cbe, rng):
        f = rand_mat(cbe, rng, word("x"), word("x", "y"))
        g = rand_mat(cbe, rng, word("x", "y"), word("x"))
        with pytest.raises(BadSplit):
            comb(cbe, f, g, env=word("y"))

    def test_identity_comb(self, cbe):
        c = identity_comb(cbe, word("x"), word("y"))
        assert c.env == ObjectWord.unit()
        assert c.source == c.target == (word("x"), word("y"))


class TestComposition:
    @pytest.fixture
    def host(self, cbe, rng):
        # hole (y, x)
        return comb(
            cbe,
            rand_mat(cbe, rng, word("x"), word("x", "y")),
            rand_mat(cbe, rng, word("x", "x"), word("y")),
            env=word("x"),
        )

    @pytest.fixture
    def nested(self, cbe, rng):
        # boundary (y, x), hole (x, y): fits inside the host's hole
        return comb(
            cbe,
            rand_mat(cbe, rng, word("y"), word("y", "x")),
            rand_mat(cbe, rng, word("y", "y"), word("x")),
            env=word("y"),
        )

    def test_compose_boundary(self, cbe, host, nested):
        both = comb_compose(cbe, host, nested)
        assert both.source == host.source
        assert both.target == nested.target
        assert both.env == host.env @ nested.env

    def test_compose_requires_matching_boundary(self, cbe):
        c = identity_comb(cbe, word("x"), word("x"))
        d = identity_comb(cbe, word("y"), word("y"))
        with pytest.raises(BoundaryMismatch):
            comb_compose(cbe, c, d)

    def test_nested_evaluation_law(self, cbe, rng, host, nested):
        """Filling the composite hole equals filling in two stages."""
        both = comb_compose(cbe, host, nested)
        cw, dw = word("y"), word("x")
        # filler for the nested hole (x, y) at context (cw, dw)
        lam = rand_mat(cbe, rng, cw @ word("x"), dw @ word("y"))
        via_nested = extended_eval(cbe, nested, lam, cw, dw)
        lhs = extended_eval(cbe, both, lam, cw, dw)
        rhs = extended_eval(cbe, host, via_nested, cw, dw)
        assert cbe.equal(lhs, rhs)

    def test_tensor_boundary(self, cbe):
        c1 = identity_comb(cbe, word("x"), word("x"))
        c2 = identity_comb(cbe, word("y"), word("y"))
        t = comb_tensor(cbe, c1, c2)
        assert t.source == (word("x", "y"), word("x", "y"))
        assert t.target == (word("x", "y"), word("x", "y"))

    def test_tensor_evaluation_agrees(self, cbe, rng):
        e1, e2 = word("x"), word("y")
        c1 = comb(
            cbe,
            rand_mat(cbe, rng, word("x"), e1 @ word("y")),
            rand_mat(cbe, rng, e1 @ word("x"), word("x")),
            env=e1,
        )
        c2 = comb(
            cbe,
            rand_mat(cbe, rng, word("y"), e2 @ word("x")),
            rand_mat(cbe, rng, e2 @ word("y"), word("y")),
            env=e2,
        )
        t = comb_tensor(cbe, c1, c2)
        # product fillers factor through the tensor comb
        lam1 = rand_mat(cbe, rng, word("y"), word("x"))
        lam2 = rand_mat(cbe, rng, word("x"), word("y"))
        u = ObjectWord.unit()
        v1 = extended_eval(cbe, c1, lam1, u, u)
        v2 = extended_eval(cbe, c2, lam2, u, u)
        vt = extended_eval(cbe, t, cbe.tensor(lam1, lam2), u, u)
        assert cbe.equal(vt, cbe.tensor(v1, v2))


class TestEvaluation:
    def test_extended_eval_type_checked(self, cbe, rng, pair):
        bad = rand_mat(cbe, rng, word("x"), word("x"))
        with pytest.raises(TypeMismatch):
            extended_eval(cbe, pair, bad, ObjectWord.unit(), ObjectWord.unit())

    def test_swap_filler_recovers_braid(self, cbe, pair):
        """The braid value and the swap-probe value determine each other."""
        (a, a1) = pair.source
        (b, b1) = pair.target
        probe, cw, dw = cbe.symmetry(b1, b), b1, b
        swapped = extended_eval(cbe, pair, probe, cw, dw)
        braid = braid_eval(cbe, pair)
        # swapped = sym(B', A) ; braid ; sym(A', B)
        rebuilt = cbe.compose(
            cbe.compose(cbe.symmetry(b1, a), braid), cbe.symmetry(a1, b)
        )
        assert cbe.equal(swapped, rebuilt)


class TestSigmaTau:
    def test_sigma_always_certified(self, cbe, pair, sibling):
        d = equiv_sigma(cbe, pair, pair)
        assert d.verdict is Verdict.EQUIVALENT and d.certified
        d2 = equiv_sigma(cbe, pair, sibling)
        assert d2.verdict is Verdict.DISTINCT and d2.certified
        assert isinstance(d2.witness.probe_term, Symmetry)

    def test_sigma_requires_same_boundary(self, cbe):
        c = identity_comb(cbe, word("x"), word("x"))
        d = identity_comb(cbe, word("y"), word("y"))
        with pytest.raises(BoundaryMismatch):
            equiv_sigma(cbe, c, d)

    def test_tau_certifies_on_complete_scan(self, idem):
        a = word("a")
        f = idem.generator("f")
        c1 = comb(idem, f, idem.identity(a), env=ObjectWord.unit())
        c2 = comb(idem, idem.identity(a), f, env=ObjectWord.unit())
        d = equiv_tau(idem, c1, c2)
        assert d.verdict is Verdict.EQUIVALENT and d.certified
        assert d.coverage["hom_scans_complete"] is True
        assert d.coverage["conclusive_context_len"] == 0

    def test_an_incomplete_hom_scan_certifies_nothing(self):
        """The pair of :meth:`test_tau_certifies_on_complete_scan` over a backend
        whose hom-set scans may have missed morphisms: UNKNOWN, where the plain
        backend certifies EQUIVALENT, under ``equiv_tau`` and ``enumerate``."""

        class Incomplete(IdempotentFreeBackend):
            def enumerate_hom(self, dom, cod, budget):
                return HomSet(super().enumerate_hom(dom, cod, budget).items, complete=False)

        a = word("a")
        for backend, verdict in ((IdempotentFreeBackend(), Verdict.EQUIVALENT),
                                 (Incomplete(), Verdict.UNKNOWN)):
            f = backend.generator("f")
            c1 = comb(backend, f, backend.identity(a), env=ObjectWord.unit())
            c2 = comb(backend, backend.identity(a), f, env=ObjectWord.unit())
            for d in (equiv_tau(backend, c1, c2),
                      equiv_comb(backend, c1, c2, strategy="enumerate")):
                assert (d.verdict, d.certified) == (verdict, verdict is Verdict.EQUIVALENT)
                assert d.coverage["hom_scans_complete"] is (verdict is Verdict.EQUIVALENT)

    def test_tau_unknown_on_truncated_scan(self, pointed):
        a = word("a")
        phi, psi = pointed.generator("phi"), pointed.generator("psi")
        bang = pointed.generator("bang")
        c1 = comb(pointed, psi, bang, env=ObjectWord.unit())
        c2 = comb(
            pointed, pointed.tensor(phi, psi), pointed.tensor(bang, bang), env=a
        )
        d = equiv_tau(pointed, c1, c2)
        assert d.verdict is Verdict.UNKNOWN
        assert d.coverage["disagreements"] == 0
        assert d.coverage["hom_scans_complete"] is False

    def test_tau_distinct_certified(self, bbe):
        top = bbe.add_generator("top", "b", "b", [[1, 1], [1, 1]])
        low = bbe.add_generator("low", "b", "b", [[1, 0], [1, 1]])
        c1 = comb(bbe, top, low, env=ObjectWord.unit())
        c2 = comb(bbe, low, top, env=ObjectWord.unit())
        d = equiv_tau(bbe, c1, c2)
        assert d.verdict is Verdict.DISTINCT and d.certified


@pytest.mark.parametrize("make,source,target", [
    (IdempotentFreeBackend, ("a", "a"), ("a", "a")),
    (PointedFreeBackend, ((), ()), ("a", "a")),
    (AbsorbingPointedBackend, ((), ()), ("a", "a")),
    (lambda: MatrixBackend({"b": 2}, semiring="bool"), ("b", "b"), ("b", "b")),
    (lambda: FinFunBackend({"s": 2}), ("s", "s"), ("s", "s")),
], ids=["idempotent", "pointed", "absorbing", "bool", "finfun"])
def test_tau_is_the_enumerate_route_at_length_zero(make, source, target):
    """At bound 0 ``equiv_tau`` and the ``enumerate`` route scan the same
    probes, so only their method and witness note differ; tau is symmetric."""
    backend = make()
    source, target = (tuple(word(*w) for w in pair) for pair in (source, target))
    reps = list(enumerate_combs(backend, source, target, bound=1))[:12]

    def bare(witness):
        return witness and {k: v for k, v in witness_json(witness).items() if k != "note"}

    for x, y in itertools.product(reps, repeat=2):
        tau = equiv_tau(backend, x, y, bound=0)
        by_enum = equiv_comb(backend, x, y, strategy="enumerate", bound=0)
        assert (tau.verdict, tau.certified, tau.coverage, bare(tau.witness)) == (
            by_enum.verdict, by_enum.certified, by_enum.coverage, bare(by_enum.witness)
        )
        assert equiv_tau(backend, y, x, bound=0).verdict is tau.verdict


class TestEquivComb:
    def test_braid_route_certifies_both_ways(self, idem):
        a = word("a")
        f = idem.generator("f")
        c1 = comb(idem, f, idem.identity(a), env=ObjectWord.unit())
        c2 = comb(idem, idem.identity(a), f, env=ObjectWord.unit())
        d = equiv_comb(idem, c1, c2)
        assert d.verdict is Verdict.EQUIVALENT and d.certified

    def test_distinct_witness_replays(self, cbe, pair, sibling):
        d = equiv_comb(cbe, pair, sibling)
        assert d.verdict is Verdict.DISTINCT
        w = d.witness
        v1 = extended_eval(cbe, pair, w.probe, w.c_word, w.d_word)
        v2 = extended_eval(cbe, sibling, w.probe, w.c_word, w.d_word)
        assert cbe.equal(v1, w.left) and cbe.equal(v2, w.right)
        assert not cbe.equal(v1, v2)

    def test_enumerate_route_refutes(self, bbe):
        top = bbe.add_generator("top2", "b", "b", [[1, 1], [1, 1]])
        c1 = comb(bbe, top, bbe.identity(word("b")), env=ObjectWord.unit())
        c2 = comb(bbe, bbe.identity(word("b")), top, env=ObjectWord.unit())
        d = equiv_comb(bbe, c1, c2, strategy="enumerate", bound=2)
        assert d.verdict is Verdict.DISTINCT and d.certified
        assert d.method == "enumerated-probes"

    def test_enumerate_route_confirms(self, idem):
        a = word("a")
        f = idem.generator("f")
        c1 = comb(idem, f, idem.identity(a), env=ObjectWord.unit())
        c2 = comb(idem, idem.identity(a), f, env=ObjectWord.unit())
        d = equiv_comb(idem, c1, c2, strategy="enumerate", bound=1)
        assert d.verdict is Verdict.EQUIVALENT and d.certified
        assert d.coverage["hom_scans_complete"] is True

    def test_lens_route(self, ffb):
        s = word("s")
        dup = ffb.fun(s, s @ s, [0, 3])
        fst = ffb.fun(s @ s, s, [0, 0, 1, 1])
        c1 = comb(ffb, dup, fst, env=s)
        twisted = comb(ffb, ffb.compose(dup, ffb.symmetry(s, s)), fst, env=s)
        d = equiv_comb(ffb, c1, twisted, strategy="lens")
        assert d.verdict is Verdict.EQUIVALENT and d.certified

    def test_unknown_strategy_rejected(self, cbe, pair):
        with pytest.raises(IncompatibleStrategy):
            equiv_comb(cbe, pair, pair, strategy="zigzag")

    def test_lens_strategy_needs_cartesian(self, cbe, pair):
        with pytest.raises(IncompatibleStrategy):
            equiv_comb(cbe, pair, pair, strategy="lens")


class TestLensPair:
    def test_get_put_semantics(self, ffb):
        s = word("s")
        # f stores the input in the env and exposes a rotation of it
        f = ffb.fun(s, s @ s, [1, 2])  # 0 -> (0,1), 1 -> (1,0)
        g = ffb.proj2(s, s)
        c = comb(ffb, f, g, env=s)
        get, put = lens_pair(ffb, c)
        # get = f ; drop env
        assert get.table == (1, 0)
        # put(a, b') = g(env(a), b') = b'
        assert put.table == (0, 1, 0, 1)


class TestFunctorTransport:
    def test_lift_checks_object_coverage(self, ffb):
        mat_be, to_mat = functions_as_boolean_matrices(ffb)
        with pytest.raises(IllTypedFunctor):
            lift_functor(ffb, mat_be, {"s": word("s")}, to_mat)

    def test_lift_with_generators(self, ffb):
        # every generator's image is checked: boundary, and composition and
        # tensor with every generator
        ffb.add_generator("swap", "s", "s", (1, 0))
        ffb.add_generator("pick", "s*t", "t", (0, 1, 2, 2, 1, 0))
        mat_be, to_mat = functions_as_boolean_matrices(ffb)
        fun = lift_functor(ffb, mat_be, {"s": word("s"), "t": word("t")}, to_mat)
        assert mat_be.generator_names() == ("swap", "pick")
        for name in ffb.generator_names():
            assert mat_be.equal(fun.value_map(ffb.generator(name)), mat_be.generator(name))

    @pytest.mark.parametrize("broken,message", [
        ("boundary", "image of 'swap' has the wrong boundary"),
        ("composition", "composition is not preserved"),
        ("tensor", "tensor is not preserved"),
    ])
    def test_lift_refuses_a_map_that_breaks_a_generator(self, ffb, broken, message):
        s, t = word("s"), word("t")
        swap = ffb.add_generator("swap", "s", "s", (1, 0))
        mat_be, to_mat = functions_as_boolean_matrices(ffb)
        # the all-ones relation on s keeps swap's boundary, and is idempotent
        # where swap squares to the identity
        wrong = {"boundary": (swap, to_mat(ffb.identity(t))),
                 "composition": (swap, mat_be.mat(s, s, [[1, 1], [1, 1]])),
                 "tensor": (ffb.tensor(swap, swap), mat_be.mat(s @ s, s @ s, np.zeros((4, 4))))}
        value, image = wrong[broken]
        with pytest.raises(IllTypedFunctor, match=message):
            lift_functor(ffb, mat_be, {"s": s, "t": t},
                         lambda m: image if m == value else to_mat(m))

    def test_transport_preserves_braid(self, ffb):
        mat_be, to_mat = functions_as_boolean_matrices(ffb)
        fun = lift_functor(ffb, mat_be, {"s": word("s"), "t": word("t")}, to_mat)
        s = word("s")
        dup = ffb.fun(s, s @ s, [0, 3])
        c = comb(ffb, dup, ffb.proj1(s, s), env=s)
        image = fun.map_comb(c)
        assert mat_be.equal(to_mat(braid_eval(ffb, c)), braid_eval(mat_be, image))

    def test_transport_reflects_sigma_distinctness(self, ffb):
        """A faithful model sends braid-distinct combs to braid-distinct images."""
        mat_be, to_mat = functions_as_boolean_matrices(ffb)
        fun = lift_functor(ffb, mat_be, {"s": word("s"), "t": word("t")}, to_mat)
        s = word("s")
        dup = ffb.fun(s, s @ s, [0, 3])
        c1 = comb(ffb, dup, ffb.proj1(s, s), env=s)
        c2 = comb(ffb, dup, ffb.proj2(s, s), env=s)
        d_src = equiv_sigma(ffb, c1, c2)
        d_img = equiv_sigma(mat_be, fun.map_comb(c1), fun.map_comb(c2))
        assert d_src.verdict == d_img.verdict


A = word("a")
#: criterion 05's search list
SEARCHES = [
    (IdempotentFreeBackend(), [(A, A, A, A)]),
    (PointedFreeBackend(), [(word(), word(), A, A), (A, A, A, A)]),
    (MatrixBackend({"x": 2}, semiring="bool"),
     [(word("x"),) * 4, (word("x"), word(), word(), word("x"))]),
    (FinFunBackend({"s": 2}), [(word("s"),) * 4]),
    (AbsorbingPointedBackend(), [(word(), word(), A, A), (A, A, A, A)]),
]


def _probes(backend, b, b1, bound=2):
    """The probes ``(fillers, contexts)`` of the hole ``(b, b1)`` one by one:
    :func:`filler_probes`'s blocks, flattened."""
    budget = Budget.of(bound)
    words = backend.enumerate_objects(budget.max_word_len)
    return [(fillers, contexts)
            for block, contexts in filler_probes(backend, ((b, b1),), words, budget.max_hom, [])
            for fillers in block]


def _one_by_one(probes):
    """Each probe as a block of its own: the per-probe stream of :func:`plug_chain`."""
    return (([fillers], contexts) for fillers, contexts in probes)


def reference_probe_scan(backend, rep1, rep2, probes):
    """:func:`probe_scan` as it was before it plugged a block at a time, kept
    as the reference of the block scan: each representative is one stream of
    one-probe blocks, and the first probe on which they differ ends the scan.
    Returns ``((probe, left, right), tried)``, or ``(None, tried)``."""
    probes, p1, p2 = itertools.tee(probes, 3)
    evals = zip(probes, plug_chain(backend, *rep1.chain(), _one_by_one(p1)),
                plug_chain(backend, *rep2.chain(), _one_by_one(p2)))
    tried = 0
    for tried, (probe, v1, v2) in enumerate(evals, 1):
        if not backend.equal(v1, v2):
            return (probe, v1, v2), tried
    return None, tried


def reference_search(backend, boundaries, bound, max_pairs):
    """The pair-by-pair scan: every braid-equal pair through probe_scan, braid
    classes in the order of their keys' text with each set written sorted.

    Returns the witness (or None) and the number of pairs counted.
    """
    pairs = 0
    for (a, a1, b, b1) in boundaries:
        groups = {}
        for c in enumerate_combs(backend, (a, a1), (b, b1), bound):
            groups.setdefault(backend.canonical_key(braid_eval(backend, c)), []).append(c)
        probes = _probes(backend, b, b1, bound)
        for _, members in sorted(groups.items(), key=lambda kv: repr(kv[0])):
            for c1, c2 in itertools.combinations(members, 2):
                pairs += 1
                if pairs > max_pairs:
                    return None, pairs
                hit, _ = reference_probe_scan(backend, c1, c2, probes)
                if hit is not None:
                    ((lam,), ((cw, dw),)), v1, v2 = hit
                    return ProbeWitness(
                        cw, dw, lam, left=v1, right=v2,
                        probe_term=backend.value_to_term(lam),
                        note="filler separates braid-equal combs",
                    ), pairs
    return None, pairs


def test_braid_class_order_ignores_hash_order():
    # the classes are ordered by the text of their keys; a pointed key holds
    # its wiring as sorted pairs, so that text does not depend on hash order
    backend = PointedFreeBackend(rules=())
    swap, loop = backend.symmetry(A, A), backend.compose(
        backend.generator("phi"), backend.generator("bang"))
    value = backend.tensor(backend.tensor(swap, backend.generator("psi")), loop)
    assert backend.canonical_key(value) == (
        "wiring", A @ A, A @ A @ A, ((0, 1), (1, 0)), (), ((2, "psi"),), (("phi", "bang"),))


def _same_witness(w1, w2):
    if w1 is None or w2 is None:
        return w1 is w2
    return json.dumps(witness_json(w1)) == json.dumps(witness_json(w2))


STREAM_BACKENDS = {
    **NAME_BACKENDS,
    "complex": (lambda: MatrixBackend({"x": 2, "y": 3}, semiring="complex"), "x"),
}


def _complex_pieces(backend, rng, make=rand_mat):
    x, y = word("x"), word("y")

    def seg(d, c):
        return make(backend, rng, d, c)

    return [
        poly(backend, [], [(x, y)], [], [seg(x, y)]),
        poly(backend, [(y, x)], [(x, y)], [x], [seg(x, x @ y), seg(x @ x, y)]),
        poly(backend, [(y, x), (x, y)], [(x, y)], [x, y],
             [seg(x, x @ y), seg(x @ x, y @ x), seg(y @ y, y)]),
    ]


def _walk(backend, rng, p, words, repeat=1, make=rand_mat):
    """Probes for every choice of hole contexts from ``words``: first with
    the C words outer and the D words inner, then the other way round, so
    contexts change and come back.  Fillers are drawn afresh per probe,
    ``repeat`` probes per choice; context choices with an empty hom-set are
    skipped."""
    choices = list(itertools.product(words, repeat=len(p.holes)))
    order = [(cs, ds) for cs in choices for ds in choices]
    order += [(cs, ds) for ds in choices for cs in choices]
    probes = []
    for cs, ds in order:
        contexts = tuple(zip(cs, ds))
        for _ in range(repeat):
            fillers = []
            for (c, d), (a, a1) in zip(contexts, p.holes):
                if not backend.enumerable:
                    fillers.append(make(backend, rng, c @ a, d @ a1))
                    continue
                items = backend.enumerate_hom(c @ a, d @ a1, 16).items
                if not items:
                    break
                fillers.append(items[rng.integers(len(items))])
            else:
                probes.append((tuple(fillers), contexts))
    return probes


def _rational_mat(backend, rng, dom, cod, big=False):
    """Rational entries with mixed denominators; near 2**40 when ``big``."""
    shape = (backend.dim(cod), backend.dim(dom))
    nums = rng.integers(-9, 10, size=shape).tolist()
    dens = rng.integers(1, 8, size=shape).tolist()
    base = 2 ** 40 if big else 0
    return backend.mat(dom, cod, [
        [Fraction(base + n, d) for n, d in zip(row_n, row_d)]
        for row_n, row_d in zip(nums, dens)
    ])


def _big_rational_mat(backend, rng, dom, cod):
    return _rational_mat(backend, rng, dom, cod, big=True)


def _unitary_mat(backend, rng, dom, cod):
    """A random unitary ``dom -> cod`` (the Q of a complex Gaussian matrix)."""
    d = backend.dim(dom)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return backend.mat(dom, cod, np.linalg.qr(z)[0])


def _blocks(probes):
    """Maximal runs of probes with equal contexts: the context blocks that
    :func:`plug_chain` and ``_plug_blocks`` take."""
    return [
        ([fillers for fillers, _ in run], contexts)
        for contexts, run in itertools.groupby(probes, key=lambda probe: probe[1])
    ]


def _plug(backend, before, beside, fillers, after):
    """The filler kernel on a block: its lower half, then its upper half."""
    return backend.plug_upper(backend.plug_lower(before, beside, fillers), after)


def _plug_blocks(backend, holes, envs, segments, blocks, built=None):
    """The reference of ``plug_chain`` on context blocks: one list of values
    per block, the first hole plugging the whole block through one kernel
    call, on the paths of ``_block_paths`` (their stretches shared through
    ``built``)."""
    for block, path in _block_paths(backend, holes, envs, segments, blocks, built, True):
        vals = [path[0][0]] * len(block)
        for i, ((_, beside), (after, _)) in enumerate(zip(path, path[1:])):
            lams = [fillers[i] for fillers in block]
            if i == 0:
                vals = _plug(backend, vals[0], beside, lams, after)
            else:
                vals = [_plug(backend, v, beside, (lam,), after)[0] for v, lam in zip(vals, lams)]
        yield vals


def _composed(backend, before, beside, fillers, after):
    """The kernel as the default composition: one tensor and two composites each."""
    return [backend.compose(backend.compose(before, backend.tensor(beside, lam)), after)
            for lam in fillers]


def _same_value(backend, v1, v2):
    if getattr(backend, "semiring", None) == "complex":
        return backend.equal(v1, v2)
    return backend.canonical_key(v1) == backend.canonical_key(v2)


KERNEL_BACKENDS = {
    **STREAM_BACKENDS,
    "rational": (lambda: MatrixBackend({"x": 2, "y": 3}, semiring="rational"), "x"),
    "rational-2**40": (lambda: MatrixBackend({"x": 2, "y": 3}, semiring="rational"), "x"),
}
KERNEL_FILLS = {
    "rational": _rational_mat, "rational-2**40": _big_rational_mat, "unitary": _unitary_mat,
}


def _recording(backend):
    """Wrap the backend's primitives on the instance; each outermost call is
    recorded as ``[name, args, result]``."""
    calls, depth = [], [0]
    for name in ("compose", "tensor", "identity", "symmetry"):
        def wrapped(*args, _name=name, _fn=getattr(backend, name)):
            call = [_name, args, None]
            if not depth[0]:
                calls.append(call)
            depth[0] += 1
            try:
                call[2] = _fn(*args)
            finally:
                depth[0] -= 1
            return call[2]
        setattr(backend, name, wrapped)
    return calls


class TestProbeStreams:
    @pytest.mark.parametrize("name", sorted(STREAM_BACKENDS))
    def test_stream_values_match_one_probe_values(self, name):
        """A stream builds the chain between fillers once per context slice;
        its values must be the one-probe values on every probe."""
        make, obj = STREAM_BACKENDS[name]
        backend, o = make(), word(obj)
        rng = np.random.default_rng(20261018)
        if backend.enumerable:
            pieces = [p for n in (0, 1, 2) for p in random_pieces(backend, o, n, rng, 4)]
        else:
            pieces = _complex_pieces(backend, rng)
        assert {len(p.holes) for p in pieces} == {0, 1, 2}
        for p in pieces:
            probes = _walk(backend, rng, p, [word(), o])
            assert probes
            values = list(plug_chain(backend, *p.chain(), _blocks(probes)))
            assert len(values) == len(probes)
            for v, (fillers, contexts) in zip(values, probes):
                one = poly_extended_eval(backend, p, fillers, contexts)
                if backend.enumerable:
                    assert backend.canonical_key(v) == backend.canonical_key(one)
                else:
                    assert backend.equal(v, one)
            if p.holes:
                # a wrongly typed filler at the contexts the stream last built
                fillers, contexts = probes[-1]
                (c, _), (a, _) = contexts[-1], p.holes[-1]
                bad = fillers[:-1] + (backend.identity(c @ a @ o),)
                stream = plug_chain(backend, *p.chain(), _blocks(probes + [(bad, contexts)]))
                with pytest.raises(TypeMismatch, match=f"filler {len(p.holes) - 1} must"):
                    list(stream)


def _zero_or_rand_mat(backend, rng, dom, cod):
    """The zero matrix or a dense complex one, by a coin: a zero filler in any
    hole makes every piece's value zero, so two pieces agree on some probes
    of a block and differ on others."""
    if rng.random() < 0.5:
        return backend.mat(dom, cod, np.zeros((backend.dim(cod), backend.dim(dom))))
    return rand_mat(backend, rng, dom, cod)


class TestBlockScan:
    """``probe_scan`` plugs a context block at a time; the per-probe scan it
    replaced (:func:`reference_probe_scan`) must find the same first
    differing probe, with the same ``tried`` count, values and witness."""

    @pytest.mark.parametrize("name", sorted(STREAM_BACKENDS))
    def test_block_scan_matches_the_per_probe_scan(self, name):
        make, obj = STREAM_BACKENDS[name]
        backend, o = make(), word(obj)
        rng = np.random.default_rng(20261026)
        if backend.enumerable:
            pieces = [p for n in (0, 1, 2) for p in random_pieces(backend, o, n, rng, 4)]
        else:
            pieces = _complex_pieces(backend, rng)
        assert {len(p.holes) for p in pieces} == {0, 1, 2}
        inside = 0  # scans whose first differing probe is not the first of its block
        for p in pieces:
            q = _sibling(backend, p, rng, rand_mat)
            probes = _walk(backend, rng, p, [word(), o], repeat=3, make=_zero_or_rand_mat)
            blocks = _blocks(probes)
            # the whole walk, and each block on its own
            for walk in [probes] + [[(f, c) for f in fillers] for fillers, c in blocks]:
                for x, y in [(p, p), (p, q), (q, p)]:
                    hit, tried = probe_scan(backend, x, y, _blocks(walk))
                    want, want_tried = reference_probe_scan(backend, x, y, walk)
                    assert tried == want_tried
                    assert (hit is None) == (want is None)
                    if hit is None:
                        assert tried == len(walk)
                        continue
                    (fillers, contexts), v1, v2 = hit
                    assert (fillers, contexts) == walk[tried - 1] == want[0]
                    assert all(f is g for f, g in zip(fillers, want[0][0]))
                    for v, u in zip((v1, v2), want[1:]):
                        assert json.dumps(value_json(v)) == json.dumps(value_json(u))
                    assert _same_witness(_probe_witness(backend, hit, "n"),
                                         _probe_witness(backend, want, "n"))
                    inside += tried > 1 and walk[tried - 2][1] == contexts
        # an absorbing pair that differs does so on every probe, and the
        # idempotent pairs drawn here differ on few; elsewhere some differ
        # first inside a block
        assert inside or name in ("absorbing", "idempotent")

    def test_a_block_stacks_its_first_hom_set_only(self, monkeypatch):
        """A two-hole block at bound 3 is the product of its hom-sets: here
        ``max_hom`` hole-0 fillers times 4, more than ``max_hom`` tuples.  Hole
        0 stacks the items of its hom-set only, and a scan that differs on
        the block's first probe plugs the later hole once per stream."""
        backend, s = FinFunBackend({"s": 2}), word("s")
        ident = backend.identity(s)
        flip = next(f for f in backend.enumerate_hom(s, s, 4).items  # no fixed point
                    if not backend.equal(f, ident) and backend.equal(backend.compose(f, f), ident))
        p = poly(backend, [(s, s), (s, s)], [(s, s)], [word(), word()], [ident] * 3)
        q = poly(backend, p.holes, p.outers, p.envs, [ident, ident, flip])
        budget = Budget.of(3)
        block = next(b for b in filler_probes(
            backend, p.holes, backend.enumerate_objects(3), budget.max_hom, []
        ) if len({id(fillers[0]) for fillers in b[0]}) == budget.max_hom)
        assert len(block[0]) == 4 * budget.max_hom
        sizes, plug_lower = [], backend.plug_lower

        def counted(before, beside, fillers):
            sizes.append(len(fillers))
            return plug_lower(before, beside, fillers)

        monkeypatch.setattr(backend, "plug_lower", counted)
        hit, tried = probe_scan(backend, p, q, [block])
        assert hit is not None and tried == 1
        assert sizes == [budget.max_hom, 1, budget.max_hom, 1]


class TestPlugKernel:
    """The filler kernel (``plug_lower`` then ``plug_upper``) evaluates a block
    of fillers of one type; the matrix kernel stacks the block, the default
    one plugs filler by filler."""

    @pytest.mark.parametrize("name", sorted(KERNEL_BACKENDS))
    def test_block_values_match_one_probe_values(self, name):
        make, obj = KERNEL_BACKENDS[name]
        backend, o = make(), word(obj)
        rng = np.random.default_rng(20261018)
        fill = KERNEL_FILLS.get(name, rand_mat)
        if backend.enumerable:
            pieces = [p for n in (0, 1, 2) for p in random_pieces(backend, o, n, rng, 4)]
        else:
            pieces = _complex_pieces(backend, rng, fill)
        assert {len(p.holes) for p in pieces} == {0, 1, 2}
        for p in pieces:
            probes = _walk(backend, rng, p, [word(), o], repeat=3, make=fill)
            blocks = _blocks(probes)
            assert max(len(fillers) for fillers, _ in blocks) >= 3
            values = list(itertools.chain.from_iterable(
                _plug_blocks(backend, *p.chain(), blocks)
            ))
            streamed = list(plug_chain(backend, *p.chain(), blocks))
            assert len(values) == len(streamed) == len(probes)
            for v, s, probe in zip(values, streamed, probes):
                one = next(plug_chain(backend, *p.chain(), _one_by_one([probe])))
                assert _same_value(backend, v, one) and _same_value(backend, s, one)
                if name.startswith("rational"):
                    assert all(type(x) is Fraction for x in (*v.array.flat, *s.array.flat))

    @pytest.mark.parametrize(
        "name", ["bool", "complex", "finfun", "finfun-empty", "rational", "rational-2**40"]
    )
    def test_kernel_matches_the_default_kernel(self, name):
        """Random ``before``, ``beside`` and ``after`` around a block, through
        the backend's kernel and through one tensor and two composites each.
        ``finfun-empty`` has an empty set among its objects; hom-sets with no
        member are skipped."""
        if name == "finfun-empty":
            backend, o = FinFunBackend({"a": 0, "b": 2}), word("b")
            words = [word(), word("a"), o]
        else:
            make, obj = KERNEL_BACKENDS[name]
            backend, o = make(), word(obj)
            words = [word(), o]
        rng = np.random.default_rng(20261020)
        fill = KERNEL_FILLS.get(name, rand_mat)

        def pick(dom, cod):
            if not backend.enumerable:
                return fill(backend, rng, dom, cod)
            items = backend.enumerate_hom(dom, cod, 64).items
            return items[rng.integers(len(items))] if items else None

        shapes = set()
        for x, y, w, w1, a, a1 in itertools.product(words, repeat=6):
            before, beside, after = pick(x, w @ a), pick(w, w1), pick(w1 @ a1, y)
            fillers = [pick(a, a1) for _ in range(5)]
            if any(m is None for m in (before, beside, after, *fillers)):
                continue
            got = _plug(backend, before, beside, fillers, after)
            want = _composed(backend, before, beside, fillers, after)
            assert len(got) == len(want) == 5
            for v, u in zip(got, want):
                assert (v.dom, v.cod) == (u.dom, u.cod) == (x, y)
                assert _same_value(backend, v, u)
                if name.startswith("rational"):
                    assert all(type(e) is Fraction for e in v.array.flat)
            if name.startswith("finfun"):
                shapes.add((len(before.table), len(beside.table), len(fillers[0].table)))
        if name.startswith("finfun"):
            assert any(n_beside > 1 for _, n_beside, _ in shapes)
        if name == "finfun-empty":  # an empty block input, and an empty filler domain
            assert any(n_before == 0 for n_before, _, _ in shapes)
            assert any(n_lam == 0 for _, _, n_lam in shapes)

    def test_bool_block_sums_above_one(self):
        """Products of 0/1 matrices count paths; the kernel thresholds once."""
        backend = MatrixBackend({"b": 2}, semiring="bool")
        b = word("b")
        before = backend.mat(b, b @ b, np.ones((4, 2)))
        after = backend.mat(b @ b, b, np.ones((2, 4)))
        beside = backend.identity(b)
        fillers = list(backend.enumerate_hom(b, b, 16).items)
        raw = [after.array @ np.kron(beside.array, f.array) @ before.array for f in fillers]
        assert max(int(r.max()) for r in raw) > 1
        got = _plug(backend, before, beside, fillers, after)
        want = _composed(backend, before, beside, fillers, after)
        assert [backend.canonical_key(v) for v in got] == [backend.canonical_key(v) for v in want]
        for v, r in zip(got, raw):
            assert np.array_equal(v.array, (r > 0).astype(np.int64))

    @pytest.mark.parametrize("semiring", ["bool", "rational", "complex"])
    def test_zero_dimension_object(self, semiring):
        backend = MatrixBackend({"x": 2, "z": 0}, semiring=semiring)
        x, z = word("x"), word("z")
        before = backend.mat(x, x @ z, np.zeros((0, 2)))
        after = backend.mat(x @ z, x, np.zeros((2, 0)))
        fillers = [backend.mat(z, z, np.zeros((0, 0)))] * 3
        got = _plug(backend, before, backend.identity(x), fillers, after)
        want = _composed(backend, before, backend.identity(x), fillers, after)
        for v, u in zip(got, want, strict=True):
            assert v.array.shape == (2, 2)
            assert backend.equal(v, u)
            if semiring == "rational":
                assert all(type(e) is Fraction for e in v.array.flat)

    def test_matrix_kernel_checks_the_block_type(self):
        backend = MatrixBackend({"b": 2}, semiring="bool")
        one = backend.identity(word("b"))
        with pytest.raises(TypeMismatch, match="cannot compose b into b\\*b"):
            _plug(backend, one, one, [one], backend.identity(word("b", "b")))
        with pytest.raises(TypeMismatch, match="cannot compose b\\*b into b"):
            _plug(backend, backend.identity(word("b", "b")), one, [one], one)

    def test_finfun_kernel_checks_the_block_type(self):
        backend = FinFunBackend({"s": 2, "t": 2})
        s, t = word("s"), word("t")
        one = backend.identity(s)
        with pytest.raises(TypeMismatch, match="cannot compose s into s\\*s"):
            _plug(backend, one, one, [one], backend.identity(s @ s))
        twice = backend.identity(s @ s)
        with pytest.raises(TypeMismatch, match="cannot compose s\\*s into s\\*t"):
            _plug(backend, twice, one, [backend.identity(t)], twice)

    @pytest.mark.parametrize("name", ["pointed"])
    def test_default_kernel_keeps_the_call_sequence(self, name):
        """Per filler one tensor and two composites, in that order within each
        half: the lower half's pairs for the block, then the upper half's
        composites; and a block makes the calls of the per-probe stream over
        its probes, the halves of a block grouped, and so does ``plug_chain``
        on the blocks."""
        make, obj = NAME_BACKENDS[name]
        backend, o = make(), word(obj)
        before, beside, after = backend.identity(o @ o), backend.identity(o), backend.identity(o @ o)
        fillers = list(backend.enumerate_hom(o, o, 16).items)
        calls = _recording(backend)
        values = _plug(backend, before, beside, fillers, after)
        assert len(calls) == 3 * len(fillers)
        lower, upper = calls[: 2 * len(fillers)], calls[2 * len(fillers) :]
        for (t, comp), last, lam, v in zip(zip(*[iter(lower)] * 2), upper, fillers, values):
            assert t[0] == "tensor" and t[1][0] is beside and t[1][1] is lam
            assert comp[0] == "compose" and comp[1][0] is before and comp[1][1] is t[2]
            assert last[0] == "compose" and last[1][0] is comp[2] and last[1][1] is after
            assert last[2] is v

        rng = np.random.default_rng(20261021)
        for p in random_pieces(make(), o, 1, rng, 4):
            probes = _walk(backend, rng, p, [word(), o], repeat=3)
            seqs = []
            for run in (lambda b: _plug_blocks(b, *p.chain(), _blocks(probes)),
                        lambda b: plug_chain(b, *p.chain(), _blocks(probes)),
                        lambda b: plug_chain(b, *p.chain(), _one_by_one(probes))):
                calls = _recording(other := make())
                list(run(other))
                seqs.append(sorted(((op, [(backend.dom(a), backend.cod(a))
                                          if not isinstance(a, ObjectWord) else a
                                          for a in args]) for op, args, _ in calls), key=repr))
            assert seqs[0] == seqs[1] == seqs[2]
            assert [op for op, _ in seqs[0]].count("tensor") >= len(probes)


class TestPlugHalves:
    """The kernel is the upper half ``; after`` of the lower half ``before ;
    (beside (x) filler)`` of a block; the congruence search keeps each lower
    half and keys each block through ``block_key``."""

    def _cases(self, name):
        """``(backend, before, beside, fillers, after, after2)`` around blocks
        of five fillers, over every choice of words; ``zero`` and
        ``finfun-empty`` have an empty object, ``bool-paths`` path counts
        above one."""
        rng = np.random.default_rng(20261024)
        if name == "bool-paths":
            backend, b = MatrixBackend({"b": 2}, semiring="bool"), word("b")
            fillers = list(backend.enumerate_hom(b, b, 16).items)
            ones = backend.mat(b @ b, b, np.ones((2, 4)))
            yield (backend, backend.mat(b, b @ b, np.ones((4, 2))), backend.identity(b),
                   fillers, ones, backend.mat(b @ b, b, [[1, 0, 0, 1], [0, 1, 1, 0]]))
            return
        fill = KERNEL_FILLS.get(name, rand_mat)
        if name.startswith("zero"):
            backend = MatrixBackend({"x": 2, "z": 0}, semiring=name.split("-")[1])
            words = [word("x"), word("z")]

            def fill(backend, rng, dom, cod):  # small integers, in any semiring
                return backend.mat(dom, cod, rng.integers(-3, 4, (backend.dim(cod), backend.dim(dom))))
        elif name == "finfun-empty":
            backend, words = FinFunBackend({"a": 0, "b": 2}), [word("a"), word("b")]
        else:
            make, obj = KERNEL_BACKENDS[name]
            backend = make()
            words = [word(), word(obj)]

        def pick(dom, cod):
            if not backend.enumerable:
                return fill(backend, rng, dom, cod)
            items = backend.enumerate_hom(dom, cod, 64).items
            return items[rng.integers(len(items))] if items else None

        for x, y, w, w1, a, a1 in itertools.product(words, repeat=6):
            before, beside = pick(x, w @ a), pick(w, w1)
            after, after2 = pick(w1 @ a1, y), pick(w1 @ a1, y)
            fillers = [pick(a, a1) for _ in range(5)]
            if all(m is not None for m in (before, beside, after, after2, *fillers)):
                yield backend, before, beside, fillers, after, after2

    NAMES = ["bool", "bool-paths", "complex", "rational", "rational-2**40", "finfun",
             "finfun-empty", "pointed", "zero-bool", "zero-rational", "zero-complex"]

    @pytest.mark.parametrize("name", NAMES)
    def test_halves_match_the_composition(self, name):
        count, empty = 0, False
        for backend, before, beside, fillers, after, _ in self._cases(name):
            want = _composed(backend, before, beside, fillers, after)
            got = _plug(backend, before, beside, fillers, after)
            assert len(got) == len(want) == len(fillers)
            for v, u in zip(got, want):
                assert (v.dom, v.cod) == (u.dom, u.cod) == (before.dom, after.cod)
                assert _same_value(backend, v, u)
                if "rational" in name:
                    assert all(type(e) is Fraction for e in v.array.flat)
            count += 1
            v = want[0]
            empty = empty or (0 in v.array.shape if hasattr(v, "array")
                              else not getattr(v, "table", True))
        assert count
        if name == "bool-paths":
            raw = [after.array @ np.kron(beside.array, f.array) @ before.array for f in fillers]
            assert max(int(r.max()) for r in raw) > 1
        assert empty == (name.startswith("zero") or name == "finfun-empty")

    @pytest.mark.parametrize("name", NAMES)
    def test_a_lower_half_serves_two_afters(self, name):
        """One lower half, read under two ``after``s in turn and again, gives
        the values of fresh kernel calls; its block keys are equal exactly
        when those values are."""
        for backend, before, beside, fillers, after, after2 in self._cases(name):
            lower, keys = backend.plug_lower(before, beside, fillers), {}
            for a in (after, after2, after):
                fresh = _plug(backend, before, beside, fillers, a)
                for v, u in zip(backend.plug_upper(lower, a), fresh, strict=True):
                    assert _same_value(backend, v, u)
                if backend.enumerable:
                    values = tuple(backend.canonical_key(v) for v in fresh)
                    keys.setdefault(values, set()).add(backend.block_key(lower, a))
            if backend.enumerable:
                assert all(len(k) == 1 for k in keys.values())
                assert len(set().union(*keys.values())) == len(keys)

    def test_bool_block_key_sees_every_entry(self):
        """A bool block that differs from another in one entry of one value,
        or in the type of its values, gets another key; an equal block gets
        the same key."""
        backend, b = MatrixBackend({"b": 2, "c": 2}, semiring="bool"), word("b")
        fillers = list(backend.enumerate_hom(b, b, 16).items)
        lower = backend.plug_lower(backend.identity(b @ b), backend.identity(b), fillers)
        after = backend.identity(b @ b)
        key = backend.block_key(lower, after)
        again = backend.plug_lower(backend.identity(b @ b), backend.identity(b), fillers)
        assert again is not lower and backend.block_key(again, after) == key
        for i in np.ndindex(lower.array.shape):
            flipped = lower.array.copy()
            flipped[i] = not flipped[i]
            assert backend.block_key(Mat(lower.dom, lower.cod, flipped), after) != key
        retyped = Mat(word("c", "c"), lower.cod, lower.array)
        assert backend.block_key(retyped, after) != key
        assert backend.block_key(lower, backend.mat(b @ b, word("c", "c"), np.eye(4))) != key

    def test_bool_search_runs_each_half_once_per_bottom_and_comb(self, monkeypatch):
        """Criterion 05's bool ``(x,x)/(x,x)`` search: 48 bottoms and 183 combs
        over 9 context blocks; the lower half runs once per bottom and block,
        the upper half (read through ``block_key``) once per comb and block,
        and no ``plug_upper`` runs."""
        backend, boundaries = MatrixBackend({"x": 2}, semiring="bool"), [(word("x"),) * 4]
        calls = {"plug_lower": 0, "block_key": 0, "plug_upper": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for name in calls:
            monkeypatch.setattr(backend, name, counting(name, getattr(backend, name)))
        assert sigma_congruence_search(backend, boundaries, 2, 200) is None
        assert calls == {"plug_lower": 432, "block_key": 1647, "plug_upper": 0}


def _dense_pieces(backend, rng, fill, n, count=6, words=(word(), word("x"), word("y"))):
    """``count`` n-hole pieces: hole, environment and outer words drawn from
    ``words``, segments from ``fill``."""
    def draw():
        return words[rng.integers(len(words))]

    pieces = []
    for _ in range(count):
        holes = [(draw(), draw()) for _ in range(n)]
        envs = [draw() for _ in range(n)]
        b, b1 = draw(), draw()
        ends = [b] + [e @ a1 for e, (_, a1) in zip(envs, holes)]
        starts = [e @ a for e, (a, _) in zip(envs, holes)] + [b1]
        segments = [fill(backend, rng, d, c) for d, c in zip(ends, starts)]
        pieces.append(poly(backend, holes, [(b, b1)], envs, segments))
    return pieces


def _unitary_pieces(backend, rng, n):
    """n-hole pieces over ``UnitaryBackend({"q": 2})`` whose segments all run
    ``q*q -> q*q``: holes ``(q, q)``, environments ``q``, outer words ``q*q``."""
    q = word("q")
    return [poly(backend, [(q, q)] * n, [(q @ q, q @ q)], [q] * n,
                 [_unitary_mat(backend, rng, q @ q, q @ q) for _ in range(n + 1)])
            for _ in range(3)]


def _name_pieces(name, n):
    """The backend of a ``KERNEL_BACKENDS`` entry (or ``unitary``) and random
    n-hole pieces over it."""
    rng = np.random.default_rng(20261023 + n)
    if name == "unitary":
        backend = UnitaryBackend({"q": 2})
        return backend, _unitary_pieces(backend, rng, n)
    make, obj = KERNEL_BACKENDS[name]
    backend = make()
    if backend.enumerable:
        return backend, random_pieces(backend, word(obj), n, rng, 6)
    return backend, _dense_pieces(backend, rng, KERNEL_FILLS.get(name, rand_mat), n)


def _sibling(backend, p, rng, fill):
    """A piece of ``p``'s shape with every segment drawn afresh."""
    def draw(seg):
        dom, cod = backend.dom(seg), backend.cod(seg)
        if not backend.enumerable:
            return fill(backend, rng, dom, cod)
        items = backend.enumerate_hom(dom, cod, 16).items
        return items[rng.integers(len(items))]
    return poly(backend, p.holes, p.outers, p.envs, [draw(seg) for seg in p.segments])


MATRIX_NAMES = ["bool", "complex", "rational", "rational-2**40", "unitary"]


class TestNameKernel:
    """``Backend.bend`` builds a chain's name; the matrix kernel contracts
    each segment's environment leg, the default composes symmetries and
    segments beside identities."""

    @pytest.mark.parametrize("name", MATRIX_NAMES)
    def test_matrix_kernel_matches_the_default(self, name):
        for n in (0, 1, 2, 3):
            backend, pieces = _name_pieces(name, n)
            assert pieces and all(len(p.holes) == n for p in pieces)
            for p in pieces:
                got, want = backend.bend(*p.chain()), Backend.bend(backend, *p.chain())
                assert (got.dom, got.cod) == (want.dom, want.cod)
                assert got.array.shape == want.array.shape
                if backend.semiring == "complex":
                    assert backend.equal(got, want)
                else:
                    assert np.array_equal(got.array, want.array)
                if name.startswith("rational"):
                    assert all(type(x) is Fraction for x in got.array.flat)

    def test_bool_object_of_dimension_zero(self):
        """A zero-dimensional object as hole word, environment and outer word."""
        backend = MatrixBackend({"b": 2, "z": 0}, semiring="bool")
        b, z = word("b"), word("z")
        rng = np.random.default_rng(20261024)

        def fill(backend, rng, d, c):
            return backend.mat(d, c, rng.integers(0, 2, (backend.dim(c), backend.dim(d))))

        zeros = 0
        for n in (1, 2, 3):
            for p in _dense_pieces(backend, rng, fill, n, 12, (word(), b, z, b @ z)):
                got, want = backend.bend(*p.chain()), Backend.bend(backend, *p.chain())
                assert (got.dom, got.cod) == (want.dom, want.cod)
                assert np.array_equal(got.array, want.array)
                zeros += 0 in got.array.shape or 0 in map(backend.dim, p.envs)
        assert zeros > 5

    def test_bool_paths_are_thresholded_once(self):
        """Several environment states link the same legs; the name is the
        support of the path counts, as the composition's is."""
        backend = MatrixBackend({"b": 2}, semiring="bool")
        b, i = word("b"), word()
        f = backend.mat(b, b @ b, np.ones((4, 2)))
        g = backend.mat(b @ b, b, np.ones((2, 4)))
        chain = ((b, b),), (b,), (f, g)
        got, want = backend.bend(*chain), Backend.bend(backend, *chain)
        assert np.array_equal(got.array, want.array) and got.array.max() == 1
        assert backend.bend((), (), (backend.identity(i),)).array.tolist() == [[1]]

    @pytest.mark.parametrize("name", MATRIX_NAMES + ["finfun", "pointed"])
    def test_mistyped_chain_raises_as_the_default_does(self, name):
        backend, pieces = _name_pieces(name, 2)
        mistyped = 0
        for p in pieces:
            holes, envs, segments = p.chain()
            for k in range(3):
                # segment k taken from the other end of the chain; the chain's
                # ends take any outer word, so only the inner legs must differ
                bad = list(segments)
                bad[k] = segments[2 - k]
                if (k == 0 or backend.dom(bad[k]) == backend.dom(segments[k])) and \
                        (k == 2 or backend.cod(bad[k]) == backend.cod(segments[k])):
                    continue
                mistyped += 1
                for bend in (backend.bend, functools.partial(Backend.bend, backend)):
                    with pytest.raises(TypeMismatch):
                        bend(holes, envs, bad)
            (a, a1), o = holes[0], word(backend.object_names()[0])
            for bend in (backend.bend, functools.partial(Backend.bend, backend)):
                with pytest.raises(TypeMismatch):  # the holes of another shape
                    bend(((a @ o, a1),) + holes[1:], envs, segments)
        assert mistyped > 0 or name == "unitary"  # whose segments share one type

    @pytest.mark.parametrize("name", ["bool", "complex", "rational", "unitary"])
    def test_matrix_name_makes_no_primitive_call(self, name):
        for n in (0, 1, 3):
            backend, pieces = _name_pieces(name, n)
            calls = _recording(backend)
            for p in pieces:
                backend.bend(*p.chain())
            assert calls == []

    @pytest.mark.parametrize("name", ["finfun", "pointed"])
    def test_default_kernel_keeps_the_call_sequence(self, name):
        """One identity and one tensor, then per hole the symmetry beside the
        environment and the segment beside an identity, each composed on."""
        for n in (0, 1, 2):
            backend, pieces = _name_pieces(name, n)
            assert pieces
            for p in pieces:
                calls = _recording(backend)
                backend.bend(*p.chain())
                per_hole = ["identity", "symmetry", "tensor", "compose",
                            "identity", "tensor", "compose"]
                assert [op for op, _, _ in calls] == ["identity", "tensor"] + per_hole * n
                assert calls[1][1][0] is p.segments[0]
                for i in range(n):
                    assert calls[2 + 7 * i + 5][1][0] is p.segments[i + 1]

    @pytest.mark.parametrize("name", sorted(KERNEL_BACKENDS) + ["unitary"])
    def test_name_refutation_agrees_with_plugging(self, name):
        """The name routes' comparison is reflexive and symmetric, and every
        witness it gives separates the two pieces when plugged in."""
        rng = np.random.default_rng(20261025)
        distinct = 0
        for n in (0, 1, 2, 3):
            backend, pieces = _name_pieces(name, n)
            for p in pieces:
                q = _sibling(backend, p, rng, KERNEL_FILLS.get(name, rand_mat))
                assert braid_refutation(backend, p, p) is None
                assert braid_refutation(backend, q, q) is None
                there, back = braid_refutation(backend, p, q), braid_refutation(backend, q, p)
                assert (there is None) == (back is None)
                for x, y, witness in ((p, q, there), (q, p, back)):
                    if witness is not None:
                        distinct += 1
                        assert check_probe_witness(backend, x, y, witness)
        assert distinct > 0


class TestCongruenceSearch:
    def test_absorbing_witness_and_cut_match_reference(self):
        backend, boundaries = SEARCHES[-1]
        expected, pairs = reference_search(backend, boundaries, 2, 200)
        assert expected is not None
        for max_pairs in (pairs - 1, pairs, 200):
            found = sigma_congruence_search(backend, boundaries, 2, max_pairs)
            assert _same_witness(found, expected if max_pairs >= pairs else None)

    def test_bool_small_cut_matches_reference(self):
        backend, boundaries = SEARCHES[2]
        expected, _ = reference_search(backend, boundaries, 2, 20)
        found = sigma_congruence_search(backend, boundaries, 2, 20)
        assert _same_witness(found, expected)

    @pytest.mark.parametrize("name", sorted(NAME_BACKENDS))
    def test_names_are_bend_split_at_the_hole(self, name, monkeypatch):
        """The search names a comb by one ``compose`` of its bottom's half and
        its top's (:func:`_namer`), and that is :meth:`Backend.bend`; also on
        the hole ``(oo, o)``, where a swap written the wrong way round types
        or differs.  Each half is built once: two tensors per bottom, one per
        top."""
        make, obj = NAME_BACKENDS[name]
        backend, o = make(), word(obj)
        for a, a1, b, b1 in [(o, o, o, o), (o @ o, o, o @ o, o)]:
            combs = list(enumerate_combs(backend, (a, a1), (b, b1), 2))
            namer, bottoms, tops = _namer(backend, b, b1), set(), set()
            for c in combs:
                assert backend.equal(namer(c), backend.bend(*c.chain()))
                bottoms.add(id(c.f))
                tops.add(id(c.g))
            namer, tensors = _namer(backend, b, b1), []

            def counted(*args, tensor=backend.tensor):
                tensors.append(args)
                return tensor(*args)

            with monkeypatch.context() as m:
                m.setattr(backend, "tensor", counted)
                for c in combs:
                    namer(c)
            assert len(combs) > 1 and len(tensors) == 2 * len(bottoms) + len(tops)

    def test_reached_combs_are_unchanged(self):
        """Per boundary of criterion 05's list: the combs, their braid classes,
        and the combs that the pairs up to the 200th reach, in order; the
        classes are ordered by the text of their keys, so a key that prints
        otherwise moves the cut."""
        counts = []
        for backend, boundaries in SEARCHES:
            for a, a1, b, b1 in boundaries:
                combs = list(enumerate_combs(backend, (a, a1), (b, b1), 2))
                classes = {backend.canonical_key(braid_eval(backend, c)) for c in combs}
                reached = _reached(backend, (a, a1), (b, b1), 2, max_pairs=200)
                text = repr([(c.env, backend.canonical_key(c.f), backend.canonical_key(c.g))
                             for c in reached])
                counts.append((len(combs), len(classes), len(reached),
                               hashlib.sha256(text.encode()).hexdigest()[:12]))
        assert counts == [
            (4, 2, 3, "7040bc0c017c"),
            (14, 2, 14, "243bc04fc551"), (121, 11, 51, "b842482f42b2"),
            (768, 226, 183, "2ebdc18fb223"), (528, 16, 105, "dfe073a12b9a"),
            (528, 64, 24, "cb9f43678ff9"),
            (14, 3, 14, "b66f76d8dc43"), (71, 15, 66, "7ece8e521a84"),
        ]


def _reached(backend, source, target, bound, max_pairs=None):
    """The combs on a boundary in the order the search's pairs reach them,
    up to its ``max_pairs`` cut when one is given."""
    groups = {}
    for c in enumerate_combs(backend, source, target, bound):
        groups.setdefault(backend.canonical_key(braid_eval(backend, c)), []).append(c)
    order = {}
    pairs = itertools.chain.from_iterable(
        itertools.combinations(members, 2)
        for _, members in sorted(groups.items(), key=lambda kv: repr(kv[0]))
    )
    for pair in itertools.islice(pairs, max_pairs):
        for c in pair:
            order.setdefault(id(c), c)
    return list(order.values())


def _check_block_contract(backend, walk, combs):
    """Block fingerprints over ``walk`` against per-probe streams, interned
    per probe: one key per context block; two combs get equal fingerprints
    exactly when their per-probe keys are equal, and where they differ, the
    first differing block holds the first differing probe.  Returns the
    number of differing pairs."""
    blocks = _blocks(walk)
    fingerprint = _fingerprinter(backend, blocks)
    starts = [0, *itertools.accumulate(len(fillers) for fillers, _ in blocks)]
    interned = [{} for _ in walk]
    per_probe, prints = [], []
    for c in combs:
        values = plug_chain(backend, *c.chain(), _one_by_one(walk))
        keys = [backend.canonical_key(v) for v in values]
        per_probe.append(tuple(t.setdefault(k, len(t)) for t, k in zip(interned, keys)))
        prints.append(fingerprint(c))
        assert len(prints[-1]) == len(starts) - 1
    differ = 0
    for (k1, p1), (k2, p2) in itertools.combinations(zip(per_probe, prints), 2):
        assert (p1 == p2) == (k1 == k2)
        if p1 != p2:
            differ += 1
            block = next(i for i, (x, y) in enumerate(zip(p1, p2)) if x != y)
            probe = next(i for i, (x, y) in enumerate(zip(k1, k2)) if x != y)
            assert starts[block] <= probe < starts[block + 1]
    return differ


class TestBlockFingerprints:
    def test_bool_fingerprints_match_per_probe_keys(self):
        """Criterion 05's bool entry: block fingerprints against the keys of
        per-probe streams (:func:`_check_block_contract`); also on a walk
        whose first contexts come back after the others.

        The first 60 combs reached share one braid class, so every probe
        interns them alike; one comb of each class follows them, so that
        values moved to another probe index would show."""
        backend, boundaries = SEARCHES[2]
        a, a1, b, b1 = boundaries[0]
        reached = _reached(backend, (a, a1), (b, b1), 2)
        classes = {}
        for c in reached:
            classes.setdefault(backend.canonical_key(braid_eval(backend, c)), c)
        combs = reached[:60] + list(classes.values())
        assert len(classes) == 46
        probes = _probes(backend, b, b1)
        assert len(probes) == 144
        for walk in (probes, probes + probes[:40]):
            assert _check_block_contract(backend, walk, combs) == 3735


class TestSharedSearchWork:
    """The congruence search builds each stretch once per segment and checks
    each filler once, for all the combs of a boundary."""

    def test_stretches_follow_the_segments_not_the_combs(self, monkeypatch):
        """Criterion 05's bool ``(x,x)/(x,x)`` search: a stretch costs one
        tensor per context word that is not the unit (the segment beside the
        waiting context legs), and one more where the environment is not the
        unit either (the swap that routes a context leg or parks a filler
        output), once per bottom and context word and once per top and context
        word.  The names cost two tensors per bottom and one per top, and no
        ``bend``.  Tensors inside the kernel halves are not stretches."""
        backend, boundaries = MatrixBackend({"x": 2}, semiring="bool"), [(word("x"),) * 4]
        a, a1, b, b1 = boundaries[0]
        reached = _reached(backend, (a, a1), (b, b1), 2, max_pairs=200)
        bottoms = {(c.env, backend.canonical_key(c.f)) for c in reached}
        tops = {(c.env, backend.canonical_key(c.g)) for c in reached}
        words = backend.enumerate_objects(Budget.of(2).max_word_len)
        assert (len(reached), len(bottoms), len(tops), len(words)) == (183, 48, 48, 3)
        combs = list(enumerate_combs(backend, (a, a1), (b, b1), 2))
        assert {(c.env, backend.canonical_key(c.f)) for c in combs} == bottoms
        assert {(c.env, backend.canonical_key(c.g)) for c in combs} == tops
        stretches = sum(bool(w) * (1 + bool(e))
                        for pieces in (bottoms, tops) for e, _ in pieces for w in words)

        tensors, inside, bends = [0], [0], []

        def counting(fn, tally):
            def wrapped(*args):
                tensors[0] += tally and not inside[0]
                inside[0] += not tally
                try:
                    return fn(*args)
                finally:
                    inside[0] -= not tally
            return wrapped

        monkeypatch.setattr(backend, "tensor", counting(backend.tensor, True))
        for half in ("plug_lower", "block_key"):  # the search's two kernel halves
            monkeypatch.setattr(backend, half, counting(getattr(backend, half), False))
        monkeypatch.setattr(backend, "bend", lambda *args: bends.append(args))
        assert sigma_congruence_search(backend, boundaries, 2, 200) is None
        assert bends == []
        assert (stretches, tensors[0]) == (320, stretches + 2 * len(bottoms) + len(tops))
        assert tensors[0] * 3 < 2 * 2 * len(words) * len(reached)  # per comb

    def test_a_shared_table_tells_the_splits_apart(self):
        """One bottom and one top make a comb with environment x and hole
        (x, x), and one with no environment and hole (xx, xx); at the same
        contexts their stretches share a segment and context words, and one
        table must still keep them apart."""
        backend = MatrixBackend({"x": 2}, semiring="bool")
        x = word("x")
        rng = np.random.default_rng(20261022)
        f, g = rand_mat(backend, rng, x, x @ x), rand_mat(backend, rng, x @ x, x)
        chains = [comb(backend, f, g, env=x).chain(), comb(backend, f, g, env=word()).chain()]
        assert chains[0][2] == chains[1][2] and chains[0][1] != chains[1][1]
        built = {}
        for holes, envs, segments in chains:
            ((a, a1),) = holes
            fillers = backend.enumerate_hom(x @ a, x @ a1, 8).items
            blocks = [([(lam,) for lam in fillers], ((x, x),))]
            shared = _plug_blocks(backend, holes, envs, segments, blocks, built)
            fresh = _plug_blocks(backend, holes, envs, segments, blocks)
            for v, u in zip(next(shared), next(fresh), strict=True):
                assert backend.equal(v, u)
        assert len(built) == 4

    @pytest.mark.parametrize("entry", range(len(SEARCHES)))
    def test_search_matches_reference(self, entry):
        backend, boundaries = SEARCHES[entry]
        expected, _ = reference_search(backend, boundaries, 2, 30)
        assert _same_witness(sigma_congruence_search(backend, boundaries, 2, 30), expected)

    @pytest.mark.parametrize("name", ["finfun", "pointed"])
    def test_fingerprints_match_per_probe_keys(self, name):
        """One fingerprinter over the combs of a boundary, against per-probe
        streams (:func:`_check_block_contract`): combs that share a bottom or
        a top share its stretches and its lower halves."""
        backend, o = NAME_BACKENDS[name][0](), word(NAME_BACKENDS[name][1])
        reached = _reached(backend, (o, o), (o, o), 2, max_pairs=200)
        assert len({(c.env, backend.canonical_key(c.f)) for c in reached}) < len(reached)
        probes = _probes(backend, o, o)
        for walk in (probes, probes + probes[:40]):
            # braid values settle filler agreement on finfun: its combs all agree
            assert bool(_check_block_contract(backend, walk, reached)) == (name == "pointed")

    @pytest.mark.parametrize("name", ["bool", "finfun"])
    def test_a_mistyped_filler_is_refused(self, name, monkeypatch):
        """The fingerprinter checks every filler on its first comb, and a
        stream checks each block as it comes: it yields every value of the
        blocks before the bad probe's, and refuses that block before it plugs
        any of it."""
        make, obj = NAME_BACKENDS[name]
        backend, o = make(), word(obj)
        c = next(enumerate_combs(backend, (o, o), (o, o), 2))
        probes = _probes(backend, o, o)
        k = len(probes) - 7
        (lam,), contexts = probes[k]
        bad = [((backend.identity(o @ o),), contexts)]
        assert (backend.dom(lam), backend.cod(lam)) != (o @ o, o @ o)
        with pytest.raises(TypeMismatch, match="filler 0 must"):
            _fingerprinter(backend, _blocks(probes[:k] + bad + probes[k + 1:]))(c)
        blocks = _blocks(probes[:k] + bad)
        start = sum(len(fillers) for fillers, _ in blocks[:-1])
        assert len(blocks) > 1 and start < k  # the bad probe's block holds good probes too
        plugged, plug_lower = [], backend.plug_lower

        def counted(before, beside, fillers):
            plugged.append(len(fillers))
            return plug_lower(before, beside, fillers)

        monkeypatch.setattr(backend, "plug_lower", counted)
        stream = plug_chain(backend, *c.chain(), blocks)
        assert len(list(itertools.islice(stream, start))) == start
        with pytest.raises(TypeMismatch, match="filler 0 must"):
            next(stream)
        assert plugged == [len(fillers) for fillers, _ in blocks[:-1]]
