"""The route tables of equiv_comb / equiv_optic and the shared braid refuter."""
from functools import partial

import numpy as np
import pytest

from opticomb import (
    AbsorbingPointedBackend,
    BoundaryMismatch,
    FinFunBackend,
    IdempotentFreeBackend,
    IncompatibleStrategy,
    Mat,
    MatrixBackend,
    ObjectWord,
    PointedFreeBackend,
    ProbeWitness,
    UnitaryBackend,
    Verdict,
    check_probe_witness,
    comb,
    cpinf_equiv,
    cpm_equiv,
    equiv_comb,
    equiv_optic,
    equiv_sigma,
    equiv_tau,
    identity_comb,
    poly,
    poly_equiv,
)
from opticomb.comb import COMB, NAME_NOTE, braid_refutation, plug_chain
from opticomb.optic import OPTIC
from opticomb.program import witness_json

from conftest import random_pieces, word

# backend, hole object, and the methods auto picks for (comb, optic); they pin
# the order of the route tables
AUTO_METHODS = {
    "bool": (lambda: MatrixBackend({"b": 2}, semiring="bool"), "b",
             "braid-value", "name-form"),
    "rational": (lambda: MatrixBackend({"x": 2}, semiring="rational"), "x",
                 "braid-value", "name-form"),
    "complex": (lambda: MatrixBackend({"x": 2}, semiring="complex", tolerance=1e-9),
                "x", "braid-value", "name-form"),
    "finfun": (lambda: FinFunBackend({"s": 2}), "s",
               "braid-value", "lens-components"),
    "idempotent": (IdempotentFreeBackend, "a", "braid-value", "slide-search"),
    "pointed": (PointedFreeBackend, "a", "braid-value", "slide-search"),
    "absorbing-pointed": (AbsorbingPointedBackend, "a",
                          "enumerated-probes", "slide-search"),
    "unitary": (lambda: UnitaryBackend({"q": 2}), "q",
                "braid-value", "unitary-factorization"),
}


@pytest.mark.parametrize("name", sorted(AUTO_METHODS))
def test_auto_picks_the_same_route(name):
    make, obj, comb_method, optic_method = AUTO_METHODS[name]
    backend = make()
    c = identity_comb(backend, word(obj), word(obj))
    assert equiv_comb(backend, c, c).method == comb_method
    assert equiv_optic(backend, c, c).method == optic_method


def applicable_deciders(backend):
    """The public deciders that accept a comb pair on ``backend``."""
    deciders = [equiv_sigma, equiv_comb, equiv_optic]
    if not backend.unitary_values:
        deciders.append(equiv_tau)
    deciders.append(poly_equiv)
    if backend.unitary_values:
        deciders.append(partial(equiv_optic, strategy="unitary-factor"))
    if getattr(backend, "semiring", None) == "complex":
        deciders += [cpm_equiv, cpinf_equiv]
    return deciders


@pytest.mark.parametrize("name", sorted(AUTO_METHODS))
def test_decisions_report_the_backend_tolerance(name):
    make, obj, _, _ = AUTO_METHODS[name]
    backend = make()
    c = identity_comb(backend, word(obj), word(obj))
    # the configured tolerance, and zero as `--tolerance 0` sets it
    for tolerance in (backend.tolerance, 0.0):
        backend.tolerance = tolerance
        for decide in applicable_deciders(backend):
            assert decide(backend, c, c).tolerance == tolerance


@pytest.mark.parametrize("name", sorted(AUTO_METHODS))
def test_one_hole_poly_equiv_is_equiv_comb(name):
    """A one-hole, one-outer pair gets ``equiv_comb``'s answer from ``poly_equiv``."""
    make, obj, _, _ = AUTO_METHODS[name]
    backend = make()
    o = word(obj)
    oo = o @ o
    ident = identity_comb(backend, o, o)
    # the swap sends the other wire through the hole
    pairs = [
        (ident, ident),
        (comb(backend, backend.identity(oo), backend.identity(oo), o),
         comb(backend, backend.symmetry(o, o), backend.identity(oo), o)),
    ]
    if "f" in backend.generator_names():
        f = backend.generator("f")
        pairs.append((comb(backend, f, backend.identity(o), word()),
                      comb(backend, backend.identity(o), f, word())))
    for c1, c2 in pairs:
        d = equiv_comb(backend, c1, c2)
        p = poly_equiv(backend, c1, c2)
        assert (p.verdict, p.certified, p.method) == (d.verdict, d.certified, d.method)


def test_strategies_come_from_the_tables():
    assert COMB.strategies == ("auto", "braid", "lens", "enumerate")
    assert OPTIC.strategies == ("auto",) + tuple(r.name for r in OPTIC.routes)
    assert set(OPTIC.strategies) == {
        "auto", "name-form", "lens", "unitary-factor", "zigzag"
    }
    assert [r.name for r in COMB.routes] == list(COMB.strategies[1:])


def test_unknown_strategy_rejected(pointed):
    c = identity_comb(pointed, word("a"), word("a"))
    with pytest.raises(IncompatibleStrategy, match="unknown strategy"):
        equiv_comb(pointed, c, c, strategy="zigzag")
    with pytest.raises(IncompatibleStrategy, match="unknown strategy"):
        equiv_optic(pointed, c, c, strategy="braid")


def state_combs(backend):
    """``(psi, bang)`` and ``(phi, bang)``, both with environment I."""
    bang = backend.generator("bang")
    return (comb(backend, backend.generator("psi"), bang, word()),
            comb(backend, backend.generator("phi"), bang, word()))


class TestOpticAutoBraidPrecheck:
    def test_pointed_refuted_by_braid_value(self, pointed):
        c1, c2 = state_combs(pointed)
        d = equiv_optic(pointed, c1, c2)
        assert d.verdict is Verdict.DISTINCT and d.certified
        assert d.method == "braid-value"
        assert isinstance(d.witness, ProbeWitness)
        assert check_probe_witness(pointed, c1, c2, d.witness)
        # the same witness as equiv_sigma's
        assert d.witness == equiv_sigma(pointed, c1, c2).witness

    def test_explicit_zigzag_stays_a_slide_search(self, pointed):
        c1, c2 = state_combs(pointed)
        d = equiv_optic(pointed, c1, c2, strategy="zigzag", bound=1)
        assert d.verdict is Verdict.UNKNOWN
        assert d.method == "slide-search"

    def test_absorbing_braid_values_agree(self):
        ab = AbsorbingPointedBackend()
        c1, c2 = state_combs(ab)
        assert braid_refutation(ab, c1, c2) is None
        # auto falls back on a trivial-context filler, which separates the pair
        d = equiv_optic(ab, c1, c2, bound=1)
        assert d.verdict is Verdict.DISTINCT and d.certified
        assert d.method == "trivial-context-probes"
        assert check_probe_witness(ab, c1, c2, d.witness)
        searched = equiv_optic(ab, c1, c2, strategy="zigzag", bound=1)
        assert searched.verdict is Verdict.UNKNOWN
        assert searched.method == "slide-search"
        # the swap filler does not separate the pair, the identity filler does
        (b, b1) = c1.target
        probe, cw, dw = ab.symmetry(b1, b), b1, b
        swap = ProbeWitness(cw, dw, probe, left=None, right=None)
        assert not check_probe_witness(ab, c1, c2, swap)
        separated = equiv_comb(ab, c1, c2)
        assert separated.verdict is Verdict.DISTINCT
        assert check_probe_witness(ab, c1, c2, separated.witness)


def test_one_refuter_behind_sigma_comb_and_name_form():
    bb = MatrixBackend({"b": 2}, semiring="bool")
    b = word("b")
    reset = Mat(b, b, np.array([[1, 1], [0, 0]]))
    c1 = identity_comb(bb, b, b)
    c2 = comb(bb, reset, bb.identity(b), word())
    witness = braid_refutation(bb, c1, c2)
    assert witness is not None and check_probe_witness(bb, c1, c2, witness)
    assert witness_json(equiv_sigma(bb, c1, c2).witness) == witness_json(witness)
    assert witness_json(equiv_optic(bb, c1, c2).witness) == witness_json(witness)
    by_braid = equiv_comb(bb, c1, c2, strategy="braid")
    assert by_braid.verdict is Verdict.DISTINCT and by_braid.method == "braid-value"
    # the comb route reports the same witness, with the one note
    assert witness_json(by_braid.witness) == witness_json(witness)
    assert by_braid.witness.note == NAME_NOTE
    assert braid_refutation(bb, c1, c1) is None


def plugged(backend, x, witness):
    """The :func:`plug_chain` value of ``x`` on a probe witness's probe."""
    if isinstance(witness.c_word, ObjectWord):
        fillers, contexts = (witness.probe,), ((witness.c_word, witness.d_word),)
    else:
        fillers, contexts = witness.probe, tuple(zip(witness.c_word, witness.d_word))
    return next(plug_chain(backend, *x.chain(), [([fillers], contexts)]))


def name_separated_pieces(backend, n):
    """Two n-hole pieces of one shape with differing names: a random piece, and
    the same piece with one segment replaced by another of its hom-set."""
    rng = np.random.default_rng(20261019)
    for p in random_pieces(backend, word(backend.object_names()[0]), n, rng, 8):
        for k, seg in enumerate(p.segments):
            for alt in backend.enumerate_hom(backend.dom(seg), backend.cod(seg), 4).items:
                segments = p.segments[:k] + (alt,) + p.segments[k + 1:]
                q = poly(backend, p.holes, p.outers, p.envs, segments)
                if braid_refutation(backend, p, q) is not None:
                    return p, q
    raise AssertionError(f"no {n}-hole pair with differing names")


def name_cases(name):
    """``(backend, x, y, deciders)``: a pair with differing names, and every
    decider that reaches a name comparison on it."""
    if name == "bool":
        bb = MatrixBackend({"b": 2}, semiring="bool")
        b = word("b")
        reset = Mat(b, b, np.array([[1, 1], [0, 0]]))
        return (bb, identity_comb(bb, b, b), comb(bb, reset, bb.identity(b), word()),
                [equiv_sigma, partial(equiv_comb, strategy="braid"),
                 partial(equiv_optic, strategy="name-form")])
    if name == "finfun":
        ff = FinFunBackend({"s": 2})
        s = word("s")
        constant = ff.fun(s, s, (0, 0))
        return (ff, identity_comb(ff, s, s), comb(ff, constant, ff.identity(s), word()),
                [equiv_sigma, partial(equiv_comb, strategy="braid"),
                 partial(equiv_comb, strategy="lens")])
    if name == "pointed":
        # optic auto: the braid-value screen of the slide search
        pt = PointedFreeBackend()
        return (pt, *state_combs(pt), [equiv_sigma, partial(equiv_comb, strategy="braid"),
                                        equiv_optic])
    n, make = {"poly-0": (0, PointedFreeBackend), "poly-2": (2, PointedFreeBackend),
               "poly-3": (3, lambda: MatrixBackend({"b": 2}, semiring="bool"))}[name]
    backend = make()
    return (backend, *name_separated_pieces(backend, n), [poly_equiv])


@pytest.mark.parametrize("name", ["bool", "finfun", "pointed", "poly-0", "poly-2", "poly-3"])
def test_name_witness_contract(name):
    """Every route that compares names reports one witness: the swap filler in
    every hole, whose ``left`` and ``right`` are the two plugged values."""
    backend, x, y, deciders = name_cases(name)
    witnesses = []
    for decide in deciders:
        d = decide(backend, x, y)
        assert d.verdict is Verdict.DISTINCT and d.certified
        w = d.witness
        assert isinstance(w, ProbeWitness) and w.note == NAME_NOTE
        assert check_probe_witness(backend, x, y, w)
        assert backend.equal(w.left, plugged(backend, x, w))
        assert backend.equal(w.right, plugged(backend, y, w))
        witnesses.append(witness_json(w))
    assert witnesses == witnesses[:1] * len(deciders)
    if name.startswith("poly"):
        assert len(w.probe) == len(x.holes)


class TestUnitaryFactorOperands:
    """The optic table's ``unitary-factor`` route refuses operands as
    ``equiv_optic`` does."""

    def test_different_boundaries(self):
        ub = UnitaryBackend({"q": 2})
        q = word("q")
        with pytest.raises(BoundaryMismatch, match="different boundaries"):
            equiv_optic(ub, identity_comb(ub, q, q), identity_comb(ub, q @ q, q @ q),
                        strategy="unitary-factor")

    def test_non_unitary_backend(self, pointed):
        c = identity_comb(pointed, word("a"), word("a"))
        with pytest.raises(IncompatibleStrategy,
                           match="factorization needs a unitary backend, not free-pointed"):
            equiv_optic(pointed, c, c, strategy="unitary-factor")


def test_negative_bound_refused_by_every_decider(pointed):
    """One check, before any route is picked, for every decider with a bound."""
    c = identity_comb(pointed, word("a"), word("a"))
    calls = [lambda: equiv_tau(pointed, c, c, bound=-1),
             lambda: poly_equiv(pointed, c, c, bound=-1)]
    calls += [lambda s=s: equiv_comb(pointed, c, c, strategy=s, bound=-1)
              for s in COMB.strategies]
    calls += [lambda s=s: equiv_optic(pointed, c, c, strategy=s, bound=-1)
              for s in OPTIC.strategies]
    for call in calls:
        with pytest.raises(ValueError, match="bound must be >= 0"):
            call()
