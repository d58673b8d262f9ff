"""Law-level checks with randomized inputs.

Backends are built once at module scope; hypothesis draws entries and
indices only, so examples stay cheap and reproducible.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from opticomb import (
    Mat,
    MatrixBackend,
    IdempotentFreeBackend,
    ObjectWord,
    Verdict,
    braid_eval,
    comb,
    comb_compose,
    dagger_comb,
    enumerate_combs,
    equiv_comb,
    equiv_optic,
    equiv_sigma,
    equiv_tau,
    extended_eval,
    slide_related,
    to_cpm,
)

CBE = MatrixBackend({"x": 2, "y": 3}, semiring="complex", tolerance=1e-9)
BBE = MatrixBackend({"b": 2}, semiring="bool")
IDEM = IdempotentFreeBackend()

X, Y = ObjectWord.of("x"), ObjectWord.of("y")
UNIT = ObjectWord.unit()

BOOL_COMBS = list(enumerate_combs(BBE, (ObjectWord.of("b"),) * 2,
                                  (ObjectWord.of("b"),) * 2, bound=1))
IDEM_COMBS = list(enumerate_combs(IDEM, (ObjectWord.of("a"),) * 2,
                                  (ObjectWord.of("a"),) * 2, bound=1))


def mat_strategy(dom, cod):
    """Integer-entry complex matrices with the given boundary."""
    rows, cols = CBE.dim(cod), CBE.dim(dom)
    entry = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda p: complex(p[0], p[1])
    )
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda e: Mat(dom, cod, np.array(e, dtype=complex)))


class TestMonoidalLaws:
    @settings(max_examples=25, deadline=None)
    @given(
        f1=mat_strategy(X, Y), g1=mat_strategy(Y, X),
        f2=mat_strategy(Y, X), g2=mat_strategy(X, Y),
    )
    def test_interchange(self, f1, g1, f2, g2):
        lhs = CBE.tensor(CBE.compose(f1, g1), CBE.compose(f2, g2))
        rhs = CBE.compose(CBE.tensor(f1, f2), CBE.tensor(g1, g2))
        assert CBE.equal(lhs, rhs)

    @settings(max_examples=25, deadline=None)
    @given(f=mat_strategy(X, Y), g=mat_strategy(Y, X))
    def test_symmetry_naturality(self, f, g):
        lhs = CBE.compose(CBE.tensor(f, g), CBE.symmetry(Y, X))
        rhs = CBE.compose(CBE.symmetry(X, Y), CBE.tensor(g, f))
        assert CBE.equal(lhs, rhs)


class TestCombLaws:
    @settings(max_examples=20, deadline=None)
    @given(
        hf=mat_strategy(X, X @ Y), hg=mat_strategy(X @ X, Y),
        nf=mat_strategy(Y, Y @ X), ng=mat_strategy(Y @ Y, X),
        lam=mat_strategy(Y @ X, X @ Y),
    )
    def test_nesting_respects_evaluation(self, hf, hg, nf, ng, lam):
        host = comb(CBE, hf, hg, env=X)
        nested = comb(CBE, nf, ng, env=Y)
        both = comb_compose(CBE, host, nested)
        lhs = extended_eval(CBE, both, lam, Y, X)
        rhs = extended_eval(CBE, host, extended_eval(CBE, nested, lam, Y, X), Y, X)
        assert CBE.equal(lhs, rhs)

    @settings(max_examples=20, deadline=None)
    @given(f=mat_strategy(X, X @ Y), g=mat_strategy(X @ X, Y))
    def test_swap_probe_recovers_braid(self, f, g):
        c = comb(CBE, f, g, env=X)
        (a, a1), (b, b1) = c.source, c.target
        probe, cw, dw = CBE.symmetry(b1, b), b1, b
        swapped = extended_eval(CBE, c, probe, cw, dw)
        rebuilt = CBE.compose(
            CBE.compose(CBE.symmetry(b1, a), braid_eval(CBE, c)),
            CBE.symmetry(a1, b),
        )
        assert CBE.equal(swapped, rebuilt)

    @settings(max_examples=20, deadline=None)
    @given(
        f=mat_strategy(X, X @ Y), v=mat_strategy(X, Y),
        g=mat_strategy(Y @ X, Y), lam=mat_strategy(Y, X),
    )
    def test_sliding_preserves_filler_values(self, f, v, g, lam):
        lower, upper = slide_related(CBE, f, v, g)
        v1 = extended_eval(CBE, lower, lam, UNIT, UNIT)
        v2 = extended_eval(CBE, upper, lam, UNIT, UNIT)
        assert CBE.equal(v1, v2)


class TestChannelLaws:
    @settings(max_examples=20, deadline=None)
    @given(f1=mat_strategy(X, X @ X), f2=mat_strategy(X, X))
    def test_transfer_functoriality(self, f1, f2):
        c1 = dagger_comb(CBE, f1, env=X)
        c2 = dagger_comb(CBE, f2, env=UNIT)
        both = comb_compose(CBE, c1, c2)
        t = to_cpm(CBE, both).transfer
        t1 = to_cpm(CBE, c1).transfer
        t2 = to_cpm(CBE, c2).transfer
        assert np.allclose(t, t2 @ t1)


class TestVerdictHierarchy:
    """The three relations nest: slides refine fillers refine braid values."""

    @settings(max_examples=40, deadline=None)
    @given(
        i=st.integers(0, len(BOOL_COMBS) - 1),
        j=st.integers(0, len(BOOL_COMBS) - 1),
    )
    def test_bool_filler_equal_implies_braid_equal(self, i, j):
        c1, c2 = BOOL_COMBS[i], BOOL_COMBS[j]
        filler = equiv_comb(BBE, c1, c2)
        sigma = equiv_sigma(BBE, c1, c2)
        if filler.verdict is Verdict.EQUIVALENT:
            assert sigma.verdict is Verdict.EQUIVALENT
        if sigma.verdict is Verdict.DISTINCT:
            assert filler.verdict is Verdict.DISTINCT

    @settings(max_examples=40, deadline=None)
    @given(
        i=st.integers(0, len(BOOL_COMBS) - 1),
        j=st.integers(0, len(BOOL_COMBS) - 1),
    )
    def test_bool_trivial_probes_never_contradict(self, i, j):
        c1, c2 = BOOL_COMBS[i], BOOL_COMBS[j]
        tau = equiv_tau(BBE, c1, c2)
        if tau.verdict is Verdict.DISTINCT:
            assert equiv_comb(BBE, c1, c2).verdict is Verdict.DISTINCT

    @settings(max_examples=40, deadline=None)
    @given(
        i=st.integers(0, len(IDEM_COMBS) - 1),
        j=st.integers(0, len(IDEM_COMBS) - 1),
    )
    def test_idem_slide_equal_implies_filler_equal(self, i, j):
        c1, c2 = IDEM_COMBS[i], IDEM_COMBS[j]
        slides = equiv_optic(IDEM, c1, c2, bound=1)
        if slides.verdict is Verdict.EQUIVALENT:
            assert equiv_comb(IDEM, c1, c2).verdict is Verdict.EQUIVALENT
        if equiv_comb(IDEM, c1, c2).verdict is Verdict.DISTINCT:
            assert slides.verdict is not Verdict.EQUIVALENT
