import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

from opticomb import (
    DimensionMismatch,
    Mat,
    MatrixBackend,
    NotEnumerable,
    ObjectWord,
    TypeMismatch,
)

from opticomb.backends.matrix import close

from conftest import rand_mat, word


class TestConstruction:
    def test_semiring_validation(self):
        with pytest.raises(ValueError):
            MatrixBackend({"x": 2}, semiring="tropical")

    def test_generator_shape_check(self, cbe):
        with pytest.raises(DimensionMismatch):
            cbe.add_generator("h", "x", "y", np.ones((2, 2)))

    def test_complex_pair_coercion(self, cbe):
        m = cbe.add_generator(
            "u", "x", "x", [[[0, 1], [0, 0]], [[0, 0], [0, -1]]]
        )
        assert m.array[0, 0] == 1j and m.array[1, 1] == -1j

    def test_dim_of_word(self, cbe):
        assert cbe.dim(word("x", "y", "x")) == 12
        assert cbe.dim(word()) == 1


class TestStructure:
    def test_compose_tensor_interchange(self, cbe, rng):
        x, y = word("x"), word("y")
        f1, g1 = rand_mat(cbe, rng, x, y), rand_mat(cbe, rng, y, x)
        f2, g2 = rand_mat(cbe, rng, y, x), rand_mat(cbe, rng, x, y)
        lhs = cbe.tensor(cbe.compose(f1, g1), cbe.compose(f2, g2))
        rhs = cbe.compose(cbe.tensor(f1, f2), cbe.tensor(g1, g2))
        assert cbe.equal(lhs, rhs)

    def test_symmetry_naturality(self, cbe, rng):
        x, y = word("x"), word("y")
        f = rand_mat(cbe, rng, x, y)
        g = rand_mat(cbe, rng, y, x)
        lhs = cbe.compose(cbe.tensor(f, g), cbe.symmetry(y, x))
        rhs = cbe.compose(cbe.symmetry(x, y), cbe.tensor(g, f))
        assert cbe.equal(lhs, rhs)

    def test_symmetry_hexagon(self, cbe):
        x, y = word("x"), word("y")
        one_step = cbe.symmetry(x @ y, x)
        two_step = cbe.compose(
            cbe.tensor(cbe.identity(x), cbe.symmetry(y, x)),
            cbe.tensor(cbe.symmetry(x, x), cbe.identity(y)),
        )
        assert cbe.equal(one_step, two_step)

    def test_equal_requires_same_boundary(self, cbe, rng):
        f = rand_mat(cbe, rng, word("x"), word("y"))
        g = rand_mat(cbe, rng, word("y"), word("x"))
        with pytest.raises(TypeMismatch):
            cbe.equal(f, g)

    def test_snake_identities(self, cbe):
        for w in (word("x"), word("x", "y")):
            ws = cbe.dual(w)
            left = cbe.compose(
                cbe.tensor(cbe.identity(w), cbe.cup(w)),
                cbe.tensor(cbe.cap(w), cbe.identity(w)),
            )
            assert cbe.equal(left, cbe.identity(w))
            right = cbe.compose(
                cbe.tensor(cbe.cup(w), cbe.identity(ws)),
                cbe.tensor(cbe.identity(ws), cbe.cap(w)),
            )
            assert cbe.equal(right, cbe.identity(ws))

    def test_dagger_contravariant(self, cbe, rng):
        f = rand_mat(cbe, rng, word("x"), word("y"))
        g = rand_mat(cbe, rng, word("y"), word("x"))
        lhs = cbe.dagger(cbe.compose(f, g))
        rhs = cbe.compose(cbe.dagger(g), cbe.dagger(f))
        assert cbe.equal(lhs, rhs)


class TestSemirings:
    def test_bool_compose_saturates(self, bbe):
        m = bbe.add_generator("r", "b", "b", [[1, 1], [0, 0]])
        sq = bbe.compose(m, m)
        assert sq.array.max() == 1

    def test_rational_exact(self, qbe):
        half = [[Fraction(1, 2), Fraction(1, 2)], [0, 1]]
        m = qbe.add_generator("h", "x", "x", half)
        third = qbe.compose(m, m)
        assert third.array[0, 0] == Fraction(1, 4)

    def test_rational_kron(self, qbe):
        m = qbe.add_generator("k", "x", "x", [[Fraction(1, 3), 0], [0, 1]])
        t = qbe.tensor(m, m)
        assert t.array[0, 0] == Fraction(1, 9)

    def test_rational_products_exact_past_int64(self, qbe):
        # entries near 2**40 over coprime denominators: products of their
        # numerators pass 2**63, and must not wrap
        big = 2 ** 40
        f = qbe.mat(word("x"), word("y"), [[Fraction(big + 1, 3), Fraction(-big, 7)],
                                           [Fraction(5, 11), Fraction(big - 3, 13)]])
        g = qbe.mat(word("y"), word("x"), [[Fraction(big, 17), Fraction(1, 2)],
                                           [Fraction(-big - 7, 19), Fraction(big, 23)]])
        c = qbe.compose(f, g)
        ref = [[sum(g.array[i, k] * f.array[k, j] for k in range(2)) for j in range(2)]
               for i in range(2)]
        assert c.array.tolist() == ref
        assert abs(c.array[0, 0].numerator) > 2 ** 63
        t = qbe.tensor(f, g)
        assert np.array_equal(t.array, np.kron(f.array, g.array))
        assert all(isinstance(v, Fraction) for v in (*c.array.flat, *t.array.flat))


def _entries(semiring, rng, shape):
    if semiring == "bool":
        return rng.integers(0, 2, size=shape)
    if semiring == "rational":
        # mixed denominators, so operands have common denominators other than 1
        values = [Fraction(1, 2), Fraction(1, 3), Fraction(-2, 7), Fraction(0), Fraction(-3)]
        return np.array(values, dtype=object)[rng.integers(0, len(values), size=shape)]
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _assert_exact_entries(semiring, arr):
    # program.value_json and canonical_key read rational entries as Fractions
    if semiring == "rational":
        assert all(isinstance(v, Fraction) for v in arr.flat)


class TestCachedStructureAndTensor:
    @pytest.mark.parametrize("semiring", ["bool", "complex", "rational"])
    def test_tensor_equals_kron(self, semiring, rng):
        be = MatrixBackend({"x": 2, "y": 3, "z": 0}, semiring=semiring)
        x, y, z, i = word("x"), word("y"), word("z"), word()
        for (d1, c1), (d2, c2) in [
            ((x, y), (y, x)), ((y, x @ x), (i, y)), ((z, x), (x, y)),
            ((x, z), (i, i)), ((y, y), (z, z)),
        ]:
            left = be.mat(d1, c1, _entries(semiring, rng, (be.dim(c1), be.dim(d1))))
            right = be.mat(d2, c2, _entries(semiring, rng, (be.dim(c2), be.dim(d2))))
            t = be.tensor(left, right)
            ref = np.kron(left.array, right.array)
            assert (t.dom, t.cod) == (d1 @ d2, c1 @ c2)
            assert t.array.dtype == ref.dtype and t.array.shape == ref.shape
            assert np.array_equal(t.array, ref)
            _assert_exact_entries(semiring, t.array)

    @pytest.mark.parametrize("semiring", ["bool", "complex", "rational"])
    def test_compose_equals_dot(self, semiring, rng):
        be = MatrixBackend({"x": 2, "y": 3, "z": 0}, semiring=semiring)
        x, y, z, i = word("x"), word("y"), word("z"), word()
        for d, m, c in [
            (x, y, x @ x), (z, x, y), (x, z, y), (y, x, z), (i, x, i), (x, i, y), (i, i, i),
        ]:
            first = be.mat(d, m, _entries(semiring, rng, (be.dim(m), be.dim(d))))
            then = be.mat(m, c, _entries(semiring, rng, (be.dim(c), be.dim(m))))
            got = be.compose(first, then)
            ref = np.dot(then.array, first.array)
            if semiring == "bool":
                ref = (ref > 0).astype(np.int64)
            assert (got.dom, got.cod) == (d, c)
            assert got.array.dtype == ref.dtype and got.array.shape == ref.shape
            assert np.array_equal(got.array, ref)
            _assert_exact_entries(semiring, got.array)

    @pytest.mark.parametrize("semiring", ["bool", "complex", "rational"])
    def test_cached_structure_maps_reject_writes(self, semiring):
        be = MatrixBackend({"x": 2, "y": 3}, semiring=semiring)
        x, y = word("x"), word("y")
        for m, again in ((be.identity(x @ y), be.identity(x @ y)),
                         (be.symmetry(x, y), be.symmetry(x, y))):
            assert m is again
            with pytest.raises(ValueError):
                m.array[0, 0] = m.array[0, 1]
        # products of cached values are fresh, writable arrays
        t = be.tensor(be.identity(x), be.symmetry(x, y))
        t.array[0, 0] = t.array[0, 1]


class TestEnumeration:
    def test_bool_hom_complete(self, bbe):
        hs = bbe.enumerate_hom(word("b"), word("b"), 16)
        assert hs.complete and len(hs.items) == 16

    def test_bool_hom_truncated(self, bbe):
        hs = bbe.enumerate_hom(word("b"), word("b"), 7)
        assert not hs.complete and len(hs.items) == 7

    @pytest.mark.parametrize("semiring", ["bool", "complex", "rational"])
    def test_hom_order_is_binary_counting(self, semiring):
        # item k holds bit b of k in row-major cell b
        be = MatrixBackend({"x": 2, "y": 3}, semiring=semiring)
        for budget in (64, 20):
            items = be.enumerate_hom(word("x"), word("y"), budget).items
            assert len(items) == budget
            for k, m in enumerate(items):
                bits = [[(k >> (r * 2 + col)) & 1 for col in range(2)] for r in range(3)]
                assert m.array.dtype == be.coerce(bits).dtype
                assert m.array.tolist() == bits
                _assert_exact_entries(semiring, m.array)

    def test_unit_hom(self, bbe):
        hs = bbe.enumerate_hom(word(), word(), 4)
        assert hs.complete and len(hs.items) == 2  # the 0 and 1 scalars

    def test_canonical_key_distinguishes(self, cbe, ube, qbe, rng):
        # complex values are equal within a tolerance, which no key can follow
        f = rand_mat(cbe, rng, word("x"), word("x"))
        with pytest.raises(NotEnumerable):
            cbe.canonical_key(f)
        with pytest.raises(NotEnumerable):
            ube.canonical_key(ube.identity(word("q")))
        # exact keys tell distinct values apart
        a = qbe.mat(word("x"), word("x"), [[1, 0], [0, 1]])
        b = qbe.mat(word("x"), word("x"), [[1, 0], [0, Fraction(1, 3)]])
        assert qbe.canonical_key(a) != qbe.canonical_key(b)
        assert qbe.canonical_key(a) == qbe.canonical_key(a)

    def test_canonical_key_merges_signed_zero(self, cbe, qbe):
        entries = np.array([[0.0, 0], [0, -0.0]])
        with pytest.raises(NotEnumerable):
            cbe.canonical_key(Mat(word("x"), word("x"), entries.astype(complex)))
        # an exact backend reads -0.0 as the rational 0, so the keys merge
        a = qbe.mat(word("x"), word("x"), entries)
        b = qbe.mat(word("x"), word("x"), np.zeros((2, 2)))
        assert qbe.canonical_key(a) == qbe.canonical_key(b)

    def test_exact_canonical_key_agrees_with_equal(self, bbe, qbe):
        for be, w in ((bbe, word("b")), (qbe, word("x"))):
            items = be.enumerate_hom(w, w, 16).items
            for m1 in items:
                for m2 in items:
                    same = be.canonical_key(m1) == be.canonical_key(m2)
                    assert same == be.equal(m1, m2)
        half = qbe.mat(word("x"), word("x"), [[Fraction(1, 2), 0], [0, 1]])
        also = qbe.mat(word("x"), word("x"), [[Fraction(2, 4), 0], [0, 1]])
        assert qbe.canonical_key(half) == qbe.canonical_key(also)

    def test_enumerate_objects(self, cbe):
        objs = cbe.enumerate_objects(2)
        pretties = [w.pretty() for w in objs]
        assert "I" in pretties and "x*y" in pretties
        assert len(pretties) == 1 + 2 + 4


class TestClose:
    """``close`` compares directly, without ``np.allclose``: its answer and
    its warnings are ``np.allclose``'s on every input."""

    SPECIAL = [0.0, 1.0, -1.0, 1e-10, 1e308, -1e308, np.inf, -np.inf, np.nan]

    @staticmethod
    def _run(fn, a, b, tolerance):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            answer = fn(a, b, tolerance)
        return answer, [(w.category, str(w.message)) for w in caught]

    @pytest.mark.parametrize("tolerance", [0.0, 1e-9])
    def test_close_is_allclose_on_special_values(self, tolerance):
        reals = self.SPECIAL
        complexes = [complex(x, y) for x in reals for y in (0.0, 1.0, np.inf, -np.inf, np.nan)]
        cases = [(np.array([x]), np.array([y])) for x, y in itertools.product(reals, repeat=2)]
        cases += [(np.array([[x]]), np.array([[y]]))
                  for x, y in itertools.product(complexes, repeat=2)]
        cases.append((np.array([1.0, np.inf, np.nan]), np.array([1.0, np.inf, np.nan])))
        cases.append((np.array([1.0, np.inf]), np.array([1.0 + 1e-10, np.inf])))

        def allclose(a, b, tol):
            return bool(np.allclose(a, b, rtol=0.0, atol=tol))

        answers = set()
        for a, b in cases:
            got = self._run(close, a, b, tolerance)
            assert got == self._run(allclose, a, b, tolerance), (a, b)
            answers.add(got[0])
        assert answers == {True, False}

    def test_close_at_the_tolerance_edge(self):
        a = np.array([[1.0 + 1j, 2.0]])
        assert close(a, a + 1e-9, 1e-9) == bool(np.allclose(a, a + 1e-9, rtol=0.0, atol=1e-9))
        assert not close(a, a + 1e-8, 1e-9)
        assert not close(a, a + [[0.0, 1e-8]], 1e-9)  # one entry out is enough
        assert close(np.eye(2), np.eye(2, dtype=complex), 0.0)
