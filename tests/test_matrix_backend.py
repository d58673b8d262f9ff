from fractions import Fraction

import numpy as np
import pytest

from opticomb import (
    DimensionMismatch,
    MatrixBackend,
    ObjectWord,
    TypeMismatch,
)

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


class TestEnumeration:
    def test_bool_hom_complete(self, bbe):
        hs = bbe.enumerate_hom(word("b"), word("b"), 16)
        assert hs.complete and len(hs.items) == 16

    def test_bool_hom_truncated(self, bbe):
        hs = bbe.enumerate_hom(word("b"), word("b"), 7)
        assert not hs.complete and len(hs.items) == 7

    def test_unit_hom(self, bbe):
        hs = bbe.enumerate_hom(word(), word(), 4)
        assert hs.complete and len(hs.items) == 2  # the 0 and 1 scalars

    def test_canonical_key_distinguishes(self, cbe, rng):
        f = rand_mat(cbe, rng, word("x"), word("x"))
        g = rand_mat(cbe, rng, word("x"), word("x"))
        assert cbe.canonical_key(f) != cbe.canonical_key(g)
        assert cbe.canonical_key(f) == cbe.canonical_key(f)

    def test_canonical_key_merges_signed_zero(self, cbe):
        from opticomb import Mat

        a = Mat(word("x"), word("x"), np.array([[0.0, 0], [0, -0.0]], dtype=complex))
        b = Mat(word("x"), word("x"), np.zeros((2, 2), dtype=complex))
        assert cbe.canonical_key(a) == cbe.canonical_key(b)

    def test_enumerate_objects(self, cbe):
        objs = cbe.enumerate_objects(2)
        pretties = [w.pretty() for w in objs]
        assert "I" in pretties and "x*y" in pretties
        assert len(pretties) == 1 + 2 + 4
