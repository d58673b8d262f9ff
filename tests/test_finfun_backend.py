import numpy as np
import pytest

from opticomb import (
    DimensionMismatch,
    FinFunBackend,
    functions_as_boolean_matrices,
)

from conftest import word


class TestFinMap:
    def test_table_range_checked(self, ffb):
        with pytest.raises(DimensionMismatch):
            ffb.add_generator("bad", "s", "s", [0, 2])

    def test_table_length_checked(self, ffb):
        with pytest.raises(DimensionMismatch):
            ffb.add_generator("bad", "s", "s", [0])

    def test_compose_chases_tables(self, ffb):
        f = ffb.fun(word("s"), word("t"), [2, 0])
        g = ffb.fun(word("t"), word("s"), [1, 1, 0])
        assert ffb.compose(f, g).table == (0, 1)

    def test_tensor_mixed_radix(self, ffb):
        f = ffb.fun(word("s"), word("s"), [1, 0])
        g = ffb.fun(word("t"), word("t"), [0, 0, 2])
        t = ffb.tensor(f, g)
        # input (x, y) encoded x*3+y; output (f x, g y) encoded fx*3+gy
        assert t.table == (3, 3, 5, 0, 0, 2)

    def test_symmetry_swaps_coordinates(self, ffb):
        s = ffb.symmetry(word("s"), word("t"))
        # (x, y) at x*3+y maps to (y, x) at y*2+x
        assert s.table == (0, 2, 4, 1, 3, 5)


class TestCartesian:
    def test_copy(self, ffb):
        c = ffb.copy(word("s"))
        assert c.table == (0, 3)

    def test_projections(self, ffb):
        st = word("s") @ word("t")
        p1 = ffb.proj1(word("s"), word("t"))
        p2 = ffb.proj2(word("s"), word("t"))
        assert ffb.dom(p1) == st and p1.table == (0, 0, 0, 1, 1, 1)
        assert p2.table == (0, 1, 2, 0, 1, 2)


class TestEnumeration:
    def test_complete_scan(self, ffb):
        hs = ffb.enumerate_hom(word("s"), word("s"), 4)
        assert hs.complete and len(hs.items) == 4

    def test_truncated_scan(self, ffb):
        hs = ffb.enumerate_hom(word("t"), word("t"), 5)
        assert not hs.complete and len(hs.items) == 5

    def test_empty_target(self):
        be = FinFunBackend({"s": 2, "v": 0})
        hs = be.enumerate_hom(word("s"), word("v"), 10)
        assert hs.complete and len(hs.items) == 0
        hs2 = be.enumerate_hom(word("v"), word("v"), 10)
        assert hs2.complete and len(hs2.items) == 1


class TestBooleanModel:
    def test_functor_preserves_structure(self, ffb):
        ffb.add_generator("rot", "t", "t", [1, 2, 0])
        mat_be, to_mat = functions_as_boolean_matrices(ffb)
        f = ffb.generator("rot")
        g = ffb.compose(f, f)
        lhs = to_mat(g)
        rhs = mat_be.compose(to_mat(f), to_mat(f))
        assert mat_be.equal(lhs, rhs)

    def test_functor_preserves_tensor_and_symmetry(self, ffb):
        mat_be, to_mat = functions_as_boolean_matrices(ffb)
        s, t = word("s"), word("t")
        f = ffb.fun(s, s, [1, 0])
        g = ffb.fun(t, t, [2, 1, 0])
        assert mat_be.equal(
            to_mat(ffb.tensor(f, g)), mat_be.tensor(to_mat(f), to_mat(g))
        )
        assert mat_be.equal(to_mat(ffb.symmetry(s, t)), mat_be.symmetry(s, t))

    def test_graph_matrix_columns(self, ffb):
        f = ffb.fun(word("s"), word("t"), [2, 0])
        _, to_mat = functions_as_boolean_matrices(ffb)
        arr = to_mat(f).array
        assert arr.shape == (3, 2)
        assert arr[2, 0] == 1 and arr[0, 1] == 1 and arr.sum() == 2
