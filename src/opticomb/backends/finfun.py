"""Finite sets and functions, with cartesian structure.

Objects are words of named finite sets; an object word denotes the product
of its factors, with elements encoded as mixed-radix integers (leftmost
factor most significant).  Morphisms are total functions stored as flat
lookup tables.  The backend is cartesian (copy, projections, a chosen
point) and exactly enumerable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Sequence

from ..core import DimensionMismatch, HomSet, ObjectWord, SizedBackend


@dataclass(frozen=True)
class FinMap:
    """A function between finite products; table[i] is the image of element i."""

    dom: ObjectWord
    cod: ObjectWord
    table: tuple[int, ...]

    def __repr__(self) -> str:
        return f"FinMap({self.dom.pretty()} -> {self.cod.pretty()}, {self.table})"

    def to_json(self) -> dict:
        """The boundary words and the lookup table, as JSON data."""
        return {"dom": self.dom.pretty(), "cod": self.cod.pretty(), "table": list(self.table)}


class FinFunBackend(SizedBackend):
    name = "finfun"
    cartesian = True
    enumerable = True
    # functions sit faithfully inside boolean matrices as their graphs, so
    # braid values settle filler agreement
    braid_conclusive = True

    # -- construction ----------------------------------------------------------

    def add_generator(self, gname: str, dom: Any, cod: Any, table: Any) -> FinMap:
        dw = dom if isinstance(dom, ObjectWord) else ObjectWord.parse(dom)
        cw = cod if isinstance(cod, ObjectWord) else ObjectWord.parse(cod)
        m = self.fun(dw, cw, table)
        self._gens[gname] = m
        return m

    def fun(self, dom: ObjectWord, cod: ObjectWord, table: Any) -> FinMap:
        tab = tuple(int(x) for x in table)
        nd, nc = self.dim(dom), self.dim(cod)
        if len(tab) != nd:
            raise DimensionMismatch(
                f"table for {dom.pretty()} -> {cod.pretty()} must have {nd} entries, "
                f"got {len(tab)}"
            )
        for x in tab:
            if not 0 <= x < nc:
                raise DimensionMismatch(f"table value {x} outside codomain of size {nc}")
        return FinMap(dom, cod, tab)

    # -- structure --------------------------------------------------------------------

    def identity(self, word: ObjectWord) -> FinMap:
        return FinMap(word, word, tuple(range(self.dim(word))))

    def symmetry(self, left: ObjectWord, right: ObjectWord) -> FinMap:
        nl, nr = self.dim(left), self.dim(right)
        table = tuple(y * nl + x for x in range(nl) for y in range(nr))
        return FinMap(left @ right, right @ left, table)

    def compose(self, first: FinMap, then: FinMap) -> FinMap:
        self._require_composable(first, then)
        return FinMap(first.dom, then.cod, tuple(then.table[x] for x in first.table))

    def tensor(self, left: FinMap, right: FinMap) -> FinMap:
        ncr = self.dim(right.cod)
        ndr = self.dim(right.dom)
        table = tuple(
            left.table[x] * ncr + right.table[y]
            for x in range(self.dim(left.dom))
            for y in range(ndr)
        )
        return FinMap(left.dom @ right.dom, left.cod @ right.cod, table)

    def plug_lower(self, before: FinMap, beside: FinMap,
                   fillers: Sequence[FinMap]) -> FinMap:
        # ``before`` split into its (beside, filler) legs once, a walk per
        # filler; the block as one FinMap whose table lists the values' tables
        lam = fillers[0]
        middle = FinMap(beside.dom @ lam.dom, beside.cod @ lam.cod, ())  # its type only
        self._require_composable(before, middle)
        n_in, n_out = self.dim(lam.dom), self.dim(lam.cod)
        legs = [(beside.table[i] * n_out, j) for i, j in (divmod(x, n_in) for x in before.table)]
        return FinMap(before.dom, middle.cod, [[b + f.table[j] for b, j in legs] for f in fillers])

    def plug_upper(self, lower: FinMap, after: FinMap) -> list[FinMap]:
        self._require_composable(lower, after)
        out = after.table
        return [FinMap(lower.dom, after.cod, tuple([out[x] for x in t])) for t in lower.table]

    def equal(self, m1: FinMap, m2: FinMap) -> bool:
        self._require_same_boundary(m1, m2)
        return m1.table == m2.table

    # -- enumeration ---------------------------------------------------------------------

    def enumerate_hom(self, dom: ObjectWord, cod: ObjectWord, budget: int) -> HomSet:
        nd, nc = self.dim(dom), self.dim(cod)
        if nc == 0:
            if nd == 0:
                return HomSet((FinMap(dom, cod, ()),), complete=True)
            return HomSet((), complete=True)
        total = nc ** nd
        count = min(total, budget)
        items = []
        for k in range(count):
            table = []
            rest = k
            for _ in range(nd):
                table.append(rest % nc)
                rest //= nc
            items.append(FinMap(dom, cod, tuple(table)))
        return HomSet(tuple(items), complete=total <= budget)

    # -- cartesian structure ------------------------------------------------------------------

    def copy(self, word: ObjectWord) -> FinMap:
        n = self.dim(word)
        return FinMap(word, word @ word, tuple(x * n + x for x in range(n)))

    def proj1(self, left: ObjectWord, right: ObjectWord) -> FinMap:
        nl, nr = self.dim(left), self.dim(right)
        table = tuple(x for x in range(nl) for _ in range(nr))
        return FinMap(left @ right, left, table)

    def proj2(self, left: ObjectWord, right: ObjectWord) -> FinMap:
        nl, nr = self.dim(left), self.dim(right)
        table = tuple(y for _ in range(nl) for y in range(nr))
        return FinMap(left @ right, right, table)

    # -- hooks -------------------------------------------------------------------------------------

    def canonical_key(self, m: FinMap) -> Hashable:
        return ("fun", m.dom, m.cod, m.table)


def functions_as_boolean_matrices(ff: FinFunBackend):
    """The graph model of a function backend inside boolean matrices.

    Returns ``(matrix_backend, value_map)`` where the matrix backend has one
    dimension per named set and ``value_map`` sends a function to its 0/1
    graph matrix, columns indexed by the domain.  The map preserves
    identities, composition, tensor, and symmetries, and is injective on
    every hom-set.
    """
    import numpy as np

    from .matrix import Mat, MatrixBackend

    target = MatrixBackend(dims=ff.dims, semiring="bool")

    def value_map(m: FinMap) -> Mat:
        nr = target.dim(m.cod)
        nc = target.dim(m.dom)
        arr = np.zeros((nr, nc), dtype=np.int64)
        for i, j in enumerate(m.table):
            arr[j, i] = 1
        return Mat(m.dom, m.cod, arr)

    for gname in ff.generator_names():
        g = ff.generator(gname)
        target.add_generator(gname, g.dom, g.cod, value_map(g).array)
    return target, value_map
