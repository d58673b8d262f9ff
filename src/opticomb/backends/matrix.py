"""Matrix backends over three semirings: boolean, complex, and rational.

Objects are words of named finite dimensions, morphisms are matrices of
shape ``(dim(cod), dim(dom))``, and composition ``first`` then ``then`` is
``then @ first``.  All three semirings share the same compact closed
structure: the dual of a word reverses its factors, and cups and caps are
the flat pairing vectors, which satisfy both yanking identities on the
nose.

The boolean semiring is exact and fully enumerable, so it is the workhorse
for certified searches; the complex backend carries a tolerance and hosts
the positive-map constructions; the rational backend is exact arithmetic
for cross-checking numeric results, and multiplies Python-int numerators over
a common denominator before normalising back to ``Fraction``s.  :func:`close` and
:func:`residual_tolerance` are the tolerance policy of every numeric check.

Kernels, one body for all three semirings: ``plug_lower`` and ``plug_upper``
plug a stacked block of fillers at the hole, below it and above it (three
products, no Kronecker product); ``block_key`` keys a boolean block by the
bytes of the stack; and ``bend`` names a chain with one product per segment.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Hashable, Mapping, Sequence

import numpy as np

from ..core import (
    DimensionMismatch,
    HomSet,
    ObjectWord,
    Record,
    SizedBackend,
    TypeMismatch,
    _join,
    _set,
    value_json,
)

SEMIRINGS = ("bool", "complex", "rational")


def close(a: Any, b: Any, tolerance: float) -> bool:
    """Values are equal: every entry of ``a - b``, taken in floating point, is
    within ``tolerance``, or the entries are equal (infinities of one sign).
    This is ``np.allclose`` with ``rtol`` 0, at a quarter of its cost."""
    with np.errstate(invalid="ignore"):
        near = abs(np.subtract(a, b, dtype=np.result_type(a, b, 1.0))) <= tolerance
        return bool((near | (a == b)).all())


def residual_tolerance(tolerance: float) -> float:
    """The bound on residuals derived from values at ``tolerance``.

    A product checked against the identity, a factorization error, a Choi
    eigenvalue or a channel output collects the rounding of several
    operations, so it is held to ten times the tolerance of the values.
    """
    return 10 * tolerance


class Mat(Record):
    """A matrix with its boundary words; shape is (dim(cod), dim(dom))."""

    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity; ``equal`` reads entries

    def __init__(self, dom: ObjectWord, cod: ObjectWord, array: np.ndarray):
        _set(self, "dom", dom)
        _set(self, "cod", cod)
        _set(self, "array", array)

    def __repr__(self) -> str:
        return f"Mat({self.dom.pretty()} -> {self.cod.pretty()})"

    def to_json(self) -> dict:
        """The boundary words and the entries row by row, as JSON data."""
        entries = value_json(self.array)
        return {"dom": self.dom.pretty(), "cod": self.cod.pretty(), "entries": entries}


def _frozen(m: Mat) -> Mat:
    """``m`` with its array marked read-only, for values shared by a cache."""
    m.array.flags.writeable = False
    return m


#: entrywise ``Fraction(n, d)``; rational ``x`` over ``d``, a multiple of its denominator
_FRACTION = np.frompyfunc(Fraction, 2, 1)
_NUMERATOR = np.frompyfunc(lambda x, d: x.numerator * (d // x.denominator), 2, 1)


def _fractions(nums: Any, den: int = 1) -> np.ndarray:
    """``nums / den`` as an object array of ``Fraction``s in lowest terms."""
    arr = np.asarray(nums, dtype=object)
    out = np.empty(arr.shape, dtype=object)  # so a 0-d result stays an array
    return _FRACTION(arr, None if den == 1 else den, out=out)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two matrices; by broadcasting, several times
    faster than np.kron on these small matrices."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


class MatrixBackend(SizedBackend):
    """Free matrix category on named dimensions, over a chosen semiring.

    ``dims`` names the generating objects; :meth:`add_generator` declares a
    morphism from ``(dom, cod, entries)``, where dom and cod may be words or
    their string form and entries is anything ``np.asarray`` accepts.
    """

    compact_closed = True
    has_dagger = True
    braid_conclusive = True

    @property
    def name(self) -> str:
        return f"matrix[{self.semiring}]"

    def __init__(
        self,
        dims: Mapping[str, int],
        semiring: str = "complex",
        tolerance: float = 1e-9,
    ):
        if semiring not in SEMIRINGS:
            raise ValueError(f"unknown semiring {semiring!r}, expected one of {SEMIRINGS}")
        super().__init__(dims)
        self.semiring = semiring
        self.tolerance = tolerance if semiring == "complex" else None
        self.enumerable = semiring == "bool"
        self._identities: dict[ObjectWord, Mat] = {}
        self._symmetries: dict[tuple[ObjectWord, ObjectWord], Mat] = {}

    # -- construction ---------------------------------------------------------

    def add_generator(self, gname: str, dom: Any, cod: Any, entries: Any) -> Mat:
        dw = dom if isinstance(dom, ObjectWord) else ObjectWord.parse(dom)
        cw = cod if isinstance(cod, ObjectWord) else ObjectWord.parse(cod)
        m = self.mat(dw, cw, entries)
        self._gens[gname] = m
        return m

    def coerce(self, data: Any) -> np.ndarray:
        if self.semiring == "bool":
            return (np.asarray(data) != 0).astype(np.int64)
        if self.semiring == "rational":
            return _fractions(data)
        arr = np.asarray(data, dtype=np.complex128)
        if arr.ndim == 3 and arr.shape[-1] == 2:
            # [re, im] pair entries, the wire format for complex literals
            arr = arr[..., 0] + 1j * arr[..., 1]
        return arr

    def mat(self, dom: ObjectWord, cod: ObjectWord, entries: Any) -> Mat:
        arr = self.coerce(entries)
        expected = (self.dim(cod), self.dim(dom))
        if arr.shape != expected:
            raise DimensionMismatch(
                f"matrix for {dom.pretty()} -> {cod.pretty()} must have shape "
                f"{expected}, got {arr.shape}"
            )
        return Mat(dom, cod, arr)

    # -- structure --------------------------------------------------------------

    def identity(self, word: ObjectWord) -> Mat:
        if word not in self._identities:
            arr = self.coerce(np.eye(self.dim(word), dtype=np.int64))
            self._identities[word] = _frozen(Mat(word, word, arr))
        return self._identities[word]

    def symmetry(self, left: ObjectWord, right: ObjectWord) -> Mat:
        if (left, right) not in self._symmetries:
            dl, dr = self.dim(left), self.dim(right)
            # row y*dl + x of the swap picks column x*dr + y
            perm = np.arange(dl * dr).reshape(dl, dr).T.reshape(-1)
            arr = self.coerce(np.eye(dl * dr, dtype=np.int64)[perm])
            self._symmetries[(left, right)] = _frozen(Mat(left @ right, right @ left, arr))
        return self._symmetries[(left, right)]

    def _product(self, op: Any, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``op(a, b)`` for a bilinear ``op``; rational entries are multiplied as
        Python-int numerators (never int64, which would wrap) over each
        operand's common denominator."""
        if self.semiring != "rational":
            return op(a, b)
        da = math.lcm(*[x.denominator for x in a.flat])
        db = math.lcm(*[x.denominator for x in b.flat])
        return _fractions(op(_NUMERATOR(a, da), _NUMERATOR(b, db)), da * db)

    def compose(self, first: Mat, then: Mat) -> Mat:
        self._require_composable(first, then)
        prod = self._product(np.dot, then.array, first.array)
        if self.semiring == "bool":
            prod = (prod > 0).astype(np.int64)
        return Mat(first.dom, then.cod, prod)

    def tensor(self, left: Mat, right: Mat) -> Mat:
        prod = self._product(_kron, left.array, right.array)
        return Mat(left.dom @ right.dom, left.cod @ right.cod, prod)

    def plug_lower(self, before: Mat, beside: Mat, fillers: Sequence[Mat]) -> Mat:
        # the block as one Mat whose array stacks the values: ``beside``
        # contracts into ``before``, one broadcast matmul applies the fillers;
        # boolean path counts are kept as booleans, which is exact
        lam = fillers[0]
        middle = Mat(beside.dom @ lam.dom, beside.cod @ lam.cod, None)  # its type only
        self._require_composable(before, middle)
        (w1, w), (c1, c), din = beside.array.shape, lam.array.shape, before.array.shape[1]
        prod = self._product(np.dot, beside.array, before.array.reshape(w, c * din))
        stack = np.array([f.array for f in fillers])
        prod = self._product(np.matmul, stack[:, None], prod.reshape(w1, c, din))
        prod = prod.reshape(len(fillers), w1 * c1, din)
        return Mat(before.dom, middle.cod, prod > 0 if self.semiring == "bool" else prod)

    def plug_upper(self, lower: Mat, after: Mat) -> list[Mat]:
        prod = self._upper(lower, after)
        prod = prod.astype(np.int64) if self.semiring == "bool" else prod
        return [Mat(lower.dom, after.cod, arr) for arr in prod]

    def block_key(self, lower: Mat, after: Mat) -> Hashable:
        if self.semiring != "bool":  # on bool the bytes of the stack, no Mat per value
            return super().block_key(lower, after)
        return ("mats", lower.dom, after.cod, self._upper(lower, after).tobytes())

    def _upper(self, lower: Mat, after: Mat) -> np.ndarray:
        self._require_composable(lower, after)
        if self.semiring == "bool":  # a boolean matmul (or of ands) gives booleans
            return np.matmul(after.array != 0, lower.array)
        return self._product(np.matmul, after.array, lower.array)

    def bend(self, holes: Sequence[tuple[ObjectWord, ObjectWord]],
             envs: Sequence[ObjectWord], segments: Sequence[Mat]) -> Mat:
        # a link product: segment k as the matrix (E_k A_k A'_{k-1}, E_{k-1}) contracts
        # the running value's leading axis; its legs A_k A'_{k-1} .. A_0 B pile up behind
        n, es = len(holes), [ObjectWord(), *envs, ObjectWord()]
        outs = [a for a, _ in holes] + [segments[-1].cod]
        ins, val, legs = [segments[0].dom] + [a1 for _, a1 in holes], None, []
        for k, s in enumerate(segments):
            if (s.dom, s.cod) != (dom := es[k] @ ins[k], cod := es[k + 1] @ outs[k]):
                raise TypeMismatch(f"segment {k} must be {dom.pretty()} -> {cod.pretty()}")
            e0, e1, a, a1 = map(self.dim, (es[k], es[k + 1], outs[k], ins[k]))
            m = s.array.reshape(e1, a, e0, a1).transpose(0, 1, 3, 2).reshape(e1 * a * a1, e0)
            val = m if val is None else self._product(np.dot, m, val)
            legs = [a, a1, *legs]
            val = val.reshape(e1, math.prod(legs))
        val = val.reshape(legs).transpose(0, *range(2 * n, 0, -2), *range(2 * n + 1, 0, -2))
        val = val.reshape(math.prod(legs[::2]), math.prod(legs[1::2]))
        if self.semiring == "bool":  # path counts of 0/1 factors: one threshold
            val = (val > 0).astype(np.int64)
        return Mat(_join(ins), _join(outs[-1:] + outs[:-1]), val)

    def equal(self, m1: Mat, m2: Mat) -> bool:
        self._require_same_boundary(m1, m2)
        if self.semiring == "complex":
            return close(m1.array, m2.array, self.tolerance)
        return bool(np.array_equal(m1.array, m2.array))

    # -- enumeration --------------------------------------------------------------

    def enumerate_hom(self, dom: ObjectWord, cod: ObjectWord, budget: int) -> HomSet:
        """0/1 matrices by binary counting on row-major cells.

        Over the boolean semiring this is the whole hom-set, complete when it
        fits the budget; over the other semirings it is a deterministic
        spanning sample and never complete.
        """
        dd, dc = self.dim(dom), self.dim(cod)
        cells = dd * dc
        if cells == 0:
            empty = self.mat(dom, cod, np.zeros((dc, dd), dtype=np.int64))
            return HomSet((_frozen(empty),), complete=True)
        total = 2 ** cells if cells < 63 else None
        count = total if total is not None and total <= budget else budget
        bits = (np.arange(count)[:, None] >> np.arange(cells)) & 1
        items = [_frozen(self.mat(dom, cod, b.reshape(dc, dd))) for b in bits]
        complete = (
            self.semiring == "bool" and total is not None and total <= budget
        )
        return HomSet(tuple(items), complete=complete)

    # -- compact structure -----------------------------------------------------------

    def dual(self, word: ObjectWord) -> ObjectWord:
        return word.reversed()

    def cup(self, word: ObjectWord) -> Mat:
        d = self.dim(word)
        arr = self.coerce(np.eye(d, dtype=np.int64).reshape(d * d, 1))
        return Mat(ObjectWord.unit(), self.dual(word) @ word, arr)

    def cap(self, word: ObjectWord) -> Mat:
        d = self.dim(word)
        arr = self.coerce(np.eye(d, dtype=np.int64).reshape(1, d * d))
        return Mat(word @ self.dual(word), ObjectWord.unit(), arr)

    # -- dagger ------------------------------------------------------------------------

    def dagger(self, m: Mat) -> Mat:
        arr = m.array.conj().T if self.semiring == "complex" else m.array.T.copy()
        return Mat(m.cod, m.dom, arr)

    # -- hooks ----------------------------------------------------------------------------

    def canonical_key(self, m: Mat) -> Hashable:
        if self.semiring == "bool":
            return ("mat", m.dom, m.cod, m.array.astype(np.uint8).tobytes())
        if self.semiring == "rational":
            return ("mat", m.dom, m.cod, tuple(m.array.reshape(-1)))
        # complex values are equal within a tolerance, which no key can follow
        return super().canonical_key(m)
