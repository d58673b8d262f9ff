import numpy as np
import pytest

from opticomb import (
    AbsorbingPointedBackend,
    FinFunBackend,
    IdempotentFreeBackend,
    MatrixBackend,
    ObjectWord,
    PointedFreeBackend,
    UnitaryBackend,
    poly,
)

TOL = 1e-9


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cbe():
    """Complex matrices on x (dim 2) and y (dim 3)."""
    return MatrixBackend({"x": 2, "y": 3}, semiring="complex", tolerance=TOL)


@pytest.fixture
def bbe():
    """Boolean matrices on a single two-point object."""
    return MatrixBackend({"b": 2}, semiring="bool")


@pytest.fixture
def qbe():
    """Rational matrices on x (dim 2)."""
    return MatrixBackend({"x": 2, "y": 2}, semiring="rational")


@pytest.fixture
def ffb():
    return FinFunBackend({"s": 2, "t": 3})


@pytest.fixture
def idem():
    return IdempotentFreeBackend()


@pytest.fixture
def pointed():
    return PointedFreeBackend()


@pytest.fixture
def ube():
    return UnitaryBackend({"q": 2})


def rand_mat(backend, rng, dom, cod):
    """A dense complex matrix value with the given boundary."""
    from opticomb import Mat

    shape = (backend.dim(cod), backend.dim(dom))
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return Mat(dom, cod, arr)


def word(*names):
    return ObjectWord.of(*names) if names else ObjectWord.unit()


# bool matrices and four backends without a compact structure, each with an object
NAME_BACKENDS = {
    "bool": (lambda: MatrixBackend({"b": 2}, semiring="bool"), "b"),
    "finfun": (lambda: FinFunBackend({"s": 2}), "s"),
    "pointed": (PointedFreeBackend, "a"),
    "idempotent": (IdempotentFreeBackend, "a"),
    "absorbing": (AbsorbingPointedBackend, "a"),
}


def join(words):
    return ObjectWord(tuple(f for w in words for f in w))


def random_pieces(backend, o, n, rng, count):
    """Up to ``count`` n-hole pieces with words drawn from I, o, o*o and
    segments drawn from enumerated hom-sets; shapes with an empty hom-set
    are skipped."""
    U = word()
    words, envs = [U, o, o @ o], [U, o]
    pieces = []
    for _ in range(20 * count):
        holes = [(words[rng.integers(3)], words[rng.integers(3)]) for _ in range(n)]
        outers = [(words[rng.integers(3)], words[rng.integers(3)])
                  for _ in range(rng.integers(3))]
        ms = [envs[rng.integers(2)] for _ in range(n)]
        ins, outs = join(a for a, _ in outers), join(b for _, b in outers)
        ends = [ins] + [m @ h[1] for m, h in zip(ms, holes)]
        starts = [m @ h[0] for m, h in zip(ms, holes)] + [outs]
        segments = []
        for d, c in zip(ends, starts):
            if len(d) + len(c) > 4:
                break
            items = backend.enumerate_hom(d, c, 16).items
            if not items:
                break
            segments.append(items[rng.integers(len(items))])
        else:
            pieces.append(poly(backend, holes, outers, ms, segments))
        if len(pieces) == count:
            break
    return pieces
