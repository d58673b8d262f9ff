"""Deterministic generators of objects, morphisms, and combs for searches.

Everything here iterates in a fixed order so that searches, experiment
scripts, and frozen test values are reproducible run to run.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .core import Backend, Budget, ObjectWord
from .comb import CombRep, comb

if TYPE_CHECKING:
    import numpy as np


def env_words_for(
    backend: Backend,
    source: tuple[ObjectWord, ObjectWord],
    target: tuple[ObjectWord, ObjectWord],
    bound: int,
) -> tuple[list[ObjectWord], bool]:
    """Candidate environment words for combs on a boundary.

    Returns ``(words, graded)`` where graded means the backend pinned the
    possible environment lengths exactly, so the list is exhaustive.  Words
    come length by length, in the order of the pinned lengths (or 0..bound).
    """
    lengths = backend.env_lengths_for_boundary(source, target)
    graded = lengths is not None
    if not graded:
        lengths = range(bound + 1)
    words = backend.enumerate_objects(max(lengths, default=0))
    return [w for k in lengths for w in words if len(w) == k], graded


def enumerate_combs(
    backend: Backend,
    source: tuple[ObjectWord, ObjectWord],
    target: tuple[ObjectWord, ObjectWord],
    bound: int = 2,
) -> Iterator[CombRep]:
    """All comb representatives within the budget, in a fixed order."""
    budget = Budget.of(bound)
    (a, a1), (b, b1) = source, target
    envs, _ = env_words_for(backend, source, target, bound)
    for e in envs:
        bottoms = backend.enumerate_hom(a, e @ b, budget.max_hom)
        tops = backend.enumerate_hom(e @ b1, a1, budget.max_hom)
        for f in bottoms.items:
            for g in tops.items:
                yield comb(backend, f, g, e)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish unitary from the QR factorization of a complex gaussian."""
    import numpy as np

    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def random_isometry(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    """A d_out x d_in matrix with orthonormal columns (requires d_out >= d_in)."""
    if d_out < d_in:
        raise ValueError("an isometry needs d_out >= d_in")
    u = random_unitary(rng, d_out)
    return u[:, :d_in]
