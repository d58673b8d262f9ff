"""Executable checks of the claims that certified verdicts rest on.

Each check asks an independent route: a bounded search that would find a
counterexample to the claim if the bound reached one.
"""
from collections import Counter

import pytest

from opticomb import (
    MatrixBackend,
    PointedFreeBackend,
    braid_eval,
    enumerate_combs,
    sigma_congruence_search,
)

from conftest import word


def braid_equal_pairs(backend, boundaries, bound):
    """The pairs of representatives that share a braid value: what the
    congruence search probes."""
    pairs = 0
    for (a, a1, b, b1) in boundaries:
        groups = Counter(backend.canonical_key(braid_eval(backend, c))
                         for c in enumerate_combs(backend, (a, a1), (b, b1), bound))
        pairs += sum(n * (n - 1) // 2 for n in groups.values())
    return pairs


I, a, x, y = word(), word("a"), word("x"), word("y")


@pytest.mark.parametrize("backend,boundaries,bound", [
    (PointedFreeBackend(), [(I, a, a, I)], 2),
    (MatrixBackend({"x": 2, "y": 2}, semiring="bool"),
     [(x, y, y, x), (I, x, y, I)], 1),
], ids=["pointed-Ia-aI", "bool-xy"])
def test_braid_conclusive_leaves_no_separating_filler(backend, boundaries, bound):
    """``braid_conclusive`` claims equal braid values settle filler agreement,
    so no filler separates braid-equal combs on boundaries beyond criterion
    05's list either; every braid-equal pair is probed."""
    assert backend.braid_conclusive
    pairs = braid_equal_pairs(backend, boundaries, bound)
    assert pairs > 0
    assert sigma_congruence_search(backend, boundaries, bound, max_pairs=pairs) is None
