"""Executable checks of the claims that certified verdicts rest on.

Each check asks an independent route: a bounded search that would find a
counterexample to the claim if the bound reached one.
"""
import itertools
import json
from collections import Counter

import pytest

from opticomb import (
    FinFunBackend,
    IdempotentFreeBackend,
    MatrixBackend,
    PointedFreeBackend,
    braid_eval,
    check_probe_witness,
    enumerate_combs,
    equiv_comb,
    sigma_congruence_search,
)
from opticomb.cli import main as cli_main

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


I, a, s, x, y = word(), word("a"), word("s"), word("x"), word("y")


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


@pytest.mark.parametrize("backend,source,target,stride", [
    (IdempotentFreeBackend(), (a, a), (a, a), 1),
    (IdempotentFreeBackend(), (a @ a, a @ a), (a, a), 1),
    (IdempotentFreeBackend(), (a, a), (I, I), 1),
    (FinFunBackend({"s": 2}), (s, s), (s, I), 1),
    (MatrixBackend({"x": 2}, semiring="bool"), (I, I), (x, I), 3),
], ids=["idempotent-aa-aa", "idempotent-a2a2-aa", "idempotent-aa-II", "finfun-ss-sI",
        "bool-II-xI"])
def test_a_certified_probe_verdict_holds_one_word_longer(backend, source, target, stride):
    """``extension_word_len_needed`` claims that probes at context words of
    that length settle filler agreement, so a certified ``enumerate`` verdict
    at ``bound = needed`` is never the opposite of one at ``needed + 1``,
    which may be UNKNOWN: the hom budget then truncates the longer contexts.
    Every pair of representatives at bound 1, reflexive ones included (every
    ``stride``-th one on bool, whose longer scans are slow)."""
    reps = list(enumerate_combs(backend, source, target, 1))[::stride]
    needed = backend.extension_word_len_needed(source, target)
    certified = 0
    for c1, c2 in itertools.combinations_with_replacement(reps, 2):
        d = equiv_comb(backend, c1, c2, strategy="enumerate", bound=needed)
        longer = equiv_comb(backend, c1, c2, strategy="enumerate", bound=needed + 1)
        certified += d.certified
        assert not (d.certified and longer.certified and d.verdict != longer.verdict), (c1, c2)
    assert certified > 0


def hole_ba_pairs():
    """Every unordered pair (reflexive included) of at most 40 representatives
    of each boundary with hole (b, a) on finfun ``{a:0, b:2}``, at bound 1: the
    hole output is empty, so every filler gives every comb the same value."""
    ff = FinFunBackend({"a": 0, "b": 2})
    words = [I, word("a"), word("b")]
    pairs = []
    for a0, a1 in itertools.product(words, repeat=2):
        reps = list(itertools.islice(
            enumerate_combs(ff, (a0, a1), (word("b"), word("a")), 1), 40))
        pairs += itertools.combinations_with_replacement(reps, 2)
    return ff, pairs


def test_comb_routes_agree_over_an_empty_hole_output():
    """``lens``, ``braid`` and ``enumerate`` never certify opposite verdicts,
    and every DISTINCT witness replays.  The ``lens`` route once certified
    DISTINCT by differing components on 93 of these pairs."""
    ff, pairs = hole_ba_pairs()
    assert len(pairs) == 189
    for c1, c2 in pairs:
        certified = set()
        for strategy in ("lens", "braid", "enumerate"):
            d = equiv_comb(ff, c1, c2, strategy=strategy, bound=1)
            if d.certified:
                certified.add(d.verdict)
            if d.is_distinct():
                assert check_probe_witness(ff, c1, c2, d.witness), (strategy, c1, c2)
        assert len(certified) <= 1, (c1, c2)


LENS_THEORY = """\
backend finfun
object a size=1
object b size=2
object z size=0
morphism p : a -> b = [0]
morphism q : a -> b = [1]
morphism g : z -> a = []
"""


def test_lens_strategy_answers_as_auto(tmp_path, capsys):
    """Two combs into an empty hole output agree on every filler, whatever
    their components: ``--strategy lens`` prints what ``auto`` prints."""
    thy, prog = tmp_path / "empty.thy", tmp_path / "empty.prog"
    thy.write_text(LENS_THEORY, encoding="utf-8")
    prog.write_text("comb c1 = (p, g) env I\ncomb c2 = (q, g) env I\nequiv comb c1 c2\n",
                    encoding="utf-8")
    results = []
    for strategy in ((), ("--strategy", "lens")):
        assert cli_main(["run", str(thy), str(prog), "--format", "json", *strategy]) == 0
        result = json.loads(capsys.readouterr().out)["queries"][-1]["result"]
        results.append((result["verdict"], result["certified"]))
    assert results == [("equivalent", True)] * 2


def test_equal_lens_components_certify_over_an_empty_object():
    """Equal components give a slide path, so the ``lens`` route certifies
    them even where an object has no element."""
    fz = FinFunBackend({"s": 2, "z": 0})
    s, z = word("s"), word("z")
    reps = list(enumerate_combs(fz, (s, s), (s, z), 1))
    assert len(reps) == 8
    for c1, c2 in itertools.combinations_with_replacement(reps, 2):
        assert not equiv_comb(fz, c1, c2, strategy="lens", bound=1).is_unknown()
