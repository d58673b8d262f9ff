import gc
from collections import deque

import numpy as np
import pytest

from opticomb import (
    AbsorbingPointedBackend,
    BoundaryMismatch,
    ExhaustionWitness,
    FactorWitness,
    FinFunBackend,
    IdempotentFreeBackend,
    IncompatibleStrategy,
    MatrixBackend,
    NonComposableMove,
    ObjectWord,
    PointedFreeBackend,
    SlidePathWitness,
    Verdict,
    check_probe_witness,
    comb,
    enumerate_combs,
    equiv_comb,
    equiv_optic,
    slide_related,
)
import opticomb.optic as optic
from opticomb.core import Budget, Decision, HomSet
from opticomb.optic import MAX_SLIDE_STATES, _state_key
from opticomb.sampling import env_words_for

from conftest import rand_mat, word


@pytest.fixture
def slid(cbe, rng):
    """A slide-related pair over complex matrices: v : x -> y moved across."""
    f = rand_mat(cbe, rng, word("x"), word("x", "y"))
    v = rand_mat(cbe, rng, word("x"), word("y"))
    g = rand_mat(cbe, rng, word("y", "x"), word("y"))
    return slide_related(cbe, f, v, g)


class TestSlideRelated:
    def test_boundaries_agree(self, slid):
        lower, upper = slid
        assert lower.boundary() == upper.boundary()
        assert lower.env == word("x") and upper.env == word("y")

    def test_name_form_confirms(self, cbe, slid):
        lower, upper = slid
        d = equiv_optic(cbe, lower, upper, strategy="name-form")
        assert d.verdict is Verdict.EQUIVALENT and d.certified

    def test_rejects_non_composable_middle(self, cbe, rng):
        f = rand_mat(cbe, rng, word("x"), word("x", "y"))
        v = rand_mat(cbe, rng, word("y"), word("y"))
        g = rand_mat(cbe, rng, word("y", "y"), word("x"))
        with pytest.raises(NonComposableMove):
            slide_related(cbe, f, v, g)


class TestZigzag:
    def test_identical_representatives_short_circuit(self, idem):
        a = word("a")
        c = comb(idem, idem.generator("f"), idem.identity(a), env=ObjectWord.unit())
        d = equiv_optic(idem, c, c, strategy="zigzag")
        assert d.verdict is Verdict.EQUIVALENT
        assert isinstance(d.witness, SlidePathWitness) and d.witness.steps == ()

    def test_finds_one_step_path(self, pointed):
        a = word("a")
        phi, psi = pointed.generator("phi"), pointed.generator("psi")
        bang = pointed.generator("bang")
        o1 = comb(pointed, psi, bang, env=ObjectWord.unit())
        o2 = comb(
            pointed, pointed.tensor(phi, psi), pointed.tensor(bang, bang), env=a
        )
        d = equiv_optic(pointed, o1, o2)
        assert d.verdict is Verdict.EQUIVALENT and d.certified
        assert isinstance(d.witness, SlidePathWitness)
        assert len(d.witness.steps) == 1
        step = d.witness.steps[0]
        assert step.direction in ("push_up", "push_down")
        assert step.residual == a

    def test_the_representatives_environments_join_the_search(self, pointed):
        """At bound 0 the search grades no environment ``a`` or ``a*a``; the
        two representatives bring theirs, so the one slide between them is
        found."""
        a = word("a")
        one = pointed.identity(a)
        lower, upper = slide_related(
            pointed, one, pointed.tensor(one, pointed.generator("psi")),
            pointed.tensor(one, pointed.generator("bang")),
        )
        assert (lower.env, upper.env) == (a, word("a", "a"))
        assert (lower.source, lower.target) == ((a, a), (word(), word()))
        d = equiv_optic(pointed, lower, upper, strategy="zigzag", bound=0)
        assert d.verdict is Verdict.EQUIVALENT and d.certified
        assert isinstance(d.witness, SlidePathWitness) and len(d.witness.steps) == 1

    def test_separates_what_fillers_glue(self, idem):
        """The headline gap: filler-equal combs in distinct slide classes."""
        a = word("a")
        f = idem.generator("f")
        o1 = comb(idem, f, idem.identity(a), env=ObjectWord.unit())
        o2 = comb(idem, idem.identity(a), f, env=ObjectWord.unit())
        filler_view = equiv_comb(idem, o1, o2)
        slide_view = equiv_optic(idem, o1, o2)
        assert filler_view.verdict is Verdict.EQUIVALENT and filler_view.certified
        assert slide_view.verdict is Verdict.DISTINCT and slide_view.certified
        assert isinstance(slide_view.witness, ExhaustionWitness)
        assert slide_view.coverage["environments_graded"] is True
        assert slide_view.coverage["hom_scans_complete"] is True
        assert slide_view.coverage["frontier_truncated"] is False
        assert slide_view.witness.states_explored >= 1

    def test_a_truncated_frontier_certifies_nothing(self, monkeypatch):
        """A search cut at ``MAX_SLIDE_STATES`` has not seen the whole slide
        component, so it answers UNKNOWN where the full search certifies
        DISTINCT.  The slide tables live on the backend: each run gets its own."""
        a = word("a")

        def decide():
            backend = IdempotentFreeBackend()
            reps = list(enumerate_combs(backend, (a @ a, a @ a), (a, a), 1))
            return equiv_optic(backend, reps[1], reps[0], strategy="zigzag")

        full = decide()
        assert full.verdict is Verdict.DISTINCT and full.certified
        assert full.witness.states_explored == 3
        monkeypatch.setattr(optic, "MAX_SLIDE_STATES", 1)
        cut = decide()
        assert cut.verdict is Verdict.UNKNOWN and not cut.certified
        assert cut.coverage["frontier_truncated"] is True
        assert cut.coverage["environments_graded"] and cut.coverage["hom_scans_complete"]

    def test_an_incomplete_hom_scan_certifies_nothing(self):
        """The pair of :meth:`test_separates_what_fillers_glue` over a backend
        whose hom-set scans may have missed morphisms: UNKNOWN, not DISTINCT."""

        class Incomplete(IdempotentFreeBackend):
            def enumerate_hom(self, dom, cod, budget):
                return HomSet(super().enumerate_hom(dom, cod, budget).items, complete=False)

        backend, a = Incomplete(), word("a")
        f = backend.generator("f")
        o1 = comb(backend, f, backend.identity(a), env=ObjectWord.unit())
        o2 = comb(backend, backend.identity(a), f, env=ObjectWord.unit())
        d = equiv_optic(backend, o1, o2, strategy="zigzag")
        assert d.verdict is Verdict.UNKNOWN and not d.certified
        assert d.coverage["hom_scans_complete"] is False
        assert d.coverage["environments_graded"] and not d.coverage["frontier_truncated"]

    def test_needs_enumerable_backend(self, cbe):
        c = comb(
            cbe, cbe.identity(word("x")), cbe.identity(word("x")),
            env=ObjectWord.unit(),
        )
        with pytest.raises(IncompatibleStrategy):
            equiv_optic(cbe, c, c, strategy="zigzag")


class TestLensRoute:
    @pytest.fixture
    def store(self, ffb):
        s = word("s")
        dup = ffb.fun(s, s @ s, [0, 3])
        return s, dup

    def test_symmetric_copy_is_equivalent(self, ffb, store):
        s, dup = store
        fst = ffb.proj1(s, s)
        o1 = comb(ffb, dup, fst, env=s)
        o2 = comb(ffb, ffb.compose(dup, ffb.symmetry(s, s)), fst, env=s)
        d = equiv_optic(ffb, o1, o2)
        assert d.verdict is Verdict.EQUIVALENT and d.certified
        assert d.method == "lens-components"

    def test_distinct_put_reported(self, ffb, store):
        s, dup = store
        o1 = comb(ffb, dup, ffb.proj1(s, s), env=s)
        o2 = comb(ffb, dup, ffb.proj2(s, s), env=s)
        d = equiv_optic(ffb, o1, o2)
        assert d.verdict is Verdict.DISTINCT and d.certified
        assert isinstance(d.witness, FactorWitness)
        assert "put" in d.witness.note


class TestUnitaryRoute:
    @pytest.fixture
    def gates(self, ube):
        q = word("q")
        cnot = ube.add_generator(
            "cnot", q @ q, q @ q,
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        )
        rot = ube.add_generator("rot", q, q, [[0.8, -0.6], [0.6, 0.8]])
        rotinv = ube.add_generator("rotinv", q, q, [[0.8, 0.6], [-0.6, 0.8]])
        return q, cnot, rot, rotinv

    def test_rotated_environment_is_equivalent(self, ube, gates):
        q, cnot, rot, rotinv = gates
        o1 = comb(ube, cnot, cnot, env=q)
        o2 = comb(
            ube,
            ube.compose(cnot, ube.tensor(rot, ube.identity(q))),
            ube.compose(ube.tensor(rotinv, ube.identity(q)), cnot),
            env=q,
        )
        d = equiv_optic(ube, o1, o2)
        assert d.verdict is Verdict.EQUIVALENT and d.certified
        assert d.method == "unitary-factorization"
        assert isinstance(d.witness, FactorWitness)
        assert set(d.witness.pieces) == {
            "rotation", "inverse_rotation",
            "bottom_residual", "top_residual", "cancellation_residual",
        }
        assert d.witness.pieces["cancellation_residual"] <= ube.tolerance * 10

    def test_uncancelled_rotation_is_distinct(self, ube, gates):
        q, cnot, rot, _ = gates
        o1 = comb(ube, cnot, cnot, env=q)
        o3 = comb(
            ube,
            ube.compose(cnot, ube.tensor(rot, ube.identity(q))),
            cnot,
            env=q,
        )
        d = equiv_optic(ube, o1, o3)
        assert d.verdict is Verdict.DISTINCT and d.certified
        assert d.witness.pieces["cancellation_residual"] > ube.tolerance * 10


class TestDispatch:
    def test_boundary_mismatch(self, cbe):
        c = comb(
            cbe, cbe.identity(word("x")), cbe.identity(word("x")),
            env=ObjectWord.unit(),
        )
        d = comb(
            cbe, cbe.identity(word("y")), cbe.identity(word("y")),
            env=ObjectWord.unit(),
        )
        with pytest.raises(BoundaryMismatch):
            equiv_optic(cbe, c, d)

    def test_strategy_gating(self, cbe, ffb):
        mc = comb(
            cbe, cbe.identity(word("x")), cbe.identity(word("x")),
            env=ObjectWord.unit(),
        )
        fc = comb(
            ffb, ffb.identity(word("s")), ffb.identity(word("s")),
            env=ObjectWord.unit(),
        )
        with pytest.raises(IncompatibleStrategy):
            equiv_optic(ffb, fc, fc, strategy="name-form")
        with pytest.raises(IncompatibleStrategy):
            equiv_optic(cbe, mc, mc, strategy="lens")
        with pytest.raises(IncompatibleStrategy):
            equiv_optic(cbe, mc, mc, strategy="unitary-factor")
        with pytest.raises(IncompatibleStrategy):
            equiv_optic(cbe, mc, mc, strategy="banana")

    def test_probe_witness_replay(self, cbe, rng):
        e = word("x")
        mk = lambda: comb(
            cbe,
            rand_mat(cbe, rng, word("x"), e @ word("y")),
            rand_mat(cbe, rng, e @ word("y"), word("x")),
            env=e,
        )
        o1, o2 = mk(), mk()
        d = equiv_optic(cbe, o1, o2)
        assert d.verdict is Verdict.DISTINCT
        assert check_probe_witness(cbe, o1, o2, d.witness) is True
        # the same probe does not separate a comb from itself
        assert check_probe_witness(cbe, o1, o1, d.witness) is False


def reference_zigzag(backend, o1, o2, bound, reached=None):
    """The slide search as a double loop: every state composes each candidate
    ``f0 ; (v (x) 1_B)`` and ``(v (x) 1_B') ; g0`` and compares it with
    ``equal``.  The library finds the same moves by key lookup.  Each step
    that first reaches a state is appended to ``reached``, in order."""
    budget = Budget.of(bound)
    (a, a1), (b, b1) = o1.source, o1.target
    id_b = backend.identity(b)
    id_b1 = backend.identity(b1)
    envs, graded = env_words_for(backend, o1.source, o1.target, bound)
    env_list = list(envs)
    for extra in (o1.env, o2.env):
        if extra not in env_list:
            env_list.append(extra)
    scans_complete = True
    hom_cache = {}

    def hom(dom, cod):
        nonlocal scans_complete
        if (dom, cod) not in hom_cache:
            hs = backend.enumerate_hom(dom, cod, budget.max_hom)
            scans_complete = scans_complete and hs.complete
            hom_cache[dom, cod] = hs.items
        return hom_cache[dom, cod]

    start = (o1.env, o1.f, o1.g)
    goal_key = _state_key(backend, o2.env, o2.f, o2.g)
    start_key = _state_key(backend, *start)
    parents = {start_key: None}
    queue = deque([start])
    truncated = False

    def emit_path(end_key):
        steps = []
        while parents[end_key] is not None:
            end_key, step = parents[end_key]
            steps.append(step)
        return SlidePathWitness(tuple(reversed(steps)))

    if start_key == goal_key:
        return Decision.equivalent("slide-search", witness=SlidePathWitness(()))
    while queue:
        e, f, g = queue.popleft()
        cur_key = _state_key(backend, e, f, g)
        neighbors = []
        for e0 in env_list:
            for v in hom(e0, e):
                for f0 in hom(a, e0 @ b):
                    if backend.equal(backend.compose(f0, backend.tensor(v, id_b)), f):
                        g0 = backend.compose(backend.tensor(v, id_b1), g)
                        neighbors.append(((e0, f0, g0), optic.SlideStep("push_down", v, e0)))
            for v in hom(e, e0):
                for g0 in hom(e0 @ b1, a1):
                    if backend.equal(backend.compose(backend.tensor(v, id_b1), g0), g):
                        f1 = backend.compose(f, backend.tensor(v, id_b))
                        neighbors.append(((e0, f1, g0), optic.SlideStep("push_up", v, e0)))
        for state, step in neighbors:
            key = _state_key(backend, *state)
            if key in parents:
                continue
            parents[key] = (cur_key, step)
            if reached is not None:
                reached.append(step)
            if key == goal_key:
                return Decision.equivalent("slide-search", witness=emit_path(key))
            if len(parents) >= MAX_SLIDE_STATES:
                truncated = True
            else:
                queue.append(state)
    coverage = {
        "states_explored": len(parents),
        "environments_graded": graded,
        "hom_scans_complete": scans_complete,
        "frontier_truncated": truncated,
    }
    if graded and scans_complete and not truncated:
        witness = ExhaustionWitness(
            states_explored=len(parents),
            environments=tuple(env_list),
            note="the full slide component of the left representative was "
                 "explored and never met the right one",
        )
        return Decision.distinct("slide-search", witness, coverage=coverage)
    return Decision.unknown("slide-search", coverage=coverage)


def _slide_configurations():
    pointed = PointedFreeBackend()
    reps = list(enumerate_combs(pointed, (word(), word()), (word("a"),) * 2, bound=1))
    for i, c1 in enumerate(reps):
        for j, c2 in enumerate(reps):
            yield f"pointed-II-{i}-{j}", pointed, c1, c2, 3
    idem = IdempotentFreeBackend()
    for n in range(1, 4):
        an = word(*["a"] * n)
        reps = list(enumerate_combs(idem, (an, an), (word("a"),) * 2, bound=2))
        for i, c1 in enumerate(reps):
            for j, c2 in enumerate(reps[i + 1:], start=i + 1):
                yield f"idempotent-{n}-{i}-{j}", idem, c1, c2, 2
    ab = AbsorbingPointedBackend()
    bang = ab.generator("bang")
    yield ("absorbing", ab, comb(ab, ab.generator("psi"), bang, word()),
           comb(ab, ab.generator("phi"), bang, word()), 1)
    # an empty set z makes some hom-sets of v empty, where the search must not
    # scan the pieces beside v
    ff = FinFunBackend({"s": 2, "z": 0})
    s, z = word("s"), word("z")
    yield ("finfun-empty", ff, comb(ff, ff.fun(s, s @ s, (2, 0)), ff.fun(s @ z, s, ()), s),
           comb(ff, ff.fun(s, s, (1, 0)), ff.fun(z, s, ()), word()), 1)


SLIDE_CONFIGURATIONS = list(_slide_configurations())


def slide_tables(backend):
    """The backend's ``(indexes, neighbours, states)`` as the slide search keeps
    them, empty when no search has run on it."""
    return optic.SLIDE_TABLES.get(backend, ({}, {}, {}))


@pytest.mark.parametrize(
    "backend,o1,o2,bound", [c[1:] for c in SLIDE_CONFIGURATIONS],
    ids=[c[0] for c in SLIDE_CONFIGURATIONS],
)
def test_indexed_zigzag_matches_double_loop(backend, o1, o2, bound, monkeypatch):
    # a cold query reaches the states of the double loop in its order, by the
    # same moves, and scans the same hom-sets, or fewer when it stops at the goal
    scanned, reached = set(), []
    scan, make_step = backend.enumerate_hom, optic.SlideStep
    monkeypatch.setattr(backend, "enumerate_hom",
                        lambda *args: scanned.add(args[:2]) or scan(*args))
    monkeypatch.setattr(optic, "SlideStep",
                        lambda *args: reached.append(make_step(*args)) or reached[-1])
    optic.SLIDE_TABLES.pop(backend, None)
    got = equiv_optic(backend, o1, o2, strategy="zigzag", bound=bound)
    got_scanned, got_reached = set(scanned), reached[:]
    scanned.clear()
    want_reached = []
    want = reference_zigzag(backend, o1, o2, bound, want_reached)

    def moves(steps):
        return [(s.direction, backend.canonical_key(s.v), s.residual) for s in steps]

    assert moves(got_reached) == moves(want_reached)
    if want.verdict is Verdict.EQUIVALENT:
        assert got_scanned <= scanned
    else:
        assert got_scanned == scanned
    assert (got.verdict, got.certified, got.method) == (
        want.verdict, want.certified, want.method)
    assert got.coverage == want.coverage
    assert got.witness == want.witness
    if isinstance(want.witness, SlidePathWitness):
        assert got.witness.steps == want.witness.steps


def zigzag_answer(backend, o1, o2, bound):
    """A slide search's decision, its path spelled out move by move."""
    d = equiv_optic(backend, o1, o2, strategy="zigzag", bound=bound)
    if not isinstance(d.witness, SlidePathWitness):
        return (d.verdict, d.certified, d.method, d.coverage, d.witness)
    steps = [(s.direction, s.residual, backend.canonical_key(s.v))
             for s in d.witness.steps]
    return (d.verdict, d.certified, d.method, d.coverage, steps)


def cold_zigzag_answer(backend, o1, o2, bound):
    """:func:`zigzag_answer` on a backend whose slide tables were dropped."""
    optic.SLIDE_TABLES.pop(backend, None)
    return zigzag_answer(backend, o1, o2, bound)


def table_contents(backend):
    """The backend's slide tables with every value replaced by its key, so that
    two builds compare entry for entry, each index with its scans' completeness."""
    key = backend.canonical_key
    indexes, neighbors, states = slide_tables(backend)
    return (
        {k: ({side: [tuple(map(key, entry)) for entry in entries]
              for side, entries in index.items()}, complete)
         for k, (index, complete) in indexes.items()},
        {k: [(nxt_key, key(v)) for _, nxt_key, v in nexts] for k, nexts in neighbors.items()},
        {k: (state[0], key(state[1]), key(state[2])) for k, (state, _) in states.items()},
    )


def bool_slide_pair():
    """Slide-related on bool ``{x:2, y:2}``, with hole words B = y and B' = I
    apart, so a whisker on the wrong side does not compose."""
    bb = MatrixBackend({"x": 2, "y": 2}, semiring="bool")
    x, y = word("x"), word("y")
    f = bb.mat(x, x @ y, [[1, 0], [0, 1], [1, 1], [0, 0]])
    v = bb.mat(x, x, [[0, 1], [1, 0]])
    g = bb.mat(x, y, [[1, 1], [0, 1]])
    return (bb, *slide_related(bb, f, v, g))


def finfun_slide_pair():
    ff = FinFunBackend({"s": 2})
    s = word("s")
    f, v, g = (ff.fun(s, s, t) for t in ((1, 1), (1, 0), (0, 1)))
    return (ff, *slide_related(ff, f, v, g))


def add_generator_then_rebuild(make, generator):
    """Warm a pair's slide tables, add a generator, and ask again warm, then
    cold: the answers before and after, and the warm and the cold tables."""
    backend, o1, o2 = make()
    before = zigzag_answer(backend, o1, o2, 2)
    assert before[0] is Verdict.EQUIVALENT and slide_tables(backend)[0]
    backend.add_generator("h", *generator)
    after = [zigzag_answer(backend, o1, o2, 2)]
    warm = table_contents(backend)
    after.append(cold_zigzag_answer(backend, o1, o2, 2))
    return before, after, warm, table_contents(backend)


class TestSharedSlideIndexes:
    """The move indexes are kept per backend and serve all its queries: a warm
    table answers as a cold one, with the same decision and the same path."""

    def test_same_pair_twice(self):
        for _, backend, o1, o2, bound in SLIDE_CONFIGURATIONS[1::5]:
            cold = cold_zigzag_answer(backend, o1, o2, bound)
            assert slide_tables(backend)[0] or o1 is o2
            assert zigzag_answer(backend, o1, o2, bound) == cold

    def test_bound_one_then_two(self):
        pt = PointedFreeBackend()
        wide = list(enumerate_combs(pt, (word("a"),) * 2, (word("a"),) * 2, bound=1))
        for c in wide[1::6] + [wide[18]]:
            assert zigzag_answer(pt, wide[0], c, 1) == cold_zigzag_answer(
                pt, wide[0], c, 1)
            warm = zigzag_answer(pt, wide[0], c, 2)
            assert {key[-1] for key in slide_tables(pt)[0]} == {4, 16}
            assert warm == cold_zigzag_answer(pt, wide[0], c, 2)
        # bound 1 cuts this pair's hom-set scans short, so its moves are not
        # those of bound 2, and the tables must keep the two apart; a warm
        # query scans nothing and still reports the cut from its index entries
        bb, o1, o2 = bool_slide_pair()
        cut = zigzag_answer(bb, o1, o2, 1)
        assert cut[3]["hom_scans_complete"] is False
        assert {complete for _, complete in slide_tables(bb)[0].values()} == {False, True}
        assert zigzag_answer(bb, o1, o2, 1) == cut
        assert zigzag_answer(bb, o1, o2, 2) == cold_zigzag_answer(bb, o1, o2, 2)

    def test_two_boundaries(self):
        pt = PointedFreeBackend()
        a, unit = word("a"), word()
        small = list(enumerate_combs(pt, (unit, unit), (a, a), bound=1))
        wide = list(enumerate_combs(pt, (a, a), (a, a), bound=1))
        queries = [(small[0], small[2], 3), (wide[0], wide[18], 2),
                   (small[1], small[0], 3), (wide[3], wide[1], 2)]
        answers = [zigzag_answer(pt, *q) for q in queries]
        assert {key[3:7] for key in slide_tables(pt)[0]} == {
            (unit, unit, a, a), (a, a, a, a)}
        assert answers == [cold_zigzag_answer(pt, *q) for q in queries]

    def test_cap_zero_stores_nothing(self, monkeypatch):
        _, backend, o1, o2, bound = SLIDE_CONFIGURATIONS[2]
        want = cold_zigzag_answer(backend, o1, o2, bound)
        slide_tables(backend)[0].clear()
        monkeypatch.setattr(optic, "MAX_SLIDE_INDEXES", 0)
        assert zigzag_answer(backend, o1, o2, bound) == want
        assert slide_tables(backend)[0] == {}

    @pytest.mark.parametrize("make,generator", [
        (bool_slide_pair, ("x", "I", [[1, 1]])),
        (finfun_slide_pair, ("s", "I", (0, 0))),
    ])
    def test_add_generator_keeps_the_table(self, make, generator):
        # no index entry reads the generator table, so nothing empties it
        before, after, warm, cold = add_generator_then_rebuild(make, generator)
        assert after == [before, before]
        assert warm[0] == cold[0]

    def test_shared_values_are_read_only(self):
        bb, x = MatrixBackend({"x": 2}, semiring="bool"), word("x")
        f, v, g = (bb.mat(x, x, m) for m in ([[1, 0], [1, 1]], [[0, 1], [1, 0]],
                                              [[1, 1], [0, 1]]))
        d = equiv_optic(bb, *slide_related(bb, f, v, g), strategy="zigzag", bound=2)
        assert d.verdict is Verdict.EQUIVALENT and d.witness.steps
        for step in d.witness.steps:
            with pytest.raises(ValueError):
                step.v.array[0, 0] = 1 - step.v.array[0, 0]

    def test_tables_go_with_their_backend(self):
        backend, o1, o2 = finfun_slide_pair()
        zigzag_answer(backend, o1, o2, 2)
        assert backend in optic.SLIDE_TABLES
        count = len(optic.SLIDE_TABLES)
        del backend, o1, o2
        gc.collect()
        assert len(optic.SLIDE_TABLES) == count - 1


@pytest.mark.parametrize(
    "backend,o1,o2,bound", [c[1:] for c in SLIDE_CONFIGURATIONS],
    ids=[c[0] for c in SLIDE_CONFIGURATIONS],
)
def test_emptied_tables_answer_as_warm_ones(backend, o1, o2, bound, monkeypatch):
    # the tables as earlier queries left them, then dropped (index, neighbour
    # and state tables alike), then as this query left them: the same decision,
    # and the same moves built in the same order
    steps = []
    make_step = optic.SlideStep
    monkeypatch.setattr(optic, "SlideStep", lambda *args: steps.append(
        (args[0], backend.canonical_key(args[1]), args[2])) or make_step(*args))
    runs = []
    for empty_first in (False, True, False):
        if empty_first:
            optic.SLIDE_TABLES.pop(backend, None)
        runs.append((zigzag_answer(backend, o1, o2, bound), steps[:]))
        steps.clear()
    assert runs[0] == runs[1] == runs[2]
    assert slide_tables(backend)[1] or o1 is o2


class TestSharedSlideNeighbors:
    """Neighbour lists are kept per backend beside the move indexes, with each
    distinct neighbour state held once."""

    @pytest.mark.parametrize("make,generator", [
        (bool_slide_pair, ("x", "I", [[1, 1]])),
        (finfun_slide_pair, ("s", "I", (0, 0))),
    ])
    def test_add_generator_keeps_the_tables(self, make, generator):
        before, after, warm, cold = add_generator_then_rebuild(make, generator)
        assert after == [before, before]
        assert warm[1:] == cold[1:] and warm[1] and warm[2]

    def test_bound_one_then_two(self):
        # a neighbour list holds the moves found under one hom-set budget
        pt = PointedFreeBackend()
        wide = list(enumerate_combs(pt, (word("a"),) * 2, (word("a"),) * 2, bound=1))
        for c in wide[1::6] + [wide[18]]:
            zigzag_answer(pt, wide[0], c, 1)
            warm = zigzag_answer(pt, wide[0], c, 2)
            assert warm == cold_zigzag_answer(pt, wide[0], c, 2)

    def test_cap_zero_stores_nothing(self, monkeypatch):
        _, backend, o1, o2, bound = SLIDE_CONFIGURATIONS[2]
        want = cold_zigzag_answer(backend, o1, o2, bound)
        assert slide_tables(backend)[1]
        optic.SLIDE_TABLES.pop(backend)
        monkeypatch.setattr(optic, "MAX_SLIDE_NEIGHBORS", 0)
        assert zigzag_answer(backend, o1, o2, bound) == want
        indexes, neighbors, states = slide_tables(backend)
        assert neighbors == {} and states == {} and indexes

    def test_each_state_stored_once(self):
        # a state object per neighbour entry instead of per distinct key made
        # the slide-search benchmark hold a third more memory
        pointed = [c[1:] for c in SLIDE_CONFIGURATIONS if c[0].startswith("pointed")]
        backend = pointed[0][0]
        optic.SLIDE_TABLES.pop(backend, None)
        for _, o1, o2, bound in pointed:
            zigzag_answer(backend, o1, o2, bound)
        _, neighbors, states = slide_tables(backend)
        entries = [entry for nexts in neighbors.values() for entry in nexts]
        ids = {id(state) for state, _, _ in entries}
        keys = {key for _, key, _ in entries}
        assert len(entries) > len(keys) > 1
        assert len(ids) == len(keys) == len(states)
        assert ids == {id(state) for state, _ in states.values()}
