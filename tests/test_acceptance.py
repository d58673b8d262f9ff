"""Top-level acceptance suite, one test per shipped guarantee.

Each test prints a single ``[criterion NN] PASS`` or ``FAIL`` line with the
measured numbers (visible under ``pytest -s`` and in the captured output of
any failure) and then asserts.  Sample counts, tolerances, and time pins
are deliberately hard-coded: loosening them is a behaviour change, not a
refactor.
"""
import json
import time
from pathlib import Path

import numpy as np

from opticomb import (
    AbsorbingPointedBackend,
    Budget,
    ExhaustionWitness,
    FinFunBackend,
    IdempotentFreeBackend,
    Mat,
    MatrixBackend,
    ObjectWord,
    PointedFreeBackend,
    ProbeWitness,
    UnitaryBackend,
    Verdict,
    braid_eval,
    comb,
    comb_compose,
    comb_tensor,
    cpm_equiv,
    dagger_comb,
    enumerate_combs,
    equiv_comb,
    equiv_optic,
    equiv_sigma,
    equiv_tau,
    extended_eval,
    functions_as_boolean_matrices,
    identity_comb,
    lift_functor,
    poly_compose_at,
    poly_equiv,
    poly_name,
    random_isometry,
    random_unitary,
    sigma_congruence_search,
    slide_related,
    star_counit,
    star_unit,
    to_cpm,
    unitary_comb_factor,
)
from opticomb.cli import main as cli_main
from opticomb.program import witness_json

from conftest import rand_mat, word

CHANNEL_TOL = 1e-9
ROTATION_TOL = 1e-8

FIXTURE_PATH = Path(__file__).resolve().parent / "fixtures" / "separating_filler.json"
THEORIES = Path(__file__).resolve().parent.parent / "theories"

BUNDLED = [
    ("idempotent.thy", "idempotent.prog"),
    ("pointed.thy", "pointed.prog"),
    ("bool2.thy", "bool2.prog"),
    ("qubit.thy", "qubit.prog"),
    ("cartesian.thy", "cartesian.prog"),
    ("unitary.thy", "unitary.prog"),
]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def rand_bool(backend, rng, dom, cod):
    shape = (backend.dim(cod), backend.dim(dom))
    return Mat(dom, cod, rng.integers(0, 2, size=shape))


# ---------------------------------------------------------------------------
# 1. The headline separation, reproduced and certified
# ---------------------------------------------------------------------------

def test_criterion_01_filler_glue_slide_separation():
    """Both orderings of an idempotent around a hole are glued by every
    filler yet lie in different slide classes, with certificates on both
    sides and well under a second of work."""
    idem = IdempotentFreeBackend()
    a = word("a")
    f = idem.generator("f")
    start = time.perf_counter()
    before = comb(idem, idem.identity(a), f, env=word())
    after = comb(idem, f, idem.identity(a), env=word())
    fillers = equiv_comb(idem, before, after)
    scan = equiv_comb(idem, before, after, strategy="enumerate", bound=1)
    slides = equiv_optic(idem, before, after)
    elapsed = time.perf_counter() - start
    states = getattr(slides.witness, "states_explored", 0)
    ok = (
        fillers.verdict is Verdict.EQUIVALENT and fillers.certified
        and scan.verdict is Verdict.EQUIVALENT and scan.certified
        and scan.coverage["hom_scans_complete"] is True
        and slides.verdict is Verdict.DISTINCT and slides.certified
        and isinstance(slides.witness, ExhaustionWitness)
        and slides.coverage["environments_graded"] is True
        and slides.coverage["hom_scans_complete"] is True
        and slides.coverage["frontier_truncated"] is False
        and elapsed < 1.0
    )
    report(
        1, ok,
        f"fillers {fillers.verdict.value} (certified, "
        f"{scan.coverage['probes_tried']} probes exhausted), slides "
        f"{slides.verdict.value} after {states} states, {elapsed:.3f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. Name comparison and swap-filler comparison agree where both apply
# ---------------------------------------------------------------------------

def test_criterion_02_name_form_matches_braid_on_boolean_pairs():
    """On boolean matrices the name route and the braid route are two
    computations of the same invariant: no verdict may differ."""
    rng = np.random.default_rng(20250802)
    bb = MatrixBackend({"x": 2, "y": 2}, semiring="bool")
    boundary_words = [word(), word("x"), word("y")]
    env_words = [word(), word("x"), word("y"), word("x", "y")]
    start = time.perf_counter()
    disagreements = 0
    equivalent = 0
    for _ in range(1000):
        a = boundary_words[rng.integers(3)]
        a1 = boundary_words[rng.integers(3)]
        b = boundary_words[rng.integers(3)]
        b1 = boundary_words[rng.integers(3)]
        e1 = env_words[rng.integers(4)]
        e2 = env_words[rng.integers(4)]
        c1 = comb(bb, rand_bool(bb, rng, a, e1 @ b),
                  rand_bool(bb, rng, e1 @ b1, a1), env=e1)
        c2 = comb(bb, rand_bool(bb, rng, a, e2 @ b),
                  rand_bool(bb, rng, e2 @ b1, a1), env=e2)
        named = equiv_optic(bb, c1, c2, strategy="name-form")
        braided = equiv_comb(bb, c1, c2, strategy="braid")
        if named.verdict is not braided.verdict or not (
            named.certified and braided.certified
        ):
            disagreements += 1
        elif named.verdict is Verdict.EQUIVALENT:
            equivalent += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 60.0
    report(
        2, ok,
        f"1000 random pairs, {disagreements} disagreements "
        f"({equivalent} glued), {elapsed:.2f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. A slide move never changes what any probe can see
# ---------------------------------------------------------------------------

def test_criterion_03_slide_moves_preserve_every_probe():
    """Source and target of a random slide move agree under extended
    evaluation on every probe tried, over boolean and complex values.

    Boolean probes are enumerated up to the budget; complex hom-sets are
    continuous, so that side draws dense random probes at the same
    context sizes instead.
    """
    rng = np.random.default_rng(20250803)
    failures = 0
    probes = 0

    bb = MatrixBackend({"x": 2, "y": 2}, semiring="bool")
    budget = Budget.of(1)
    contexts = [word(), word("x"), word("y")]
    for _ in range(250):
        e0 = [word("x"), word("y")][rng.integers(2)]
        e1 = [word("x"), word("y")][rng.integers(2)]
        b = [word(), word("x")][rng.integers(2)]
        b1 = [word(), word("x")][rng.integers(2)]
        fm = rand_bool(bb, rng, word("x"), e0 @ b)
        vm = rand_bool(bb, rng, e0, e1)
        gm = rand_bool(bb, rng, e1 @ b1, word("x"))
        lower, upper = slide_related(bb, fm, vm, gm)
        for cw in contexts:
            for dw in contexts:
                scan = bb.enumerate_hom(cw @ b, dw @ b1, budget.max_hom)
                for lam in scan.items:
                    probes += 1
                    if not bb.equal(
                        extended_eval(bb, lower, lam, cw, dw),
                        extended_eval(bb, upper, lam, cw, dw),
                    ):
                        failures += 1

    cb = MatrixBackend({"x": 2, "y": 3}, semiring="complex", tolerance=CHANNEL_TOL)
    for _ in range(250):
        e0 = [word("x"), word("y"), word("x", "x")][rng.integers(3)]
        e1 = [word("x"), word("y")][rng.integers(2)]
        b = [word(), word("x")][rng.integers(2)]
        b1 = [word(), word("y")][rng.integers(2)]
        a = [word("x"), word("y")][rng.integers(2)]
        a1 = [word("x"), word("y")][rng.integers(2)]
        fm = rand_mat(cb, rng, a, e0 @ b)
        vm = rand_mat(cb, rng, e0, e1)
        gm = rand_mat(cb, rng, e1 @ b1, a1)
        lower, upper = slide_related(cb, fm, vm, gm)
        for _ in range(4):
            cw = [word(), word("x")][rng.integers(2)]
            dw = [word(), word("y")][rng.integers(2)]
            lam = rand_mat(cb, rng, cw @ b, dw @ b1)
            probes += 1
            if not cb.equal(
                extended_eval(cb, lower, lam, cw, dw),
                extended_eval(cb, upper, lam, cw, dw),
            ):
                failures += 1

    ok = failures == 0
    report(3, ok, f"500 slide moves, {probes} probes, {failures} failures")
    assert ok


# ---------------------------------------------------------------------------
# 4. The swap filler refutes a pair that every plain probe glues
# ---------------------------------------------------------------------------

def test_criterion_04_swap_filler_refutes_where_plain_probes_agree():
    """Two states feeding the same effect: trivial-context probes only see
    cancelled scalars and agree, while the swap filler exposes the two
    distinct effect-then-state normal forms."""
    pt = PointedFreeBackend()
    psi = pt.generator("psi")
    phi = pt.generator("phi")
    bang = pt.generator("bang")
    left = comb(pt, psi, bang, env=word())
    right = comb(pt, phi, bang, env=word())

    swap_view = equiv_sigma(pt, left, right)
    plain_view = equiv_tau(pt, left, right, bound=2)
    nf_left = braid_eval(pt, left)
    nf_right = braid_eval(pt, right)

    witness_ok = isinstance(swap_view.witness, ProbeWitness)
    if witness_ok:
        w = swap_view.witness
        v_left = extended_eval(pt, left, w.probe, w.c_word, w.d_word)
        v_right = extended_eval(pt, right, w.probe, w.c_word, w.d_word)
        witness_ok = (
            pt.equal(v_left, w.left)
            and pt.equal(v_right, w.right)
            and not pt.equal(v_left, v_right)
        )

    ok = (
        swap_view.verdict is Verdict.DISTINCT and swap_view.certified
        and witness_ok
        and plain_view.verdict is Verdict.UNKNOWN
        and plain_view.coverage["disagreements"] == 0
        and plain_view.coverage["probes_tried"] > 0
        and pt.equal(nf_left, pt.compose(bang, psi))
        and pt.equal(nf_right, pt.compose(bang, phi))
        and not pt.equal(nf_left, nf_right)
    )
    report(
        4, ok,
        f"swap filler {swap_view.verdict.value} (witness replayed), "
        f"{plain_view.coverage['probes_tried']} plain probes all agree, "
        "normal forms effect-then-state as expected and unequal",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. Certified gluing survives composition and tensor; the converse fixture
# ---------------------------------------------------------------------------

SEARCH_ANALYSIS = """\
None of the backends below can produce the required fixture: a pair of
combs with equal swap-filler values that some other filler separates.
The bounded search above is honest but provably empty on each of them.

* boolean / complex / rational matrices -- the backend is compact closed,
  so the swap-filler value is the comb's name, the comb bent into a single
  morphism with no hole.  Every extended filler evaluation can be rebuilt
  from the name by bending the context wires, hence equal names force
  equal values on every filler.  A separating filler cannot exist.
* finite functions -- sending a function to its 0/1 graph matrix embeds
  this backend into boolean matrices.  The embedding is injective on every
  hom-set and commutes with composition, tensor, and symmetries, hence
  with every filler evaluation.  A separating filler here would map to a
  separating filler between equal-name boolean combs, which the previous
  point rules out.
* free idempotent endomorphism -- values are strand diagrams where each
  strand either carries the mark or not.  The swap-filler value records
  the complete marked wiring of the bottom and top pieces around the
  hole, and every filler evaluation is a function of that wiring alone.
* free pointed states -- values are wirings labelled with states and
  effects, closed state-effect loops cancelling to scalars.  The
  swap-filler value retains the whole labelled wiring, so no further
  filler can see more.
* unitary matrices -- hom-sets are continuous, so there is nothing to
  enumerate, and the values sit inside complex matrices where the compact
  closed argument applies verbatim.

The fixture therefore needs a backend on which swap-filler agreement is
not conclusive.  AbsorbingPointedBackend is one: the free pointed theory
with the single equation bang (x) psi = bang (x) phi has no faithful
compact closed model, and the combs (psi, bang) and (phi, bang) have equal
braid values while the identity filler gives the distinct loops psi;bang
and phi;bang.  It is the last entry of the search list, and the pair it
yields is stored at tests/fixtures/separating_filler.json.  If this
message shows, that search came back empty."""


def test_criterion_05_equivalence_survives_composition_and_tensor():
    """Certified-equivalent pairs stay certified equivalent after nesting a
    comb inside them, nesting them inside a comb, and tensoring on either
    side.  The second half demands a stored counterexample showing the
    swap-filler relation alone is not a congruence; see the analysis
    message for why no bundled theory can supply one."""
    rng = np.random.default_rng(20250805)
    bb = MatrixBackend({"x": 2, "y": 2}, semiring="bool")
    x, y = word("x"), word("y")
    checks = 0
    closure_failures = 0
    for _ in range(200):
        e0 = [x, y][rng.integers(2)]
        e1 = [x, y][rng.integers(2)]
        b = [word(), x][rng.integers(2)]
        b1 = [word(), y][rng.integers(2)]
        a = [x, y][rng.integers(2)]
        a1 = [x, y][rng.integers(2)]
        fm = rand_bool(bb, rng, a, e0 @ b)
        vm = rand_bool(bb, rng, e0, e1)
        gm = rand_bool(bb, rng, e1 @ b1, a1)
        c1, c2 = slide_related(bb, fm, vm, gm)
        base = equiv_comb(bb, c1, c2)
        assert base.verdict is Verdict.EQUIVALENT and base.certified

        e_in = [word(), x][rng.integers(2)]
        nested = comb(bb, rand_bool(bb, rng, b, e_in @ x),
                      rand_bool(bb, rng, e_in @ x, b1), env=e_in)
        e_out = [word(), y][rng.integers(2)]
        host = comb(bb, rand_bool(bb, rng, x, e_out @ a),
                    rand_bool(bb, rng, e_out @ a1, y), env=e_out)
        partner = comb(bb, rand_bool(bb, rng, x, y @ x),
                       rand_bool(bb, rng, y @ y, x), env=y)
        for d in (
            equiv_comb(bb, comb_compose(bb, c1, nested),
                       comb_compose(bb, c2, nested)),
            equiv_comb(bb, comb_compose(bb, host, c1),
                       comb_compose(bb, host, c2)),
            equiv_comb(bb, comb_tensor(bb, c1, partner),
                       comb_tensor(bb, c2, partner)),
            equiv_comb(bb, comb_tensor(bb, partner, c1),
                       comb_tensor(bb, partner, c2)),
        ):
            checks += 1
            if d.verdict is not Verdict.EQUIVALENT or not d.certified:
                closure_failures += 1

    a_w = word("a")
    searches = [
        (IdempotentFreeBackend(), [(a_w, a_w, a_w, a_w)]),
        (PointedFreeBackend(), [(word(), word(), a_w, a_w),
                                (a_w, a_w, a_w, a_w)]),
        (MatrixBackend({"x": 2}, semiring="bool"),
         [(x, x, x, x), (x, word(), word(), x)]),
        (FinFunBackend({"s": 2}),
         [(word("s"), word("s"), word("s"), word("s"))]),
        (AbsorbingPointedBackend(), [(word(), word(), a_w, a_w),
                                     (a_w, a_w, a_w, a_w)]),
    ]
    hit = None
    for backend, boundaries in searches:
        found = sigma_congruence_search(backend, boundaries, bound=2, max_pairs=200)
        if found is not None:
            hit = (backend, found)
            break
    if hit is not None:
        backend, found = hit
        FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE_PATH.write_text(json.dumps(
            {"backend": backend.name, "witness": witness_json(found)},
            indent=2, sort_keys=True,
        ) + "\n")

    ok = closure_failures == 0 and hit is not None
    report(
        5, ok,
        f"{checks} closure checks with {closure_failures} failures; "
        f"separating filler {'found and stored' if hit else 'absent from every bundled theory'}",
    )
    assert closure_failures == 0, f"{closure_failures} closure checks failed"
    assert hit is not None, SEARCH_ANALYSIS


# ---------------------------------------------------------------------------
# 6. Channel equality, braid values, and name forms give one triangle
# ---------------------------------------------------------------------------

def test_criterion_06_channel_comparison_triangle():
    """For self-conjugate combs over complex matrices the three deciders
    (transfer matrices, braid values, name forms) return identical
    verdicts, isometry-related dilations are always glued, and the channel
    of a nested composite is the product of the channels."""
    rng = np.random.default_rng(20250806)
    qr = MatrixBackend({"q": 2, "r": 3}, semiring="complex", tolerance=CHANNEL_TOL)
    bnds = [word("q"), word("r"), word("q", "q")]
    envs = [word(), word("q"), word("r"), word("q", "q")]
    pairs = 0
    triangle_breaks = 0
    iso_failures = 0

    for _ in range(300):
        a = bnds[rng.integers(3)]
        b = [word("q"), word("r")][rng.integers(2)]
        e1 = envs[rng.integers(4)]
        e2 = envs[rng.integers(4)]
        c1 = dagger_comb(qr, rand_mat(qr, rng, a, e1 @ b), e1)
        c2 = dagger_comb(qr, rand_mat(qr, rng, a, e2 @ b), e2)
        v_channel = cpm_equiv(qr, c1, c2).verdict
        v_braid = equiv_comb(qr, c1, c2, strategy="braid").verdict
        v_name = equiv_optic(qr, c1, c2, strategy="name-form").verdict
        pairs += 1
        if not (v_channel is v_braid is v_name):
            triangle_breaks += 1

    for _ in range(200):
        a = bnds[rng.integers(3)]
        b = [word("q"), word("r")][rng.integers(2)]
        e1 = [word("q"), word("r")][rng.integers(2)]
        e2 = [word("q", "q"), word("r", "q")][rng.integers(2)]
        f1 = rand_mat(qr, rng, a, e1 @ b)
        pad = Mat(e1, e2, random_isometry(rng, qr.dim(e1), qr.dim(e2)))
        f2 = qr.compose(f1, qr.tensor(pad, qr.identity(b)))
        c1 = dagger_comb(qr, f1, e1)
        c2 = dagger_comb(qr, f2, e2)
        verdicts = (
            cpm_equiv(qr, c1, c2).verdict,
            equiv_comb(qr, c1, c2, strategy="braid").verdict,
            equiv_optic(qr, c1, c2, strategy="name-form").verdict,
        )
        pairs += 1
        if any(v is not Verdict.EQUIVALENT for v in verdicts):
            iso_failures += 1

    worst_residual = 0.0
    for _ in range(50):
        a = bnds[rng.integers(3)]
        b = [word("q"), word("r")][rng.integers(2)]
        c = [word("q"), word("r")][rng.integers(2)]
        e1 = envs[rng.integers(4)]
        e2 = envs[rng.integers(4)]
        c1 = dagger_comb(qr, rand_mat(qr, rng, a, e1 @ b), e1)
        c2 = dagger_comb(qr, rand_mat(qr, rng, b, e2 @ c), e2)
        composite = comb_compose(qr, c1, c2)
        t_comp = to_cpm(qr, composite).transfer
        t_steps = to_cpm(qr, c2).transfer @ to_cpm(qr, c1).transfer
        worst_residual = max(worst_residual, float(np.max(np.abs(t_comp - t_steps))))

    ok = (
        triangle_breaks == 0 and iso_failures == 0
        and worst_residual <= CHANNEL_TOL
    )
    report(
        6, ok,
        f"{pairs} pairs with {triangle_breaks} triangle breaks, "
        f"{iso_failures} isometry failures, composite channel residual "
        f"{worst_residual:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. Unitary combs factor through one environment rotation
# ---------------------------------------------------------------------------

def test_criterion_07_environment_rotation_factoring():
    """Inserting a rotation beside the hole and its adjoint above is
    detected and inverted exactly; twisting by a swap instead is refuted."""
    rng = np.random.default_rng(20250807)
    ub = UnitaryBackend({"q": 2, "r": 3, "s": 4})
    shapes = [
        (word("q"), word("q"), word("q", "q")),
        (word("q"), word(), word("q")),
        (word("r"), word(), word("r")),
        (word("s"), word(), word("s")),
    ]
    positives = 0
    positive_failures = 0
    worst_recovery = 0.0
    for i in range(100):
        env, b, a = shapes[i % 4]
        d_all = ub.dim(a)
        f1 = Mat(a, env @ b, random_unitary(rng, d_all))
        g1 = Mat(env @ b, a, random_unitary(rng, d_all))
        o1 = comb(ub, f1, g1, env=env)
        inserted = random_unitary(rng, ub.dim(env))
        rot = Mat(env, env, inserted)
        o2 = comb(
            ub,
            ub.compose(f1, ub.tensor(rot, ub.identity(b))),
            ub.compose(ub.tensor(ub.dagger(rot), ub.identity(b)), g1),
            env=env,
        )
        d = unitary_comb_factor(ub, o1, o2)
        positives += 1
        if d.verdict is not Verdict.EQUIVALENT or not d.certified:
            positive_failures += 1
            continue
        recovered = np.asarray(d.witness.pieces["rotation"])
        err = float(np.max(np.abs(recovered - inserted)))
        err = max(err, float(d.witness.pieces["bottom_residual"]))
        err = max(err, float(d.witness.pieces["top_residual"]))
        err = max(err, float(d.witness.pieces["cancellation_residual"]))
        worst_recovery = max(worst_recovery, err)
        if err > ROTATION_TOL:
            positive_failures += 1

    negative_failures = 0
    for _ in range(30):
        env, b, a = shapes[0]
        f1 = Mat(a, env @ b, random_unitary(rng, 4))
        g1 = Mat(env @ b, a, random_unitary(rng, 4))
        o1 = comb(ub, f1, g1, env=env)
        o2 = comb(ub, ub.compose(f1, ub.symmetry(env, b)), g1, env=env)
        d = unitary_comb_factor(ub, o1, o2)
        if d.verdict is not Verdict.DISTINCT or not d.certified:
            negative_failures += 1

    ok = positive_failures == 0 and negative_failures == 0
    report(
        7, ok,
        f"{positives} rotated pairs recovered (worst residual "
        f"{worst_recovery:.2e}), 30 swap-twisted pairs refuted, "
        f"{positive_failures + negative_failures} failures",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. Stars satisfy the snakes; names and splices behave
# ---------------------------------------------------------------------------

def test_criterion_08_poly_snakes_names_and_identity_splice():
    """Star pieces compose to identities at two-level dimensions, the
    one-hole name is the braid value with swapped legs, and splicing an
    identity comb into a hole changes nothing."""
    rng = np.random.default_rng(20250808)
    qb = MatrixBackend({"q": 2}, semiring="complex", tolerance=CHANNEL_TOL)
    q, qq = word("q"), word("q", "q")

    snake_failures = 0
    for a, a1 in [(q, q), (q, qq), (qq, q)]:
        for hole, ident in (
            (0, identity_comb(qb, a1, a)),
            (1, identity_comb(qb, a, a1)),
        ):
            snake = poly_compose_at(
                qb, star_counit(qb, a, a1), star_unit(qb, a, a1), hole
            )
            d = poly_equiv(qb, snake, ident)
            if d.verdict is not Verdict.EQUIVALENT or not d.certified:
                snake_failures += 1

    coherence_failures = 0
    for _ in range(200):
        a = [q, qq][rng.integers(2)]
        a1 = [q, qq][rng.integers(2)]
        b = [q, word()][rng.integers(2)]
        b1 = [q, word()][rng.integers(2)]
        e = [word(), q][rng.integers(2)]
        c = comb(qb, rand_mat(qb, rng, a, e @ b),
                 rand_mat(qb, rng, e @ b1, a1), env=e)
        named = poly_name(qb, c)
        rebuilt = qb.compose(braid_eval(qb, c), qb.symmetry(a1, b))
        if not qb.equal(named, rebuilt):
            coherence_failures += 1

    splice_failures = 0
    for _ in range(100):
        a = [q, qq][rng.integers(2)]
        e = [word(), q][rng.integers(2)]
        c = comb(qb, rand_mat(qb, rng, a, e @ q),
                 rand_mat(qb, rng, e @ q, a), env=e)
        spliced = poly_compose_at(qb, c, identity_comb(qb, q, q), 0)
        d = poly_equiv(qb, spliced, c)
        if d.verdict is not Verdict.EQUIVALENT or not d.certified:
            splice_failures += 1

    ok = snake_failures == 0 and coherence_failures == 0 and splice_failures == 0
    report(
        8, ok,
        f"6 snakes ({snake_failures} failures), 200 name/braid samples "
        f"({coherence_failures} failures), 100 identity splices "
        f"({splice_failures} failures) at tolerance {CHANNEL_TOL:.0e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. The graph embedding of functions preserves everything checkable
# ---------------------------------------------------------------------------

def test_criterion_09_function_lifting_preserves_structure():
    """Lifting finite functions to boolean graph matrices preserves
    composition and tensor of combs exactly, and certified verdicts
    transfer unchanged, over the whole budgeted enumeration."""
    ff = FinFunBackend({"s": 2, "t": 3})
    target, value_map = functions_as_boolean_matrices(ff)
    fun = lift_functor(
        ff, target,
        {name: ObjectWord.of(name) for name in ff.object_names()},
        value_map,
    )
    s = word("s")
    combs = list(enumerate_combs(ff, (s, s), (s, s), bound=1))

    def lifted_equal(cl, cr):
        return (
            cl.source == cr.source and cl.target == cr.target
            and cl.env == cr.env
            and target.equal(cl.f, cr.f) and target.equal(cl.g, cr.g)
        )

    pairs = 0
    compose_breaks = 0
    tensor_breaks = 0
    verdict_breaks = 0
    lifted = [fun.map_comb(c) for c in combs]
    for i, ci in enumerate(combs):
        for j, cj in enumerate(combs):
            pairs += 1
            if not lifted_equal(
                fun.map_comb(comb_compose(ff, ci, cj)),
                comb_compose(target, lifted[i], lifted[j]),
            ):
                compose_breaks += 1
            if not lifted_equal(
                fun.map_comb(comb_tensor(ff, ci, cj)),
                comb_tensor(target, lifted[i], lifted[j]),
            ):
                tensor_breaks += 1
            d_src = equiv_comb(ff, ci, cj)
            d_tgt = equiv_comb(target, lifted[i], lifted[j])
            if d_src.verdict is not d_tgt.verdict or not (
                d_src.certified and d_tgt.certified
            ):
                verdict_breaks += 1

    ok = compose_breaks == 0 and tensor_breaks == 0 and verdict_breaks == 0
    report(
        9, ok,
        f"{len(combs)} combs, {pairs} ordered pairs: {compose_breaks} "
        f"composition breaks, {tensor_breaks} tensor breaks, "
        f"{verdict_breaks} verdict breaks",
    )
    assert ok


# ---------------------------------------------------------------------------
# 10. The command line is deterministic byte for byte
# ---------------------------------------------------------------------------

def test_criterion_10_cli_output_is_deterministic(capsys):
    """Every bundled theory and program pair renders byte-identical JSON
    across two consecutive runs."""
    mismatches = 0
    runs = 0
    for thy, prog in BUNDLED:
        args = ["run", str(THEORIES / thy), str(THEORIES / prog),
                "--format", "json"]
        outputs = []
        for _ in range(2):
            code = cli_main(list(args))
            captured = capsys.readouterr()
            assert code == 0, captured.err
            json.loads(captured.out)
            outputs.append(captured.out.encode())
            runs += 1
        if outputs[0] != outputs[1]:
            mismatches += 1
    ok = mismatches == 0
    report(
        10, ok,
        f"{len(BUNDLED)} bundled suites, {runs} runs, {mismatches} byte mismatches",
    )
    assert ok
