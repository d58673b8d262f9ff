"""Known-answer checks, run after the timed region.

A query is in error when it raised, when its verdict contradicts a known
answer, or when its witness does not replay.  UNKNOWN never counts as an
error: a later change may turn an UNKNOWN into a certified verdict.

Known answers come from how the inputs were built and from the theory,
never from an earlier run of the program:

* slide-related pairs (one ``push_up`` apart by construction) are never
  certified DISTINCT, under any of the four relations;
* optic EQUIVALENT implies comb is not DISTINCT, and a certified sigma or
  tau DISTINCT implies comb is not EQUIVALENT (slides preserve every
  filler value; the swap filler and the trivial-context fillers are
  fillers);
* a finite-function verdict equals the verdict on its boolean-matrix
  graph (acceptance criterion 09);
* isometry-padded dilations have equal channels, random dilations of
  random maps do not (acceptance criterion 06);
* the idempotent slide classes are known by hand
  (:func:`workloads.idempotent_slide_answer`);
* every probe, slide-path and factor witness replays;
* criterion 05's searches return ``None`` (``SEARCH_ANALYSIS`` in the
  acceptance suite);
* the bundled CLI programs give the verdicts in ``expected_verdicts.json``.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from opticomb import (
    Budget,
    Decision,
    ExhaustionWitness,
    FactorWitness,
    Mat,
    ProbeWitness,
    SlidePathWitness,
    Verdict,
    check_probe_witness,
    equiv_comb,
    equiv_sigma,
    functions_as_boolean_matrices,
    lens_pair,
    lift_functor,
    ObjectWord,
    to_cpm,
)

from workloads import DISTINCT, EQUIVALENT, Query

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_verdicts.json"


def _contradicts(verdict: Verdict, certified: bool, known: str | None) -> bool:
    if known == EQUIVALENT:
        return verdict is Verdict.DISTINCT and certified
    if known == DISTINCT:
        return verdict is Verdict.EQUIVALENT
    return False


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

def replay_slide_path(backend, o1, o2, witness: SlidePathWitness, bound: int) -> bool:
    """Follow the moves one by one from ``o1`` and arrive at ``o2``.

    A step records the moved piece v and the new environment but not the
    factor left behind, so each step keeps every factor that fits, found by
    scanning the same bounded hom-sets the search used.
    """
    (a, a1), (b, b1) = o1.source, o1.target
    max_hom = Budget.of(bound).max_hom
    id_b, id_b1 = backend.identity(b), backend.identity(b1)
    states = [(o1.env, o1.f, o1.g)]
    for step in witness.steps:
        v, e0 = step.v, step.residual
        reached = {}
        for e, f, g in states:
            if step.direction == "push_down":
                if backend.dom(v) != e0 or backend.cod(v) != e:
                    continue
                for f0 in backend.enumerate_hom(a, e0 @ b, max_hom).items:
                    if backend.equal(backend.compose(f0, backend.tensor(v, id_b)), f):
                        g0 = backend.compose(backend.tensor(v, id_b1), g)
                        reached[_key(backend, e0, f0, g0)] = (e0, f0, g0)
            elif step.direction == "push_up":
                if backend.dom(v) != e or backend.cod(v) != e0:
                    continue
                for g0 in backend.enumerate_hom(e0 @ b1, a1, max_hom).items:
                    if backend.equal(backend.compose(backend.tensor(v, id_b1), g0), g):
                        f1 = backend.compose(f, backend.tensor(v, id_b))
                        reached[_key(backend, e0, f1, g0)] = (e0, f1, g0)
            else:
                return False
        states = list(reached.values())
        if not states:
            return False
    return any(
        e == o2.env and backend.equal(f, o2.f) and backend.equal(g, o2.g)
        for e, f, g in states
    )


def _key(backend, e, f, g):
    return (e, backend.canonical_key(f), backend.canonical_key(g))


def _replay_factor(q: Query, d: Decision) -> bool:
    backend, (c1, c2) = q.backend, q.args
    w: FactorWitness = d.witness
    if d.method == "lens-components":
        get1, put1 = lens_pair(backend, c1)
        get2, put2 = lens_pair(backend, c2)
        p = w.pieces
        same = all(backend.equal(x, y) for x, y in (
            (p["get_left"], get1), (p["get_right"], get2),
            (p["put_left"], put1), (p["put_right"], put2)))
        return same and not (backend.equal(get1, get2) and backend.equal(put1, put2))
    if d.method == "unitary-factorization":
        tol = 10 * backend.tolerance
        (b, b1) = c1.target
        rot = Mat(c1.env, c2.env, np.asarray(w.pieces["rotation"]))
        inv = Mat(c2.env, c1.env, np.asarray(w.pieces["inverse_rotation"]))
        bottom = backend.compose(c1.f, backend.tensor(rot, backend.identity(b)))
        top = backend.compose(backend.tensor(inv, backend.identity(b1)), c1.g)
        cancel = np.max(np.abs(inv.array @ rot.array - np.eye(rot.array.shape[1])))
        slid = (np.max(np.abs(bottom.array - c2.f.array)) <= tol
                and np.max(np.abs(top.array - c2.g.array)) <= tol
                and cancel <= tol)
        return slid == d.is_equivalent()
    if d.method == "transfer-compare":
        t1, t2 = to_cpm(backend, c1).transfer, to_cpm(backend, c2).transfer
        return float(np.max(np.abs(t1 - t2))) > d.tolerance
    return False


def _replay_probe(q: Query, d: Decision) -> bool:
    backend, (c1, c2) = q.backend, q.args
    w: ProbeWitness = d.witness
    if q.relation == "cpinf":
        out1 = to_cpm(backend, c1).apply(w.probe)
        out2 = to_cpm(backend, c2).apply(w.probe)
        return not np.allclose(out1, out2, rtol=0.0, atol=10 * d.tolerance)
    return check_probe_witness(backend, c1, c2, w)


def witness_replays(q: Query, d: Decision) -> bool:
    w = d.witness
    if w is None or isinstance(w, ExhaustionWitness):
        return True
    if isinstance(w, ProbeWitness):
        return _replay_probe(q, d)
    if isinstance(w, SlidePathWitness):
        return replay_slide_path(q.backend, *q.args, w, q.kwargs.get("bound", 2))
    if isinstance(w, FactorWitness):
        return _replay_factor(q, d)
    return False


# ---------------------------------------------------------------------------
# Per-query rules
# ---------------------------------------------------------------------------

class Checker:
    """Checks answers of one pass; caches the reference decisions it needs."""

    def __init__(self) -> None:
        self._lifts: dict[int, tuple] = {}

    def check(self, q: Query, answer: Any) -> str | None:
        """``None`` when the answer is right, else a one-line reason."""
        if q.relation == "search":
            return None if answer is None else "search found a witness; known answer is None"
        if q.relation == "cli":
            return None  # checked per program in check_cli
        if not isinstance(answer, Decision):
            return f"not a decision: {answer!r}"
        d = answer
        if _contradicts(d.verdict, d.certified, q.known):
            return f"{d.verdict.value} contradicts known {q.known}"
        if not witness_replays(q, d):
            return f"{d.method} witness does not replay"
        if q.relation in ("sigma", "tau", "comb", "optic") and q.family != "idempotent":
            return self._implications(q, d)
        return None

    def _implications(self, q: Query, d: Decision) -> str | None:
        backend, (c1, c2) = q.backend, q.args
        if d.is_equivalent() and q.relation == "optic":
            ref = equiv_comb(backend, c1, c2)
            if ref.is_distinct():
                return "optic EQUIVALENT but comb DISTINCT"
        if d.is_equivalent() and q.relation == "comb":
            ref = equiv_sigma(backend, c1, c2)
            if ref.is_distinct():
                return "comb EQUIVALENT but sigma DISTINCT"
        if d.is_distinct() and d.certified and q.relation in ("sigma", "tau"):
            ref = equiv_comb(backend, c1, c2)
            if ref.is_equivalent():
                return f"{q.relation} DISTINCT but comb EQUIVALENT"
        if q.family.startswith("finfun-") and q.relation == "comb":
            fun = self._lift(backend)
            lifted = equiv_comb(fun.target, fun.map_comb(c1), fun.map_comb(c2))
            if lifted.certified and d.certified and lifted.verdict is not d.verdict:
                return "verdict differs from the boolean graph model"
        return None

    def _lift(self, ff):
        key = id(ff)
        if key not in self._lifts:
            target, value_map = functions_as_boolean_matrices(ff)
            fun = lift_functor(
                ff, target,
                {name: ObjectWord.of(name) for name in ff.object_names()},
                value_map,
            )
            self._lifts[key] = (ff, fun)
        return self._lifts[key][1]


def certified(answer: Any) -> bool:
    """A decision's certified flag; a search answer is definite by design."""
    if isinstance(answer, Decision):
        return answer.certified
    return True


# ---------------------------------------------------------------------------
# CLI programs
# ---------------------------------------------------------------------------

def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def check_cli(name: str, result, expected: dict) -> tuple[str | None, list[bool]]:
    """Check one CLI run; returns (error or None, certified flag per decision)."""
    if result.returncode != 0:
        return f"exit {result.returncode}: {result.stderr.decode(errors='replace')[-200:]}", []
    try:
        data = json.loads(result.stdout)
    except ValueError:
        return "stdout is not JSON", []
    want = expected[name]["queries"]
    got = {entry["query"]: entry for entry in data["queries"]}
    flags = [e["result"]["certified"] for e in data["queries"] if e["kind"] == "decision"]
    for query, spec in want.items():
        entry = got.get(query)
        if entry is None:
            return f"missing query {query!r}", flags
        res = entry["result"]
        if "verdict" in spec:
            verdict = Verdict(res["verdict"])
            if _contradicts(verdict, res["certified"], spec["verdict"]):
                return f"{query!r}: {verdict.value} contradicts known {spec['verdict']}", flags
        for key in ("completely_positive", "trace_preserving"):
            if key in spec and res.get(key) is not spec[key]:
                return f"{query!r}: {key} is {res.get(key)}", flags
    if len(flags) != expected[name]["decisions"]:
        return f"{len(flags)} decisions, expected {expected[name]['decisions']}", flags
    return None, flags
