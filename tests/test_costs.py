"""Backend operation counts of the benchmark's in-process workloads, pinned.

Counts do not depend on the machine, so a change that makes a workload do
more work (or less) shows here even when wall times are too noisy to tell.
``scripts/costs.py`` counts one pass of each seed-201 query set; a change
that moves a count on purpose regenerates the fixture with ``--write`` and
lists the changes it prints.
"""
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _costs():
    spec = importlib.util.spec_from_file_location("costs", ROOT / "scripts" / "costs.py")
    costs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(costs)
    return costs


costs = _costs()


@pytest.mark.parametrize("workload", sorted(costs.WORKLOADS))
def test_operation_counts_match_fixture(workload):
    """Every count equals the fixture's; a fall fails as well as a rise."""
    expected = json.loads(costs.FIXTURE.read_text(encoding="utf-8"))
    got = costs.counts(workload)
    assert costs.differing({workload: expected[workload]}, {workload: got}) == []


def test_a_warm_slide_search_pass_scans_no_hom_set():
    """The slide search's move indexes keep the completeness of the hom-set
    scans they were built from, so a second seed-201 pass on the same
    backends finds every move in them and scans nothing."""
    queries = costs.WORKLOADS["slide-search"](costs.SEED)
    for q in queries:
        costs.workloads.run_query(q)
    warm = Counter()
    for backend in {id(q.backend): q.backend for q in queries}.values():
        costs._count_calls(backend, warm)
    for q in queries:
        costs.workloads.run_query(q)
    assert warm["canonical_key"] and warm["enumerate_hom"] == 0
