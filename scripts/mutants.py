"""Apply each mutant of a fixed table to a copy of the checkout and run the
tests that must catch it.

A mutant is a one-place edit of the source: the file, a text that occurs
exactly once in it, and the text that replaces it.  For each mutant the
script copies the checkout into a temporary directory, applies the edit
there, runs only the mutant's tests with pytest, and prints ``caught`` when
every one of them fails, ``survived`` when one passes.  The checkout itself
is never edited.  The exit code is 1 when a mutant survives, or when its
text is missing or its tests cannot be run, else 0.

Usage: python3 scripts/mutants.py [name ...]   (default: the whole table)
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


ZIGZAG_GUARD = "if graded and scans_complete and not truncated:"
WITNESS_LAYOUT = "fields if len(fillers) != 1 else [f[0] for f in fields]"
TRAIL_TEST = "tests/test_optic.py::test_indexed_zigzag_matches_double_loop"
CLOSE_TEST = "tests/test_matrix_backend.py::TestClose"
COSTS_TEST = "tests/test_costs.py::test_operation_counts_match_fixture"

MUTANTS = (
    Mutant("absorbing braid values claimed conclusive", "src/opticomb/backends/free.py",
           '    name = "free-pointed-absorbing"\n    braid_conclusive = False',
           '    name = "free-pointed-absorbing"\n    braid_conclusive = True',
           ("tests/test_routes.py::TestOpticAutoBraidPrecheck::test_absorbing_braid_values_agree",
            "tests/test_polycomb.py::TestEquivalence::test_probe_route_refutes_on_enumerable")),
    Mutant("idempotent conclusive context length minus 1", "src/opticomb/backends/free.py",
           "return abs(len(target[0]) - len(target[1]))",
           "return abs(len(target[0]) - len(target[1])) - 1",
           ("tests/test_comb.py::TestSigmaTau::test_tau_certifies_on_complete_scan",)),
    Mutant("probe route certifies without complete hom scans", "src/opticomb/comb.py",
           "length >= needed and all(scans):", "length >= needed:",
           ("tests/test_cli.py::test_strategy_matrix_matches_fixture",
            "tests/test_comb.py::TestSigmaTau::test_an_incomplete_hom_scan_certifies_nothing")),
    Mutant("auto runs no screens", "src/opticomb/comb.py",
           'for screen in route.screens if strategy == "auto" else ():', "for screen in ():",
           ("tests/test_routes.py::TestOpticAutoBraidPrecheck::test_pointed_refuted_by_braid_value",
            "tests/test_routes.py::test_name_witness_contract[pointed]")),
    Mutant("slide search certifies DISTINCT without complete hom scans",
           "src/opticomb/optic.py", ZIGZAG_GUARD, "if graded and not truncated:",
           ("tests/test_optic.py::TestZigzag::test_an_incomplete_hom_scan_certifies_nothing",)),
    Mutant("slide search certifies DISTINCT on a truncated frontier",
           "src/opticomb/optic.py", ZIGZAG_GUARD, "if graded and scans_complete:",
           ("tests/test_optic.py::TestZigzag::test_a_truncated_frontier_certifies_nothing",)),
    Mutant("slide index lists its matches in reverse", "src/opticomb/optic.py",
           "index.setdefault(backend.canonical_key(side), []).append(",
           "index.setdefault(backend.canonical_key(side), []).insert(0, ",
           (f"{TRAIL_TEST}[pointed-II-0-2]", f"{TRAIL_TEST}[idempotent-2-1-2]")),
    Mutant("slide search scans the pieces beside an empty hom-set of v",
           "src/opticomb/optic.py",
           "pieces = (hom(a, e0 @ b) if down else hom(e0 @ b1, a1)) if vs.items else vs",
           "pieces = hom(a, e0 @ b) if down else hom(e0 @ b1, a1)",
           (f"{TRAIL_TEST}[finfun-empty]",)),
    Mutant("a warm index hit drops its scans' completeness", "src/opticomb/optic.py",
           "            indexes[key] = (index, vs.complete and pieces.complete)\n"
           "        index, complete = indexes[key]\n"
           "        scans_complete = scans_complete and complete\n",
           "            indexes[key] = (index, vs.complete and pieces.complete)\n"
           "            scans_complete = scans_complete and indexes[key][1]\n"
           "        index, complete = indexes[key]\n",
           ("tests/test_optic.py::test_emptied_tables_answer_as_warm_ones[pointed-II-0-1]",
            "tests/test_optic.py::test_emptied_tables_answer_as_warm_ones[absorbing]",
            "tests/test_optic.py::TestSharedSlideIndexes::test_bound_one_then_two")),
    Mutant("finfun kernel reads the first beside leg for every leg",
           "src/opticomb/backends/finfun.py",
           "legs = [(beside.table[i] * n_out, j)", "legs = [(beside.table[0] * n_out, j)",
           ("tests/test_comb.py::TestPlugKernel::test_kernel_matches_the_default_kernel[finfun]",
            "tests/test_comb.py::TestPlugKernel::test_kernel_matches_the_default_kernel"
            "[finfun-empty]")),
    Mutant("one-hole probe witness written with tuples", "src/opticomb/core.py",
           WITNESS_LAYOUT, "fields",
           ("tests/test_core.py::TestDecision::test_probe_witness_layout_round_trips[1]",
            "tests/test_cli.py::TestBundledPairs::test_json_matches_golden_copy"
            "[bool2.thy-bool2.prog]")),
    Mutant("splice without the environment beside the inner bottom", "src/opticomb/comb.py",
           "first = backend.compose(segs[j], backend.tensor(id_mj, in_segs[0]))",
           "first = backend.compose(segs[j], in_segs[0])",
           ("tests/test_comb.py::TestComposition::test_nested_evaluation_law",
            "tests/test_polycomb.py::TestPlugging::test_splice_into_two_hole_host")),
    Mutant("slide search leaves out the representatives' own environments",
           "src/opticomb/optic.py", "            env_list.append(extra)", "            pass",
           ("tests/test_optic.py::TestZigzag::"
            "test_the_representatives_environments_join_the_search",)),
    Mutant("chain walker plugs fewer fillers than contexts", "src/opticomb/comb.py",
           "if len(fillers) != n:", "if False:",
           ("tests/test_polycomb.py::TestEvaluation::test_filler_count_checked",)),
    Mutant("sized conclusive context length minus 1", "src/opticomb/core.py",
           "return max(len(hole_in), len(hole_out))",
           "return max(len(hole_in), len(hole_out)) - 1",
           ("tests/test_certificates.py::"
            "test_a_certified_probe_verdict_holds_one_word_longer[finfun-ss-sI]",)),
    Mutant("values on different boundaries compare", "src/opticomb/core.py",
           "if m1.dom != m2.dom or m1.cod != m2.cod:", "if False:",
           ("tests/test_matrix_backend.py::TestStructure::test_equal_requires_same_boundary",)),
    Mutant("wiring compose keeps the loops a rule cancels", "src/opticomb/backends/free.py",
           " and (s, e) not in self.rules]", "]",
           ("tests/test_free_backends.py::test_tuple_wirings_match_the_frozenset_algorithm",
            "tests/test_free_backends.py::TestPointed::test_state_effect_collapse")),
    Mutant("congruence-search names swap the hole the wrong way round", "src/opticomb/comb.py",
           "swap, id_b, id_b1 = backend.symmetry(b, b1),",
           "swap, id_b, id_b1 = backend.symmetry(b1, b),",
           ("tests/test_comb.py::TestCongruenceSearch::test_names_are_bend_split_at_the_hole"
            "[pointed]",
            "tests/test_comb.py::TestCongruenceSearch::test_names_are_bend_split_at_the_hole"
            "[bool]")),
    Mutant("slide search rebuilds its move index on every visit", "src/opticomb/optic.py",
           "if key not in indexes:", "if True:", (f"{COSTS_TEST}[slide-search]",)),
    Mutant("slide search rebuilds its neighbour lists on every visit", "src/opticomb/optic.py",
           "if key not in table:", "if True:", (f"{COSTS_TEST}[slide-search]",)),
    Mutant("the block plug repeats the block's first filler", "src/opticomb/comb.py",
           "backend.plug_lower(path[0][0], beside, list(firsts.values()))",
           "backend.plug_lower(path[0][0], beside, [block[0][0]] * len(firsts))",
           ("tests/test_comb.py::TestBlockScan::test_block_scan_matches_the_per_probe_scan[bool]",
            "tests/test_comb.py::TestPlugKernel::test_block_values_match_one_probe_values"
            "[complex]")),
    Mutant("close passes when any entry is close", "src/opticomb/backends/matrix.py",
           "(near | (a == b)).all()", "(near | (a == b)).any()",
           (f"{CLOSE_TEST}::test_close_is_allclose_on_special_values[0.0]",
            f"{CLOSE_TEST}::test_close_at_the_tolerance_edge")),
    Mutant("the n-comb shape check ignores the outer pairs", "src/opticomb/polycomb.py",
           "if p.holes != q.holes or p.outers != q.outers:", "if p.holes != q.holes:",
           ("tests/test_polycomb.py::TestEquivalence::test_outer_split_is_part_of_the_shape",)),
)


def run(mutant: Mutant) -> str:
    """``caught``, ``survived``, or an error that says why it could not run."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-out"))
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"error: the old text occurs {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        )
    if done.returncode not in (0, 1):
        return f"error: pytest exited {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
    passed = [line for line in done.stdout.splitlines() if line.startswith("PASSED ")]
    return "survived: " + ", ".join(passed) if passed else "caught"


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    bad = 0
    for mutant in chosen:
        outcome = run(mutant)
        bad += outcome != "caught"
        print(f"{mutant.name}: {outcome}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
