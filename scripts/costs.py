"""Count the backend operations of the in-process benchmark workloads.

Builds the seed-201 query sets of filler-search, slide-search and
decide-mix with ``perfbench/workloads.py`` (read, never edited), wraps 11
operations on each backend instance the queries use, runs one pass of each
set, and tallies the calls per backend class and operation.  Operation
counts do not depend on the machine, so they carry a cost claim from one
session to the next: ``tests/test_costs.py`` compares them with
``tests/fixtures/costs.json``, and any difference fails, a fall as well as
a rise.

Without ``--write`` the script prints each count that differs from the
fixture and exits 1 if one does; ``--write`` stores the counts in the
fixture and prints each count that changed, old and new.

Usage: python3 scripts/costs.py [--write]
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "costs.json"
SEED = 201
WORKLOADS = {
    "filler-search": workloads.filler_search,
    "slide-search": workloads.slide_search,
    "decide-mix": workloads.decide_mix,
}
OPERATIONS = ("compose", "tensor", "symmetry", "identity", "equal", "enumerate_hom",
              "canonical_key", "plug_lower", "plug_upper", "block_key", "bend")


def _count_calls(backend, counts: Counter) -> None:
    """Rebind each operation on the instance to one that counts its calls,
    the backend's own calls through ``self`` included."""
    for op in OPERATIONS:
        method = getattr(backend, op)

        def counted(*args, _method=method, _op=op, **kwargs):
            counts[_op] += 1
            return _method(*args, **kwargs)

        setattr(backend, op, counted)


def counts(workload: str) -> dict[str, dict[str, int]]:
    """One pass of ``workload``'s seed-201 queries on the backends its builder
    made: calls per backend class and operation, zeros left out."""
    queries = WORKLOADS[workload](SEED)
    tallies: dict[str, Counter] = {}
    for backend in {id(q.backend): q.backend for q in queries}.values():
        _count_calls(backend, tallies.setdefault(type(backend).__name__, Counter()))
    for q in queries:
        workloads.run_query(q)
    return {cls: dict(sorted(c.items())) for cls, c in sorted(tallies.items()) if c}


def all_counts() -> dict[str, dict[str, dict[str, int]]]:
    return {name: counts(name) for name in WORKLOADS}


def differing(old: dict, new: dict) -> list[str]:
    """One line per count that differs, ``workload class.operation: old -> new``."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        o, n = old.get(name, {}), new.get(name, {})
        for cls in sorted(o.keys() | n.keys()):
            for op in sorted(o.get(cls, {}).keys() | n.get(cls, {}).keys()):
                before, after = o.get(cls, {}).get(op, 0), n.get(cls, {}).get(op, 0)
                if before != after:
                    lines.append(f"{name} {cls}.{op}: {before} -> {after}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="store the counts in the fixture")
    args = parser.parse_args(argv)
    old = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    new = all_counts()
    changed = differing(old, new)
    for line in changed:
        print(line)
    if args.write:
        FIXTURE.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {FIXTURE.relative_to(ROOT)}: {len(changed)} counts changed")
        return 0
    print(f"{len(changed)} counts differ from {FIXTURE.relative_to(ROOT)}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
