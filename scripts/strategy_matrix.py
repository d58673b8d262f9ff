"""Digest what the CLI prints for every bundled pair under every strategy.

Runs ``opticomb run`` in process (``cli.main``) on the six bundled
theory/program pairs, under each ``--strategy`` choice, in text and JSON,
with and without ``--tolerance 0.001``: 168 runs.  Each run is recorded as
the sha256 of its exit code, stdout and stderr.  ``--write`` stores the
digests in tests/fixtures/cli/strategy_matrix.json; without it, the script
names each run whose digest differs from that file and exits 1 if any does.

Usage: python3 scripts/strategy_matrix.py [--write]
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from opticomb.cli import main as cli_main  # noqa: E402
from opticomb.program import STRATEGIES  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "cli" / "strategy_matrix.json"
PAIRS = ("idempotent", "pointed", "bool2", "qubit", "cartesian", "unitary")
FORMATS = ("text", "json")
TOLERANCES = (None, "0.001")


def run_digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of ``opticomb`` on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def digests() -> dict[str, str]:
    """Each run's digest, keyed ``pair/strategy/format/tolerance``."""
    table = {}
    for pair, strategy, fmt, tol in itertools.product(PAIRS, STRATEGIES, FORMATS, TOLERANCES):
        argv = ["run", str(ROOT / "theories" / f"{pair}.thy"),
                str(ROOT / "theories" / f"{pair}.prog"),
                "--strategy", strategy, "--format", fmt]
        if tol is not None:
            argv += ["--tolerance", tol]
        table[f"{pair}/{strategy}/{fmt}/{tol or 'theory'}"] = run_digest(argv)
    return table


def differing(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """The keys of either table whose digests differ or are missing."""
    return sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the fixture")
    args = parser.parse_args()
    got = digests()
    if args.write:
        FIXTURE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} digests to {FIXTURE.relative_to(ROOT)}")
        return 0
    bad = differing(json.loads(FIXTURE.read_text(encoding="utf-8")), got)
    for key in bad:
        print(f"differs: {key}")
    print(f"{len(got) - len(bad)} of {len(got)} runs match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
