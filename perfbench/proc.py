"""Child processes reaped with their own resource usage (no opticomb import)."""
from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_child(cmd: list[str], env: dict | None = None) -> CliResult:
    """Run a child to completion in the checkout root and reap it.

    ``os.wait4`` gives the peak memory of this child alone, which
    ``RUSAGE_CHILDREN`` (the largest of all children so far) cannot.
    Standard error is read after standard output; the programs run here
    write at most a short message to it.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=str(REPO))
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out, err, usage.ru_maxrss)
