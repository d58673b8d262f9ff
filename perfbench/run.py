#!/usr/bin/env python3
"""Decision benchmark for opticomb.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide-mix --seed 1 --seconds 20 --trace 0

Workloads: filler-search, decide-mix, slide-search, cli-bundled (see
perfbench/README.md for why each exists).  Every workload is one process
with one thread in a closed loop: the caller waits for each verdict before
it asks the next question.  The seed makes the inputs; the program under
test sees only the inputs.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the same run is repeated with
spans around every layer call and the JSON holds the per-layer metrics.
Lines before it restate each metric with its unit, the tail percentile and
its sample count, and the error ratio.  Spans of traced runs are written
to ``.perfbench-out/`` at the root of the checkout.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from proc import CliResult, run_child

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT_DIR = REPO / ".perfbench-out"

WORKLOADS = ("filler-search", "decide-mix", "slide-search", "cli-bundled")

#: fresh processes timed from launch to ready inputs; setup_s is their median
SETUP_RUNS = 5

#: the tail is read at the sample with this many samples beyond it
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the fresh processes the benchmark starts itself
    parser.add_argument("--child", choices=("setup", "cli"), help=argparse.SUPPRESS)
    parser.add_argument("--program", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_setup(args) -> int:
    """Build the inputs in a fresh process and print when they are ready."""
    import workloads

    queries = workloads.WORKLOAD_INPUTS[args.workload](args.seed)
    if args.workload == "cli-bundled":
        from opticomb.program import load_program
        from opticomb.theory import load_theory

        import checks

        checks.load_expected()
        for name in workloads.BUNDLED:
            load_theory(str(workloads.THEORIES / f"{name}.thy"))
            load_program(str(workloads.THEORIES / f"{name}.prog"))
    ready = time.monotonic()
    from calibrate import kernel_seconds

    print(json.dumps({"ready": ready, "kernel_s": kernel_seconds(),
                      "queries": len(queries)}))
    return 0


def child_cli(args) -> int:
    """Run one bundled program through the CLI with tracing on."""
    import contextlib
    import importlib
    import io

    start = time.perf_counter()
    cli = importlib.import_module("opticomb.cli")
    import_s = time.perf_counter() - start

    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.begin_query(0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(workloads.cli_args(args.program))
    tracing.uninstall(tracer)
    summary = {
        "import_s": import_s,
        "profile": tracer.profile(),
        "counters": dict(tracer.counters),
    }
    tracer.write(OUT_DIR / f"cli-bundled-{args.program}.spans.npz")
    sys.stdout.write(out.getvalue())
    # standard output stays the CLI's own bytes; the summary goes last on stderr
    print(json.dumps(summary), file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(args) -> tuple[list[float], list[float]]:
    """Launch-to-ready times of fresh processes, raw and at reference speed."""
    from calibrate import REFERENCE_S

    raw, scaled = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_RUNS):
        launched = time.monotonic()
        res = run_child(cmd)
        if res.returncode != 0:
            raise RuntimeError(f"setup child failed: {res.stderr.decode(errors='replace')}")
        report = json.loads(res.stdout.decode().strip().splitlines()[-1])
        raw.append(report["ready"] - launched)
        scaled.append(raw[-1] * REFERENCE_S / report["kernel_s"])
    return raw, scaled


class Pass:
    """One run of the fixed query set.  ``kernel`` selects the speedometer
    runs made during it; ``scale`` turns its raw times into times at
    reference speed."""

    def __init__(self, wall: float, times: list[float], answers: list,
                 kernel: slice = slice(0, 0)):
        self.wall = wall
        self.times = times
        self.answers = answers
        self.kernel = kernel
        self.scale = 1.0


def run_pass(queries, tracer=None, keep=True, speed=None) -> Pass:
    """Ask every query once.  Without ``keep`` only the answers' fingerprints
    outlive the pass, so the harness's own heap does not grow pass by pass.

    With a speedometer, time spent in its kernel is left out of every time
    recorded, and it may take a sample after every query.
    """
    from workloads import run_query

    times, answers = [], []
    pass_mark = speed.mark() if speed is not None else 0
    started = time.perf_counter()
    for qid, q in enumerate(queries):
        if tracer is not None:
            tracer.begin_query(qid)
        mark = speed.mark() if speed is not None else 0
        t0 = time.perf_counter()
        try:
            answer = run_query(q)
        except Exception as exc:  # a raising query is an error, not a crash
            answer = exc
        t1 = time.perf_counter()
        times.append(t1 - t0 - (speed.inside(mark, t0, t1) if speed is not None else 0.0))
        answers.append(answer)
        if speed is not None:
            speed.after_query()
    finished = time.perf_counter()
    wall = finished - started
    if speed is not None:
        wall -= speed.inside(pass_mark, started, finished)
    if not keep:
        answers = [a if isinstance(a, CliResult) else fingerprint(a) for a in answers]
    return Pass(wall, times, answers,
                slice(pass_mark, speed.mark()) if speed is not None else slice(0, 0))


def run_for(queries, seconds: float, tracer=None, on_pass=None, speed=None) -> list[Pass]:
    """Whole passes until ``seconds`` have gone by; at least one."""
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        lo = len(tracer.start) if tracer is not None else 0
        before = dict(tracer.counters) if tracer is not None else None
        p = run_pass(queries, tracer, keep=not passes, speed=speed)
        if on_pass is not None:
            on_pass(p, lo, before)
        passes.append(p)
    return passes


def warmup_queries(workload: str, queries):
    import workloads

    if workload == "filler-search":
        return workloads.filler_search_warmup()
    if workload == "cli-bundled":
        return queries[:1]
    if workload == "slide-search":
        return queries[:20]
    return queries[:200]


def fingerprint(answer):
    """What must repeat exactly from pass to pass."""
    from opticomb import Decision

    if isinstance(answer, tuple):
        return answer
    if isinstance(answer, Exception):
        return ("raised", type(answer).__name__, str(answer))
    if isinstance(answer, Decision):
        return (answer.verdict.value, answer.certified, answer.method)
    if isinstance(answer, CliResult):
        return (answer.returncode, answer.stdout)
    return ("search", answer is None)


def tail(passes: list[Pass]) -> tuple[float, str]:
    """The highest percentile with ten samples beyond it, and how it was read.

    That is the eleventh-largest sample.  It is read in every pass and the
    median over passes is reported, so one stall of the machine moves one
    pass and not the run.  When a pass holds too few queries for it
    (filler-search, cli-bundled), all samples of the run are pooled.
    """
    per_pass = len(passes[0].times)
    if per_pass > 2 * TAIL_BEYOND:
        value = statistics.median(sorted(p.times)[-TAIL_BEYOND - 1] for p in passes)
        return value, (f"p{100 * (1 - TAIL_BEYOND / per_pass):.4g} of each pass's "
                       f"{per_pass} samples, {TAIL_BEYOND} beyond it; median of "
                       f"{len(passes)} passes")
    samples = sorted(t for p in passes for t in p.times)
    if len(samples) > 2 * TAIL_BEYOND:
        return samples[-TAIL_BEYOND - 1], (
            f"p{100 * (1 - TAIL_BEYOND / len(samples)):.4g} of {len(samples)} pooled "
            f"samples, {TAIL_BEYOND} beyond it")
    return samples[-1], f"maximum of {len(samples)} samples, too few for a percentile"


def check_answers(workload: str, queries, passes: list[Pass]) -> tuple[list, list[bool]]:
    """Per-query error (or None) and the certified flags of the first pass."""
    import checks

    first = passes[0]
    errors: list[str | None] = [None] * len(queries)
    flags: list[bool] = []
    checker = checks.Checker()
    expected = checks.load_expected() if workload == "cli-bundled" else None
    for i, q in enumerate(queries):
        answer = first.answers[i]
        if isinstance(answer, Exception):
            errors[i] = f"raised {type(answer).__name__}: {answer}"
            continue
        if any(fingerprint(p.answers[i]) != fingerprint(answer) for p in passes[1:]):
            errors[i] = "answer changed between passes"
        elif expected is not None:
            errors[i], cli_flags = checks.check_cli(q.meta["program"], answer, expected)
            flags.extend(cli_flags)
            continue
        else:
            errors[i] = checker.check(q, answer)
        flags.append(checks.certified(answer))
    return errors, flags


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def emit(result: dict, notes: list[str]) -> None:
    for line in notes:
        print(line)
    print(json.dumps(result))


def timings(passes: list[Pass]) -> tuple[dict, str]:
    """wall_s, verdict_p50_ms and verdict_tail_ms of the passes as they are
    scaled, and how the tail was read."""
    scaled = [Pass(p.wall * p.scale, [t * p.scale for t in p.times], p.answers)
              for p in passes]
    samples = [t for p in scaled for t in p.times]
    tail_s, tail_note = tail(scaled)
    return {
        "wall_s": (statistics.median(p.wall for p in scaled), "s"),
        "verdict_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "verdict_tail_ms": (tail_s * 1e3, "ms"),
    }, tail_note


def end_to_end(args, setup, passes, errors, flags, rss_kb, speed) -> tuple[dict, list[str]]:
    setup_raw, setup_scaled = setup
    timed, tail_note = timings(passes)
    raw, _ = timings([Pass(p.wall, p.times, p.answers) for p in passes])
    metrics = {"setup_s": (statistics.median(setup_scaled), "s")}
    metrics.update(timed)
    metrics["certified_ratio"] = (sum(flags) / len(flags) if flags else 0.0, "ratio")
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    notes = [f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
             f"queries/pass {len(passes[0].times)}"]
    scales = sorted({p.scale for p in passes})
    factor = (f"{scales[0]:.4f}" if len(scales) == 1 else
              f"{scales[0]:.4f} to {scales[-1]:.4f}, one per pass")
    notes.append(f"wall_s, verdict_p50_ms and verdict_tail_ms at reference speed = "
                 f"raw x {factor} (from {len(speed.runs)} {type(speed).__name__} samples)")
    for name, (value, unit) in metrics.items():
        extra = f"  (raw {raw[name][0]:.6g})" if name in raw else ""
        if name == "setup_s":
            extra += (f"  (raw {statistics.median(setup_raw):.6g}; median of "
                      f"{len(setup_raw)} fresh processes, each scaled by its own kernel time)")
        elif name == "verdict_tail_ms":
            extra += f"  ({tail_note})"
        elif name == "wall_s":
            extra += f"  (median of {len(passes)} passes)"
        notes.append(f"{name:16s} {value:.6g} {unit}{extra}")
    failed_queries = sum(e is not None for e in errors)
    notes.append(f"error_ratio      {failed_queries / len(errors):.6g} ratio  "
                 f"({failed_queries} of {len(errors)} queries)")
    for i, e in enumerate(errors):
        if e is not None:
            notes.append(f"  error in query {i}: {e}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def run_benchmark(args) -> int:
    setup = measure_setup(args)

    start = time.perf_counter()
    import opticomb  # noqa: F401
    import_s = time.perf_counter() - start
    import workloads
    import checks  # noqa: F401  (imported before timing, used after it)

    queries = workloads.WORKLOAD_INPUTS[args.workload](args.seed)
    run_pass(warmup_queries(args.workload, queries))
    # the inputs live for the whole run: keep the collector from walking
    # them again and again while the program is timed
    gc.collect()
    gc.freeze()

    if args.trace:
        return traced_run(args, queries, import_s)

    from calibrate import LaunchSpeedometer, Speedometer

    if args.workload == "cli-bundled":
        # the CLI runs in child processes: a reference child after each of
        # them gives every pass its own scale
        speed = LaunchSpeedometer()
        passes = run_for(queries, args.seconds, speed=speed)
        for p in passes:
            p.scale = speed.scale(p.kernel)
    else:
        speed = Speedometer()
        with speed.sampling():
            passes = run_for(queries, args.seconds, speed=speed)
        for p in passes:
            p.scale = speed.scale()
    if args.workload == "cli-bundled":
        rss_kb = max(a.maxrss_kb for p in passes for a in p.answers
                     if isinstance(a, CliResult))
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors, flags = check_answers(args.workload, queries, passes)
    metrics, notes = end_to_end(args, setup, passes, errors, flags, rss_kb, speed)
    attempted = len(queries) * len(passes)
    failed = sum(e is not None for e in errors) * len(passes)
    emit({"correct": failed == 0, "attempted": attempted, "failed": failed,
          "metrics": metrics}, notes)
    return 0


def traced_run(args, queries, import_s: float) -> int:
    """Untraced then traced passes; per-layer times are raw, not scaled."""
    import tracing
    import workloads

    untraced = run_for(queries, args.seconds / 2)

    tracer = tracing.Tracer()
    per_pass: list[dict] = []
    if args.workload == "cli-bundled":
        traced_queries = [
            workloads.Query(q.family, "cli", None, (
                [sys.executable, str(Path(__file__).resolve()), "--child", "cli",
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--program", q.meta["program"]],
                q.args[1]), meta=q.meta)
            for q in queries
        ]

        def on_pass(p, lo, before):
            summaries = [
                json.loads(a.stderr.decode().strip().splitlines()[-1])
                for a in p.answers if isinstance(a, CliResult) and a.returncode == 0
            ]
            profile = tracing.merge_profiles([s["profile"] for s in summaries])
            counters: dict = {}
            for s in summaries:
                for k, v in s["counters"].items():
                    counters[k] = counters.get(k, 0) + v
            counters["cli.import_s"] = statistics.median(s["import_s"] for s in summaries)
            per_pass.append(tracing.layer_metrics(profile, counters))

        traced = run_for(traced_queries, args.seconds / 2, on_pass=on_pass)
    else:
        tracing.install(tracer)
        seen = set()
        for q in queries:
            if id(q.backend) not in seen:
                seen.add(id(q.backend))
                tracing.instrument_backend(tracer, q.backend)

        def on_pass(p, lo, before):
            counters = {k: v - before.get(k, 0) for k, v in tracer.counters.items()}
            counters["cli.import_s"] = import_s
            per_pass.append(tracing.layer_metrics(tracer.profile(lo), counters))

        traced = run_for(queries, args.seconds / 2, tracer, on_pass)
        tracing.uninstall(tracer)
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.npz")

    overhead = (statistics.median(p.wall for p in traced)
                - statistics.median(p.wall for p in untraced))
    errors, _ = check_answers(args.workload, queries, untraced + traced)
    counts_repeat = all(
        m[name] == per_pass[0][name]
        for m in per_pass[1:]
        for name, unit, _ in tracing.per_layer_spec()
        if unit == "count"
    )
    metrics = {}
    notes = [f"workload {args.workload}  seed {args.seed}  traced run: "
             f"{len(untraced)} untraced and {len(traced)} traced passes; counts "
             f"{'repeat exactly' if counts_repeat else 'DIFFER'} across traced passes"]
    for name, unit, _ in tracing.per_layer_spec():
        if name == "trace.overhead_s":
            value = overhead
        elif unit == "count":
            value = per_pass[0][name]
        else:
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = {"value": value, "unit": unit}
        notes.append(f"{name:48s} {value:.6g} {unit}")
    attempted = len(queries) * (len(untraced) + len(traced))
    failed = sum(e is not None for e in errors) * (len(untraced) + len(traced))
    emit({"correct": failed == 0 and counts_repeat, "attempted": attempted,
          "failed": failed, "metrics": metrics}, notes)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "opticomb" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'opticomb'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child == "setup":
        return child_setup(args)
    if args.child == "cli":
        return child_cli(args)
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
