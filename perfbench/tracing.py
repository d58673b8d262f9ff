"""Span tracing for the traced benchmark run, from outside the library.

Nothing in ``src/`` knows about tracing.  :func:`install` rebinds the public
layer functions in every ``opticomb`` module that holds them (``extended_eval``
is bound in both ``opticomb.comb`` and ``opticomb.optic``, for instance), and
:func:`instrument_backend` shadows the primitives of one backend instance
with traced wrappers.  Each call records a span: name, start, end, parent
span and query id, kept in flat arrays in memory and written out once at the
end.  A span's self time is its duration minus the durations of its direct
children; calls are strictly nested because the benchmark has one thread.

Alongside the spans the tracer keeps counts that do not depend on the
machine: items returned by ``enumerate_hom``, ``equal`` calls that said
yes, decisions per route, slide states explored, and comb pairs probed by
``extended_eval``.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np

BACKEND_OPS = (
    "compose", "tensor", "identity", "symmetry", "equal", "enumerate_hom",
    "canonical_key",
)
BACKEND_LAYERS = ("matrix", "finfun", "free", "unitary")

COMB_ROUTES = ("braid-value", "lens-components", "enumerated-probes")
OPTIC_ROUTES = ("name-form", "lens-components", "slide-search", "unitary-factorization")

#: (module, function) pairs traced as spans named ``<layer>.<function>``.
#: The layer is the module path below ``opticomb``.
LAYER_FUNCTIONS = (
    ("comb", "extended_eval"),
    ("comb", "braid_eval"),
    ("comb", "sigma_congruence_search"),
    ("comb", "equiv_comb"),
    ("comb", "equiv_sigma"),
    ("comb", "equiv_tau"),
    ("optic", "equiv_optic"),
    ("cpm", "cpm_equiv"),
    ("cpm", "cpinf_equiv"),
    ("cpm", "to_cpm"),
    ("polycomb", "poly_equiv"),
    ("polycomb", "poly_extended_eval"),
    ("core", "eval_term"),
    ("theory", "load_theory"),
    ("program", "load_program"),
    ("program", "run_program"),
    ("program", "render_json"),
)


def backend_layer(backend: Any) -> str:
    """The ``backends.<layer>`` module a backend instance comes from."""
    module = type(backend).__module__
    return module.rsplit(".", 1)[-1]


class Tracer:
    """In-memory spans plus machine-independent counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.query = array("i")
        self.stack: list[int] = []
        self.query_id = -1
        self.counters: Counter = Counter()
        # extended_eval pair detection: the comb and filler of the previous
        # call, and the pairs seen in the current query (held so that object
        # ids cannot be reused while they are compared)
        self._last_eval: tuple | None = None
        self._pairs: dict[tuple[int, int], tuple] = {}
        # how to undo install() and instrument_backend()
        self.undo: list[Callable[[], None]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_query(self, qid: int) -> None:
        self.query_id = qid
        self._last_eval = None
        self._pairs = {}

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.query_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def duration_s(self, idx: int) -> float:
        return (self.end[idx] - self.start[idx]) / 1e9

    def note_extended_eval(self, c: Any, filler: Any) -> None:
        """Two consecutive evaluations of one filler on two combs probe a pair."""
        last = self._last_eval
        if last is not None and last[1] is filler and last[0] is not c:
            key = (id(last[0]), id(c))
            if key not in self._pairs:
                self._pairs[key] = (last[0], c)
                self.counters["comb.extended_eval.pairs"] += 1
        self._last_eval = (c, filler)

    # -- aggregation ----------------------------------------------------------

    def profile(self, lo: int = 0, hi: int | None = None) -> dict[str, dict[str, float]]:
        """Calls, self time and total time per span name over spans [lo, hi)."""
        hi = len(self.start) if hi is None else hi
        if hi <= lo:
            return {}
        start = np.frombuffer(self.start, dtype=np.int64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.int64)[lo:hi]
        names = np.frombuffer(self.name_of, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64) - lo
        dur = (end - start).astype(np.float64) / 1e9
        child = np.zeros(hi - lo)
        inside = parent >= 0
        np.add.at(child, parent[inside], dur[inside])
        own = dur - child
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        self_s = np.bincount(names, weights=own, minlength=n)
        total_s = np.bincount(names, weights=dur, minlength=n)
        return {
            self.names[i]: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "total_s": float(total_s[i]),
            }
            for i in range(n) if calls[i]
        }

    def write(self, path: Path) -> None:
        """Write every span (and the name table) to a compressed ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            query=np.frombuffer(self.query, dtype=np.int32),
        )


def _wrap(tracer: Tracer, name: str, fn: Callable,
          after: Callable[[int, tuple, Any], None] | None = None,
          before: Callable[[tuple], None] | None = None) -> Callable:
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        if before is not None:
            before(args)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(idx, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Trace a generator function: one span per item produced."""
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        tracer.counters[f"{name}.calls"] += 1
        inner = fn(*args, **kwargs)
        while True:
            idx = tracer.open(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            tracer.counters[f"{name}.reps"] += 1
            yield item

    traced.__wrapped__ = fn
    return traced


def _rebind(tracer: Tracer, original: Callable, replacement: Callable) -> None:
    """Replace ``original`` wherever an opticomb module holds it."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "opticomb" or mod_name.startswith("opticomb.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                tracer.undo.append(lambda m=module, a=attr: setattr(m, a, original))


def _route_counter(tracer: Tracer, layer: str):
    def after(idx: int, args: tuple, decision: Any) -> None:
        method = decision.method
        tracer.counters[f"{layer}.route.{method}.calls"] += 1
        tracer.counters[f"{layer}.route.{method}.s"] += tracer.duration_s(idx)
        if layer == "optic" and decision.coverage and "states_explored" in decision.coverage:
            tracer.counters["optic.slide_states"] += decision.coverage["states_explored"]
    return after


def install(tracer: Tracer) -> None:
    """Rebind every traced layer function in the loaded opticomb modules."""
    for layer, fname in LAYER_FUNCTIONS:
        module = importlib.import_module(f"opticomb.{layer}")
        original = getattr(module, fname)
        after = None
        before = None
        if (layer, fname) == ("comb", "equiv_comb"):
            after = _route_counter(tracer, "comb")
        elif (layer, fname) == ("optic", "equiv_optic"):
            after = _route_counter(tracer, "optic")
        elif (layer, fname) == ("comb", "extended_eval"):
            def before(args, _t=tracer):
                _t.note_extended_eval(args[1], args[2])
        elif (layer, fname) == ("theory", "load_theory"):
            def after(idx, args, backend, _t=tracer):
                instrument_backend(_t, backend)
        _rebind(tracer, original,
                _wrap(tracer, f"{layer}.{fname}", original, after, before))
    sampling = importlib.import_module("opticomb.sampling")
    original = sampling.enumerate_combs
    _rebind(tracer, original, _wrap_generator(tracer, "sampling.enumerate_combs", original))


def uninstall(tracer: Tracer) -> None:
    """Put back every function and primitive that tracing replaced."""
    while tracer.undo:
        tracer.undo.pop()()


def instrument_backend(tracer: Tracer, backend: Any) -> None:
    """Shadow the primitives of one backend instance with traced wrappers."""
    layer = backend_layer(backend)
    for op in BACKEND_OPS:
        bound = getattr(backend, op)
        name = f"backends.{layer}.{op}"
        after = None
        if op == "enumerate_hom":
            def after(idx, args, homs, _key=f"{name}.items", _t=tracer):
                _t.counters[_key] += len(homs.items)
        elif op == "equal":
            def after(idx, args, same, _key=f"{name}.true", _t=tracer):
                if same:
                    _t.counters[_key] += 1
        setattr(backend, op, _wrap(tracer, name, bound, after))
        tracer.undo.append(lambda b=backend, o=op: delattr(b, o))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _fn_metrics(prefix: str, with_calls: bool = True) -> list[tuple[str, str, str]]:
    out = []
    if with_calls:
        out.append((f"{prefix}.calls", "count", "calls"))
    out.append((f"{prefix}.self_s", "s", "self"))
    return out


def per_layer_spec() -> list[tuple[str, str, str]]:
    """``(metric name, unit, how)`` for every per-layer metric, in order."""
    spec: list[tuple[str, str, str]] = []
    for layer in BACKEND_LAYERS:
        for op in BACKEND_OPS:
            spec += _fn_metrics(f"backends.{layer}.{op}")
        spec.append((f"backends.{layer}.enumerate_hom.items", "count", "counter"))
        spec.append((f"backends.{layer}.equal.true_ratio", "ratio", "true_ratio"))
    spec += _fn_metrics("comb.extended_eval")
    spec.append(("comb.extended_eval.per_pair", "calls/pair", "per_pair"))
    spec += _fn_metrics("comb.braid_eval")
    for fname in ("sigma_congruence_search", "equiv_comb", "equiv_sigma", "equiv_tau"):
        spec += _fn_metrics(f"comb.{fname}", with_calls=False)
    for method in COMB_ROUTES:
        spec.append((f"comb.route.{method}.calls", "count", "counter"))
        spec.append((f"comb.route.{method}.s", "s", "counter"))
    spec += _fn_metrics("optic.equiv_optic", with_calls=False)
    spec.append(("optic.slide_states", "count", "counter"))
    for method in OPTIC_ROUTES:
        spec.append((f"optic.route.{method}.calls", "count", "counter"))
        spec.append((f"optic.route.{method}.s", "s", "counter"))
    spec.append(("sampling.enumerate_combs.calls", "count", "counter"))
    spec.append(("sampling.enumerate_combs.self_s", "s", "self"))
    spec.append(("sampling.enumerate_combs.reps", "count", "counter"))
    for prefix in ("cpm.cpm_equiv", "cpm.cpinf_equiv", "cpm.to_cpm",
                   "polycomb.poly_equiv", "polycomb.poly_extended_eval"):
        spec += _fn_metrics(prefix)
    spec.append(("core.eval_term.self_s", "s", "self"))
    for name in ("theory.load_theory", "program.load_program", "program.run_program",
                 "program.render_json"):
        spec.append((f"{name}.s", "s", "total"))
    spec.append(("cli.import_s", "s", "counter"))
    spec.append(("trace.overhead_s", "s", "counter"))
    return spec


def layer_metrics(profile: dict, counters: dict) -> dict[str, float]:
    """Turn one pass's span profile and counters into per-layer values."""
    out: dict[str, float] = {}
    for name, _unit, how in per_layer_spec():
        base = name.rsplit(".", 1)[0]
        span = profile.get(base, {})
        if how == "calls":
            out[name] = span.get("calls", 0)
        elif how == "self":
            out[name] = span.get("self_s", 0.0)
        elif how == "total":
            out[name] = span.get("total_s", 0.0)
        elif how == "true_ratio":
            calls = profile.get(base, {}).get("calls", 0)
            out[name] = counters.get(f"{base}.true", 0) / calls if calls else 0.0
        elif how == "per_pair":
            pairs = counters.get("comb.extended_eval.pairs", 0)
            calls = profile.get(base, {}).get("calls", 0)
            out[name] = calls / pairs if pairs else 0.0
        else:
            out[name] = counters.get(name, 0)
    return out


def merge_profiles(profiles: list[dict]) -> dict:
    merged: dict[str, dict[str, float]] = {}
    for prof in profiles:
        for name, vals in prof.items():
            slot = merged.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k, v in vals.items():
                slot[k] += v
    return merged
