"""Span tracer for the traced run: wraps gaugelab's public functions in place.

Each target is looked up in its home module; the wrapper then replaces that
object in every gaugelab module namespace that binds it (so `experiments`
importing `calibrate_potential` by name, or `analysis` importing
`build_model`, are caught too).  `FrameContext.represent` is wrapped on its
class.  A target the program no longer has is recorded as absent and its
metrics read 0: a refactor that removes a function must not crash the
benchmark.

Spans are (name, start, end, parent, segment, ok, extras) and are kept in
memory; `layer_metrics` turns them into the per-layer figures, with self time
excluding child spans.  The segment is "setup" or the index of a traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

from workloads import PANELS

# (home module, attribute path, span name, stats reported)
TARGETS = (
    ("matter1d", "calibrate_potential", "matter1d.calibrate_potential", ("calls", "s")),
    ("matter1d", "auto_spec", "matter1d.auto_spec", ("calls", "s")),
    ("matter1d", "solve_double_well", "matter1d.solve_double_well", ("calls", "s", "fail")),
    ("gauge", "hamiltonian_blocks", "gauge.hamiltonian_blocks", ("calls", "s")),
    ("gauge", "build_h_alpha", "gauge.build_h_alpha", ("calls", "s")),
    ("gauge", "build_model", "gauge.build_model", ("calls", "s")),
    ("analysis", "eigensolve", "analysis.eigensolve",
     ("calls", "s", "calls_full", "eigpairs", "dim_max")),
    ("analysis", "converge", "analysis.converge", ("calls", "s", "rungs", "rung_waste_frac")),
    ("gauge", "conjugate_by_gauge_unitary", "gauge.conjugate_by_gauge_unitary", ("calls", "s")),
    ("analysis", "FrameContext.represent", "analysis.represent", ("calls", "s")),
    ("analysis", "thermal_average", "analysis.thermal_average", ("calls", "s")),
    ("analysis", "average", "analysis.average", ("calls", "s")),
    ("lindblad", "from_eigensystem", "lindblad.from_eigensystem", ("calls", "s")),
    ("lindblad", "liouvillian", "lindblad.liouvillian", ("calls", "s")),
    ("lindblad", "evolve", "lindblad.evolve", ("calls", "s", "samples")),
    ("lindblad", "decay_rate_fit", "lindblad.decay_rate_fit", ("calls", "s")),
    ("lindblad", "decay_rate", "lindblad.decay_rate", ("calls", "s")),
    ("fockspace", "fock_operators", "fockspace.fock_operators", ("calls", "s")),
    ("experiments", "write_result", "experiments.write_result", ("s", "bytes")),
)

UNITS = {"s": "s", "bytes": "B", "rung_waste_frac": "ratio"}  # everything else: count


def run_span(exp: str) -> str:
    """Name of the span the harness puts around one `run_experiment` call."""
    return f"experiments.run.{exp}"


def layer_metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{span}.{stat}", UNITS.get(stat, "count"))
           for _, _, span, stats in TARGETS for stat in stats]
    out += [(f"{run_span(exp)}.s", "s") for exp in PANELS]
    out.append(("trace.overhead_frac", "ratio"))
    return out


# --- per-target extras, computed outside the timed region -------------------

def _eigensolve_after(state, args, kwargs, result, ok):
    if not ok:
        return None
    return {"eigpairs": result.count, "dim": result.dim, "full": result.count == result.dim}


def _converge_before(args, kwargs):
    """Count ladder rungs by wrapping the `compute` callback."""
    rungs = [0]
    compute = kwargs.pop("compute") if "compute" in kwargs else args[0]

    def counted(*a, **k):
        rungs[0] += 1
        return compute(*a, **k)

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs["compute"] = counted
    return args, kwargs, rungs


def _converge_after(rungs, args, kwargs, result, ok):
    # experiments.converged_cutoffs uses the next-to-last rung, so a settled
    # ladder wastes its last rung; an unsettled one wastes them all.
    return {"rungs": rungs[0], "wasted": 1 if ok else rungs[0]}


def _evolve_after(state, args, kwargs, result, ok):
    times = kwargs["times"] if "times" in kwargs else args[2]
    return {"samples": len(times)}


def _write_result_after(state, args, kwargs, result, ok):
    if not ok:
        return None
    return {"bytes": sum(os.path.getsize(p) for p in result)}


HOOKS = {
    "analysis.eigensolve": (None, _eigensolve_after),
    "analysis.converge": (_converge_before, _converge_after),
    "lindblad.evolve": (None, _evolve_after),
    "experiments.write_result": (None, _write_result_after),
}

# What a hook may meet when a refactor changes a signature or a return type.
HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError)


class Tracer:
    def __init__(self):
        self.spans = []
        self.segment = "setup"
        self.absent = []
        self.hook_errors = []
        self._stack = []
        self._patches = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; names the program no longer has go to `absent`."""
        if self._patches:
            return
        self.absent = []
        for module, attr, name, _ in TARGETS:
            home = sys.modules.get(f"gaugelab.{module}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name)
            if owner_name:
                self._patch(owner, fn_name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "gaugelab" or mod_name.startswith("gaugelab.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, name):
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(fn, name, before, after, args, kwargs)
        return wrapper

    # --- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A harness-side span around the enclosed block."""
        record = self._open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(record, ok)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.segment, True, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list, ok: bool) -> None:
        record[2] = time.perf_counter()
        record[5] = ok
        self._stack.pop()

    def _call(self, fn, name, before, after, args, kwargs):
        state = None
        if before is not None:
            try:
                args, kwargs, state = before(args, kwargs)
            except HOOK_ERRORS as exc:
                self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
        record = self._open(name)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self._close(record, ok)
            if after is not None:
                try:
                    record[6] = after(state, args, kwargs, result if ok else None, ok)
                except HOOK_ERRORS as exc:
                    self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def dump(self) -> list:
        """Spans as JSON-ready lists, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, s - t0, e - t0, p, seg, ok, ex]
                for n, s, e, p, seg, ok, ex in self.spans]


def layer_metrics(spans: list, traced_passes: int, overhead_frac: float = 0.0) -> dict:
    """Per-layer figures for one set-up plus one traced pass.

    Set-up spans count once; pass spans are averaged over `traced_passes`.
    `.s` is self time (children excluded), except `experiments.run.<exp>.s`,
    which is the op's wall time.  Absent spans read 0.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    acc = {}
    dim_max = 0
    for idx, (name, start, end, parent, segment, ok, extras) in enumerate(spans):
        part = 0 if segment == "setup" else 1
        wall = end - start
        self_s = wall if name.startswith("experiments.run.") else wall - child[idx]
        sums = acc.setdefault(name, ({}, {}))[part]
        add = {"calls": 1, "s": self_s, "fail": 0 if ok else 1}
        if extras:
            add["calls_full"] = 1 if extras.get("full") else 0
            for key in ("eigpairs", "rungs", "wasted", "samples", "bytes"):
                if key in extras:
                    add[key] = extras[key]
            dim_max = max(dim_max, extras.get("dim", 0))
        for key, value in add.items():
            sums[key] = sums.get(key, 0) + value
    acc = {name: {key: setup.get(key, 0) + passes.get(key, 0) / max(traced_passes, 1)
                  for key in set(setup) | set(passes)}
           for name, (setup, passes) in acc.items()}
    out = {}
    for name, unit in layer_metric_names():
        span, _, stat = name.rpartition(".")
        a = acc.get(span, {})
        if stat == "dim_max":
            value = dim_max
        elif stat == "rung_waste_frac":
            value = a.get("wasted", 0.0) / a["rungs"] if a.get("rungs") else 0.0
        elif stat == "overhead_frac":
            value = overhead_frac
        else:
            value = a.get(stat, 0.0)
        out[name] = {"value": value, "unit": unit}
    return out
