"""End-to-end metric arithmetic, with the rule that a failure never looks better.

An op is one `run_experiment` call; it succeeds only if it returns and its
outputs verify.  Failed ops enter the latency figures at the worst value the
run can show, the length of the measured phase: a failure misses any latency
limit, and every successful op finished inside that phase.  When nothing
succeeded the metrics are censored, never 0 or undefined:

* op_s_p50, op_s_tail -- the measured phase's length;
* points_per_s -- one point per measured phase, below any run that verified
  an op (each op verifies at least two points);
* peak_rss_mb -- the machine's physical memory, unless every op succeeded.

ok_frac is printed and recorded but is not a BENCHMARK.json metric: it is 0
on a failing tree, and the `attempted`/`failed` fields of the result line
already carry it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


@dataclass
class Op:
    exp: str
    seconds: float
    ok: bool
    points: int = 0
    error: str = ""


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list):
    """(pct, value): highest listed percentile with >= 10 samples beyond it.

    With too few samples for any, the maximum, recorded as percentile 100.
    """
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct / 100.0 * n) >= MIN_BEYOND:
            return pct, percentile(values, pct)
    return 100.0, max(values)


def end_to_end(ops: list, phase_s: float, setup_samples: list,
               peak_rss_mb: float, phys_mb: float):
    """(metrics for the result line, details for the report)."""
    if not ops:
        raise ValueError("no ops attempted")
    latencies = [op.seconds if op.ok else phase_s for op in ops]
    ok = sum(op.ok for op in ops)
    points = sum(op.points for op in ops if op.ok)
    tail_pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "points_per_s": (max(points, 1) / phase_s, "1/s"),
        "op_s_p50": (statistics.median(latencies), "s"),
        "op_s_tail": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb if ok == len(ops) else phys_mb, "MB"),
    }
    details = {
        "ok_frac": ok / len(ops),
        "verified_ops": ok,
        "verified_points": points,
        "censored": ok == 0,
        "rss_censored": ok < len(ops),
        "op_s_tail_pct": tail_pct,
        "op_s_tail_beyond": len(ops) - math.ceil(tail_pct / 100.0 * len(ops)),
        "samples": len(ops),
        "phase_s": phase_s,
        "setup_samples": setup_samples,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details
