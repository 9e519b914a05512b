"""gaugelab benchmark: figure workloads through `run_experiment`, closed loop.

    python3 perfbench/run.py --workload ground --seed 1 --seconds 20 --trace 0

One client in one process sends the next op only when the previous one has
finished.  An op is what `gaugelab run <exp>` does: `run_experiment(name,
ExperimentConfig)` in process, with the paper's defaults for target_mu, the
matter grid and every tolerance.  BLAS runs on one thread and `workers` is 1.

The measured phase runs whole passes (each experiment of the workload once,
in a seeded order) until `--seconds` have passed.  `--trace 0` prints the
end-to-end metrics.  `--trace 1` alternates untraced and traced passes and
prints the per-layer metrics plus the tracing overhead (traced over untraced
pass time, minus one).  Human-readable lines come first; the last line of
stdout is the JSON result.  Everything the run writes goes under
`.perfbench_runs/` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

from setup_probe import ROOT, measure_setup, pin_blas

pin_blas()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import machine  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_DIR = ".perfbench_runs"
SETUP_SAMPLES = 3  # one in this process, the rest in fresh child processes
SETUP_TIMEOUT_S = 150
MESSAGE_HEAD = 160


class Harness:
    """Runs and verifies ops; `run_fn(name, config)` is `run_experiment`."""

    def __init__(self, run_fn, config_cls, workload_config: dict, tracer=None):
        self.run_fn = run_fn
        self.config_cls = config_cls
        self.workload_config = workload_config
        self.tracer = tracer
        self.traced = False
        self.digests = {}
        self.bad_output = []

    def sent_config(self, exp: str) -> dict:
        outdir = os.path.join(RUN_DIR, "out", exp)
        return self.config_cls.from_dict({**self.workload_config, "outdir": outdir}).to_dict()

    def run_op(self, exp: str) -> summary.Op:
        sent = self.sent_config(exp)
        shutil.rmtree(sent["outdir"], ignore_errors=True)
        config = self.config_cls.from_dict(dict(sent))
        error = None
        t0 = time.perf_counter()
        try:
            if self.traced:
                with self.tracer.span(spans.run_span(exp)):
                    paths = self.run_fn(exp, config)
            else:
                paths = self.run_fn(exp, config)
        except Exception as exc:  # GaugelabError or any other: a failed op, not a crash
            error = exc
        seconds = time.perf_counter() - t0
        if error is not None:
            head = (str(error).splitlines() or [""])[0][:MESSAGE_HEAD]
            return summary.Op(exp, seconds, False, error=f"{type(error).__name__}: {head}")
        try:
            points, digest = checks.verify_outputs(exp, sent["outdir"], paths, sent)
            first = self.digests.setdefault(exp, digest)
            if digest != first:
                raise checks.OutputError(f"{exp}: outputs differ from an earlier repeat")
        except (checks.OutputError, OSError) as exc:
            message = f"OutputError: {str(exc)[:MESSAGE_HEAD]}"
            self.bad_output.append(message)
            return summary.Op(exp, seconds, False, error=message)
        return summary.Op(exp, seconds, True, points)


def measure(harness: Harness, workload, seed: int, seconds: float, trace: bool):
    """Closed loop of whole passes; returns (ops, passes, phase seconds).

    With `trace`, passes alternate untraced/traced over the same op order
    and the phase ends after a traced pass.
    """
    orders = workload.pass_order(seed)
    ops, passes = [], []
    start = time.perf_counter()
    order = None
    while True:
        traced = trace and len(passes) % 2 == 1
        if not traced:
            order = next(orders)
        if traced:
            harness.tracer.segment = len(passes) // 2
            harness.tracer.install()
        harness.traced = traced
        t0 = time.perf_counter()
        try:
            for exp in order:
                ops.append(harness.run_op(exp))
        finally:
            harness.traced = False
            if traced:
                harness.tracer.uninstall()
        passes.append({"traced": traced, "seconds": time.perf_counter() - t0})
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (not trace or traced):
            return ops, passes, elapsed


def setup_samples(config: dict, first: float) -> list:
    """`first` plus fresh-process samples of the set-up time."""
    samples = [first]
    probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run([sys.executable, probe, json.dumps(config)], cwd=ROOT,
                             capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                             check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def failure_table(ops: list) -> dict:
    table = {}
    for op in ops:
        if not op.ok:
            cls, _, message = op.error.partition(": ")
            entry = table.setdefault(cls, {"count": 0, "first": message, "experiments": []})
            entry["count"] += 1
            if op.exp not in entry["experiments"]:
                entry["experiments"].append(op.exp)
    return table


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    workload_config = workload.config(args.seed)
    trace = bool(args.trace)
    tracer = spans.Tracer() if trace else None

    hook = (lambda _gaugelab: tracer.install()) if trace else None
    try:
        first_setup = measure_setup(workload_config, hook)
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if trace:
        tracer.uninstall()
    import gaugelab

    env = machine.record(ROOT)
    if env["blas_pinned"] is False:
        print(f"perfbench: BLAS thread pin did not take effect: {env['blas']}", file=sys.stderr)
        return 2
    samples = [first_setup] if trace else setup_samples(workload_config, first_setup)

    harness = Harness(gaugelab.run_experiment, gaugelab.ExperimentConfig, workload_config,
                      tracer)
    ops, passes, phase_s = measure(harness, workload, args.seed, args.seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e, details = summary.end_to_end(ops, phase_s, samples, peak_rss_mb, env["phys_mb"])
    failures = failure_table(ops)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": workload_config, "env": env,
        "end_to_end": e2e, "details": details, "failures": failures,
        "bad_output": harness.bad_output, "digests": harness.digests, "passes": passes,
        "ops": [[op.exp, op.seconds, op.ok, op.points, op.error] for op in ops],
    }
    lines = [
        f"gaugelab benchmark  workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"machine  nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} commit={env['git_commit']}",
        "blas     " + "; ".join(f"{b['package']}: threads={b['threads']} {b['config']}"
                                for b in env["blas"]) + f"  pinned={env['blas_pinned']}",
        f"config   {json.dumps(workload_config, sort_keys=True)}",
        f"ops      attempted={len(ops)} verified={details['verified_ops']} "
        f"failed={len(ops) - details['verified_ops']} passes={len(passes)} "
        f"phase={phase_s:.3f} s",
    ]
    for cls, entry in sorted(failures.items()):
        lines.append(f"failure  {cls} x{entry['count']} in {','.join(entry['experiments'])}: "
                     f"{entry['first']}")
    if trace:
        traced = [p["seconds"] for p in passes if p["traced"]]
        untraced = [p["seconds"] for p in passes if not p["traced"]]
        overhead = (sum(traced) / len(traced)) / (sum(untraced) / len(untraced)) - 1.0
        metrics = spans.layer_metrics(tracer.spans, len(traced), overhead)
        result["per_layer"] = metrics
        result["absent_spans"] = tracer.absent
        result["hook_errors"] = tracer.hook_errors
        lines.append("per-layer figures: one set-up plus one traced pass "
                     f"(mean of {len(traced)}); .s is self time")
        for name, m in metrics.items():
            lines.append(f"  {name:<46} {m['value']:.6g} {m['unit']}")
        for name in tracer.absent:
            lines.append(f"  {name:<46} span absent")
        for message in tracer.hook_errors[:5]:
            lines.append(f"  hook error: {message}")
    else:
        metrics = e2e
        censored = " (censored: no verified op)" if details["censored"] else ""
        for name, m in e2e.items():
            note = ""
            if name == "setup_s":
                note = " (median of " + ", ".join(f"{s:.4f}" for s in samples) + ")"
            elif name in ("points_per_s", "op_s_p50"):
                note = censored
            elif name == "op_s_tail":
                note = (f" (p{details['op_s_tail_pct']:g}, {details['op_s_tail_beyond']} of "
                        f"{details['samples']} beyond){censored}")
            elif name == "peak_rss_mb" and details["rss_censored"]:
                note = " (censored to physical memory: not every op succeeded)"
            lines.append(f"{name:<14} {m['value']:.6g} {m['unit']}{note}")
        lines.append(f"{'ok_frac':<14} {details['ok_frac']:.6g} ratio "
                     f"({details['verified_ops']}/{details['samples']}; "
                     "also the attempted/failed fields)")
    for exp, digest in sorted(harness.digests.items()):
        lines.append(f"digest   {exp} {digest}")

    os.makedirs(RUN_DIR, exist_ok=True)
    stem = os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    lines.append(f"results  {stem}.json")
    print("\n".join(lines))
    print(json.dumps({"correct": not harness.bad_output, "attempted": len(ops),
                      "failed": len(ops) - details["verified_ops"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
