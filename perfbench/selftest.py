"""Self-tests of the benchmark harness, for the success and the failure path.

    python3 perfbench/selftest.py

A tree whose every op fails cannot exercise verification, digests or the
success-side metric arithmetic, so these tests drive the harness with stub
runners that write their files through gaugelab's own `write_result`.  They
also cover failure accounting, the rule that a failure never makes a metric
look better, the tracer's tolerance of removed functions, and the agreement
of BENCHMARK.json with the metrics the code prints.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import unittest

from setup_probe import ROOT, import_gaugelab, pin_blas

pin_blas()
gaugelab = import_gaugelab()

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
from gaugelab.errors import NotConverged  # noqa: E402
from gaugelab.experiments import ExperimentResult, Panel, write_result  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SELFTEST_DIR = os.path.join(run.RUN_DIR, "selftest")


def stub_runner(panels_for):
    """A `run_experiment` stand-in writing `panels_for(name, config)`."""
    def run_fn(name, config):
        prov = {"config": config.to_dict(), "config_sha256": config.sha256()}
        return write_result(ExperimentResult(name, panels_for(name, config), prov),
                            config.outdir)
    return run_fn


def fig1b_panels(bound=0.9):
    def panels_for(name, config):
        rows = [[eta, bound, 0.95] for eta in config.eta_grid()]
        return [Panel("bounds", ["eta", "bound_coulomb", "bound_dipole"], {}, rows)]
    return panels_for


def figs1_panels(fidelity):
    def panels_for(name, config):
        rows = [[eta, fidelity, 0.5, 0.9] for eta in config.eta_grid()]
        return [Panel("fidelities", ["eta", "f_qrm", "f_ph1p", "bound_dipole"], {}, rows)]
    return panels_for


def fig2_panels(photons):
    def panels_for(name, config):
        rows = [[eta, photons] for eta in config.eta_grid()]
        return [Panel("thermal", ["eta", "exact_T0"], {"exact_T0": "photons"}, rows)]
    return panels_for


def harness(run_fn):
    os.chdir(ROOT)
    return run.Harness(run_fn, gaugelab.ExperimentConfig, WORKLOADS["ground"].config(0))


class SuccessPath(unittest.TestCase):
    def test_verified_op_counts_points_and_digest(self):
        h = harness(stub_runner(fig1b_panels()))
        op = h.run_op("fig1b")
        self.assertTrue(op.ok, op.error)
        self.assertEqual(op.points, 2)
        self.assertIn("fig1b", h.digests)
        again = h.run_op("fig1b")
        self.assertTrue(again.ok, again.error)
        self.assertEqual(h.bad_output, [])

    def test_metrics_when_every_op_succeeds(self):
        ops = [summary.Op("fig1b", s, True, 2) for s in (1.0, 2.0, 3.0)]
        m, d = summary.end_to_end(ops, 10.0, [3.0, 4.0, 5.0], 400.0, 8000.0)
        self.assertEqual(m["setup_s"]["value"], 4.0)
        self.assertEqual(m["op_s_p50"]["value"], 2.0)
        self.assertEqual(m["op_s_tail"]["value"], 3.0)
        self.assertEqual(d["op_s_tail_pct"], 100.0)
        self.assertAlmostEqual(m["points_per_s"]["value"], 0.6)
        self.assertEqual(m["peak_rss_mb"]["value"], 400.0)
        self.assertEqual(d["ok_frac"], 1.0)
        self.assertFalse(d["censored"])

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(summary.tail(values), (90.0, 90))
        self.assertEqual(summary.tail(list(range(1, 31))), (50.0, 15))
        self.assertEqual(summary.tail([1.0, 5.0]), (100.0, 5.0))


class VerificationFailures(unittest.TestCase):
    def assert_bad(self, h, exp, fragment):
        op = h.run_op(exp)
        self.assertFalse(op.ok)
        self.assertTrue(op.error.startswith("OutputError"), op.error)
        self.assertIn(fragment, op.error)
        self.assertTrue(h.bad_output)

    def test_fidelity_above_ceiling(self):
        self.assert_bad(harness(stub_runner(figs1_panels(0.95))), "figS1", "above ceiling")

    def test_ceiling_outside_unit_interval(self):
        self.assert_bad(harness(stub_runner(fig1b_panels(1.5))), "fig1b", "outside [0, 1]")

    def test_negative_photon_number(self):
        self.assert_bad(harness(stub_runner(fig2_panels(-1e-3))), "fig2", "negative")

    def test_non_finite_value(self):
        self.assert_bad(harness(stub_runner(fig1b_panels(float("nan")))), "fig1b", "non-finite")

    def test_wrong_row_count(self):
        def panels_for(name, config):
            return [Panel("bounds", ["eta", "bound_coulomb", "bound_dipole"], {},
                          [[0.0, 0.5, 0.5]])]
        self.assert_bad(harness(stub_runner(panels_for)), "fig1b", "expected 2")

    def test_config_hash_mismatch(self):
        def run_fn(name, config):
            prov = {"config": config.to_dict(), "config_sha256": "0" * 64}
            return write_result(ExperimentResult(name, fig1b_panels()(name, config), prov),
                                config.outdir)
        self.assert_bad(harness(run_fn), "fig1b", "config_sha256")

    def test_units_line_must_name_header(self):
        h = harness(stub_runner(fig1b_panels()))
        sent = h.sent_config("fig1b")
        paths = h.run_fn("fig1b", gaugelab.ExperimentConfig.from_dict(dict(sent)))
        with open(paths[0]) as fh:
            text = fh.read()
        with open(paths[0], "w") as fh:
            fh.write(text.replace("bound_dipole=", "bound_other=", 1))
        with self.assertRaisesRegex(checks.OutputError, "units line"):
            checks.verify_outputs("fig1b", sent["outdir"], paths, sent)

    def test_repeat_must_be_byte_identical(self):
        state = {"n": 0}

        def panels_for(name, config):
            state["n"] += 1
            return fig1b_panels(0.9 - 0.01 * state["n"])(name, config)
        h = harness(stub_runner(panels_for))
        self.assertTrue(h.run_op("fig1b").ok)
        self.assert_bad(h, "fig1b", "differ from an earlier repeat")


class FailurePath(unittest.TestCase):
    def test_raised_errors_are_failed_ops_with_class_and_message(self):
        def raises(name, config):
            if name == "fig1b":
                raise NotConverged("doubling n_grid shifts eigenvalues by 1.037e-09\nmore")
            raise ValueError("not a gaugelab error")
        h = harness(raises)
        ops = [h.run_op("fig1b"), h.run_op("fig3"), h.run_op("fig1b")]
        self.assertFalse(any(op.ok for op in ops))
        self.assertEqual(h.bad_output, [])  # a raised error is not a wrong output
        table = run.failure_table(ops)
        self.assertEqual(table["NotConverged"]["count"], 2)
        self.assertEqual(table["NotConverged"]["first"],
                         "doubling n_grid shifts eigenvalues by 1.037e-09")
        self.assertEqual(table["ValueError"]["experiments"], ["fig3"])

    def test_all_failed_is_censored_never_zero(self):
        ops = [summary.Op("fig1b", 0.1, False, error="NotConverged: x")] * 50
        m, d = summary.end_to_end(ops, 15.2, [5.0, 5.1, 4.9], 150.0, 8000.0)
        self.assertEqual(d["ok_frac"], 0.0)
        self.assertEqual(m["op_s_p50"]["value"], 15.2)
        self.assertEqual(m["op_s_tail"]["value"], 15.2)
        self.assertAlmostEqual(m["points_per_s"]["value"], 1 / 15.2)
        self.assertEqual(m["peak_rss_mb"]["value"], 8000.0)
        self.assertTrue(all(v["value"] > 0 for v in m.values()))

    def test_failure_never_looks_better(self):
        rng = random.Random(7)
        lower_better = ("op_s_p50", "op_s_tail", "peak_rss_mb")
        for _ in range(200):
            phase = 20.0
            ops = [summary.Op("figS1", rng.uniform(0.5, 5.0), True, 2)
                   for _ in range(rng.randint(1, 40))]
            base, _ = summary.end_to_end(ops, phase, [1.0], 300.0, 8000.0)
            i = rng.randrange(len(ops))
            worse = list(ops)
            worse[i] = summary.Op("figS1", rng.uniform(0.0, 0.4), False, error="X: y")
            m, _ = summary.end_to_end(worse, phase, [1.0], 200.0, 8000.0)
            for name in lower_better:
                self.assertGreaterEqual(m[name]["value"], base[name]["value"], name)
            self.assertLessEqual(m["points_per_s"]["value"], base["points_per_s"]["value"])


class Tracing(unittest.TestCase):
    def tearDown(self):
        self.tracer.uninstall()

    def test_wraps_every_binding_and_restores_them(self):
        from gaugelab import analysis, experiments, gauge, matter1d
        originals = (matter1d.calibrate_potential, analysis.build_model,
                     analysis.FrameContext.represent)
        self.tracer = spans.Tracer()
        self.tracer.install()
        self.assertEqual(self.tracer.absent, [])
        self.assertIs(experiments.calibrate_potential, matter1d.calibrate_potential)
        self.assertIsNot(matter1d.calibrate_potential, originals[0])
        self.assertIs(analysis.build_model, gauge.build_model)
        self.assertIsNot(analysis.build_model, originals[1])
        self.assertIsNot(analysis.FrameContext.represent, originals[2])
        self.tracer.uninstall()
        self.assertIs(matter1d.calibrate_potential, originals[0])
        self.assertIs(analysis.build_model, originals[1])
        self.assertIs(analysis.FrameContext.represent, originals[2])

    def test_removed_function_is_span_absent(self):
        from gaugelab import lindblad
        saved = lindblad.liouvillian
        del lindblad.liouvillian
        try:
            self.tracer = spans.Tracer()
            self.tracer.install()
            self.assertEqual(self.tracer.absent, ["lindblad.liouvillian"])
            metrics = spans.layer_metrics(self.tracer.spans, 1)
            self.assertEqual(metrics["lindblad.liouvillian.calls"]["value"], 0)
        finally:
            lindblad.liouvillian = saved

    def test_self_time_and_pass_average(self):
        self.tracer = spans.Tracer()
        # setup: calibrate 0..4 with auto_spec 1..2 inside; two passes of one solve
        spans_ = [["matter1d.calibrate_potential", 0.0, 4.0, -1, "setup", True, None],
                  ["matter1d.auto_spec", 1.0, 2.0, 0, "setup", True, None],
                  ["matter1d.solve_double_well", 5.0, 6.0, -1, 0, False, None],
                  ["matter1d.solve_double_well", 7.0, 10.0, -1, 1, False, None]]
        m = spans.layer_metrics(spans_, 2)
        self.assertEqual(m["matter1d.calibrate_potential.s"]["value"], 3.0)
        self.assertEqual(m["matter1d.auto_spec.s"]["value"], 1.0)
        self.assertEqual(m["matter1d.solve_double_well.calls"]["value"], 1.0)
        self.assertEqual(m["matter1d.solve_double_well.s"]["value"], 2.0)
        self.assertEqual(m["matter1d.solve_double_well.fail"]["value"], 1.0)

    def test_converge_rungs_and_waste(self):
        from gaugelab import analysis
        self.tracer = spans.Tracer()
        self.tracer.install()
        analysis.converge(lambda nm, nph: 1.0 + 1.0 / nph, [(2, 10), (2, 1e9), (2, 2e9)])
        m = spans.layer_metrics(self.tracer.spans, 1)
        self.assertEqual(m["analysis.converge.rungs"]["value"], 3)
        self.assertAlmostEqual(m["analysis.converge.rung_waste_frac"]["value"], 1 / 3)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        ops = [summary.Op("fig1b", 1.0, True, 2)]
        e2e, _ = summary.end_to_end(ops, 2.0, [1.0], 1.0, 2.0)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         {k: v["unit"] for k, v in e2e.items()})
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         spans.layer_metric_names())

    def test_refuses_to_run_without_the_program(self):
        stripped = os.path.join(ROOT, SELFTEST_DIR, "stripped")
        shutil.rmtree(stripped, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(stripped, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ground",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=stripped, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)
        shutil.rmtree(stripped)


if __name__ == "__main__":
    unittest.main()
