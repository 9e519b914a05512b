"""Workbench construction and the fig2 thermal sums.

These run at target_mu 25 or on an explicit harmonic well: the calibrated
mu = 70 well fails the finite-difference grid check on some BLAS stacks,
and nothing here depends on the barrier height.
"""

import pytest

from gaugelab import analysis, experiments
from gaugelab.analysis import exact_gauge
from gaugelab.config import ExperimentConfig
from gaugelab.experiments import Workbench

HARMONIC = {"theta": -1.0, "phi": 1e-12, "half_width": 14.0, "n_grid": 1024,
            "n_mat": 8}


@pytest.fixture(scope="module")
def wb25():
    return Workbench(ExperimentConfig.from_dict({"target_mu": 25.0}))


def test_explicit_spec_keeps_its_box_at_every_n_mat():
    wb = Workbench(ExperimentConfig.from_dict({"matter_spec": HARMONIC, "n_mat": 30}))
    for n_mat in (8, 30, 40):
        spec = wb.basis_for(n_mat).spec
        assert (spec.n_mat, spec.half_width, spec.n_grid) == (n_mat, 14.0, 1024)


def test_pool_initializer_uses_the_handed_spec(wb25, monkeypatch):
    def no_calibration(*args, **kwargs):
        raise AssertionError("pool worker calibrated again")

    monkeypatch.setattr(experiments, "calibrate_potential", no_calibration)
    monkeypatch.setattr(experiments, "_POOL_WB", None)
    experiments._pool_init(wb25.config.to_dict(), wb25.spec)
    pool_wb = experiments._POOL_WB
    assert pool_wb.spec is wb25.spec
    assert pool_wb.omega == wb25.omega


def test_thermal_average_over_temperatures_matches_each(wb25):
    cutoffs = (30, 12)
    ctx = wb25.context(0.5, cutoffs)
    es = wb25.exact_eigensystem(0.0, 0.5, cutoffs, k=40)
    temps = [0.0, 0.5, 1.0, 2.0]
    together = analysis.thermal_average("n_et", exact_gauge(0.0), ctx, es, temps)
    assert together == [analysis.thermal_average("n_et", exact_gauge(0.0), ctx, es, t)
                        for t in temps]

