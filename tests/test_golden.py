"""Golden comparison: every experiment against stored CSVs on a reduced grid.

The files in tests/golden/ were written by `python tests/test_golden.py`
with OPENBLAS_NUM_THREADS=1 (the script refuses to write otherwise) and the
config in GOLDEN_CONFIG.  The grid runs
at target_mu 25 rather than the paper's 70 because the finite-difference
matter solver fails its own 1e-9 grid-doubling check at 70 on some BLAS
stacks, which would leave the comparison with nothing to compare.

Each CSV column must match to within GOLDEN_RTOL times that column's largest
golden magnitude.  Between 1 and 2 OpenBLAS threads the outputs differ by at
most 2.7e-12 of the column scale (fig4a rate_exact), so the tolerance sits
well above thread noise.  The cutoffs chosen by the convergence ladder, the
degeneracy flags and the provenance config (all but `outdir`) must match
exactly.  The solved well in the provenance `matter_spec` must match its
integer fields exactly and its float fields to SPEC_RTOL relative; between 1
and 2 OpenBLAS threads the calibrated spec at target_mu 25 and 70 is
bit-identical.
"""

import json
import os

import numpy as np
import pytest

from gaugelab.config import ExperimentConfig
from gaugelab.experiments import EXPERIMENTS, run_experiment

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_CONFIG = {"target_mu": 25.0, "eta_points": 3, "rate_eta_points": 2,
                 "time_points": 11}
GOLDEN_RTOL = 1e-9
SPEC_RTOL = 1e-12


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return lines[:2], rows


def read_provenance(directory, name):
    with open(os.path.join(directory, f"{name}_provenance.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_matches_golden(name, tmp_path):
    golden = read_provenance(GOLDEN_DIR, name)
    run_experiment(name, ExperimentConfig.from_dict(
        {**GOLDEN_CONFIG, "outdir": str(tmp_path)}))
    prov = read_provenance(tmp_path, name)
    assert prov["panels"] == golden["panels"]
    assert ({**prov["config"], "outdir": None}
            == {**golden["config"], "outdir": None})
    assert prov["matter_spec"].keys() == golden["matter_spec"].keys()
    for key, want in golden["matter_spec"].items():
        got = prov["matter_spec"][key]
        if isinstance(want, int):
            assert got == want, key
        else:
            assert abs(got - want) <= SPEC_RTOL * abs(want), f"matter_spec {key}"
    assert (prov["convergence"]["converged_cutoffs"]
            == golden["convergence"]["converged_cutoffs"])
    assert prov["degeneracy_flags"] == golden["degeneracy_flags"]
    for panel in golden["panels"]:
        head, rows = read_csv(os.path.join(tmp_path, panel))
        golden_head, golden_rows = read_csv(os.path.join(GOLDEN_DIR, panel))
        assert head == golden_head, panel
        assert rows.shape == golden_rows.shape, panel
        scale = np.abs(golden_rows).max(axis=0)
        err = np.abs(rows - golden_rows).max(axis=0)
        for col, e, s in zip(golden_head[1].split(","), err, scale):
            assert e <= GOLDEN_RTOL * s, f"{panel} {col}: {e:.3e} vs scale {s:.3e}"


def rebless_refusal(environ) -> str | None:
    """Why a re-bless must not write under `environ`, or None if it may."""
    if environ.get("OPENBLAS_NUM_THREADS") != "1":
        return ("refusing to re-bless: the golden files are written with "
                "OPENBLAS_NUM_THREADS=1, got "
                f"{environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    return None


def test_rebless_needs_one_blas_thread():
    assert rebless_refusal({}) is not None
    assert rebless_refusal({"OPENBLAS_NUM_THREADS": "2"}) is not None
    assert rebless_refusal({"OPENBLAS_NUM_THREADS": "1"}) is None


if __name__ == "__main__":
    # Re-bless: OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py
    refusal = rebless_refusal(os.environ)
    if refusal:
        raise SystemExit(refusal)
    os.chdir(os.path.dirname(GOLDEN_DIR))
    for exp in sorted(EXPERIMENTS):
        run_experiment(exp, ExperimentConfig.from_dict(
            {**GOLDEN_CONFIG, "outdir": "golden"}))
