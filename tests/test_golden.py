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
well above thread noise.  The convergence ladder's target (the eta its rows
are read at), the cutoffs it tried and chose, the degeneracy flags and the
provenance config (all but `outdir`) must match exactly; each cell of the
row it recorded on each rung must match to GOLDEN_RTOL relative.  The solved well in the provenance `matter_spec` must match its
integer fields exactly and its float fields to SPEC_RTOL relative; between 1
and 2 OpenBLAS threads the calibrated spec at target_mu 25 and 70 is
bit-identical.  On the same outputs, each ladder's row at its converged
cutoffs must equal, float for float, the eta_max row of the sweep panels:
the ladder evaluates the record's own point row at eta_max, and the sweep
writes that row.

The test and the re-bless share one comparison per file (`csv_issues`,
`provenance_issues`).  The test compares the files of the `golden_outputs`
session fixture (tests/conftest.py), which runs each experiment once for it
and for the claims in tests/test_claims.py.  A re-bless runs every
experiment into a temporary directory and replaces only the stored files
whose comparison fails (`rebless`), so last-digit drift leaves them as they
are.
"""

import json
import os
import shutil
import tempfile

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


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def provenance_issues(path, golden_path) -> list[str]:
    """The compared provenance fields that differ from the golden file's; [] if none.

    Compared: the key sets of the provenance and of its convergence block
    (so a re-bless drops a key the run no longer writes), the panels, the
    config but `outdir`, `matter_spec`, the convergence block (its target,
    the cutoffs tried and converged, and the row of each rung) and the
    degeneracy flags.
    """
    prov, golden = read_json(path), read_json(golden_path)
    issues = [f"{name} keys" for name, got, want in
              [("provenance", prov, golden),
               ("convergence", prov.get("convergence", {}), golden.get("convergence", {}))]
              if got.keys() != want.keys()]
    if issues:
        return issues
    issues = [key for key in ("panels", "degeneracy_flags") if prov[key] != golden[key]]
    if {**prov["config"], "outdir": None} != {**golden["config"], "outdir": None}:
        issues.append("config")
    conv, golden_conv = prov["convergence"], golden["convergence"]
    issues += [key for key in ("target", "cutoffs_tried", "converged_cutoffs")
               if conv[key] != golden_conv[key]]
    rows, golden_rows = np.array(conv["values"]), np.array(golden_conv["values"])
    if rows.shape != golden_rows.shape or not np.all(
            np.abs(rows - golden_rows) <= GOLDEN_RTOL * np.abs(golden_rows)):
        issues.append("convergence values")
    if prov["matter_spec"].keys() != golden["matter_spec"].keys():
        return issues + ["matter_spec keys"]
    for key, want in golden["matter_spec"].items():
        got = prov["matter_spec"][key]
        same = (got == want if isinstance(want, int)
                else abs(got - want) <= SPEC_RTOL * abs(want))
        if not same:
            issues.append(f"matter_spec {key}")
    return issues


def csv_issues(path, golden_path) -> list[str]:
    """The columns off the golden CSV's by more than GOLDEN_RTOL of its scale.

    A differing header or shape is one issue of its own.
    """
    panel = os.path.basename(golden_path)
    head, rows = read_csv(path)
    golden_head, golden_rows = read_csv(golden_path)
    if head != golden_head:
        return [f"{panel}: header"]
    if rows.shape != golden_rows.shape:
        return [f"{panel}: shape {rows.shape} vs {golden_rows.shape}"]
    scale = np.abs(golden_rows).max(axis=0)
    err = np.abs(rows - golden_rows).max(axis=0)
    return [f"{panel} {col}: {e:.3e} vs scale {s:.3e}"
            for col, e, s in zip(golden_head[1].split(","), err, scale)
            if not e <= GOLDEN_RTOL * s]


def golden_files(directory, name):
    """(file name, comparison) for each file experiment `name` wrote."""
    prov = f"{name}_provenance.json"
    panels = read_json(os.path.join(directory, prov))["panels"]
    return [(panel, csv_issues) for panel in panels] + [(prov, provenance_issues)]


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_matches_golden(name, golden_outputs):
    outdir = os.path.dirname(golden_outputs(name)[0])
    for fname, issues in golden_files(GOLDEN_DIR, name):
        assert issues(os.path.join(outdir, fname),
                      os.path.join(GOLDEN_DIR, fname)) == []


def _columns(exp, config) -> list:
    return [c for _, columns, _ in exp.panels
            for c in (columns(config) if callable(columns) else columns)]


# Every column of every record's sweep panels, in row order: together they
# are the row its ladder records at eta_max.
GOLDEN_COLUMNS = [(name, column) for name, exp in sorted(EXPERIMENTS.items())
                  for column in _columns(exp, ExperimentConfig.from_dict(GOLDEN_CONFIG))]


@pytest.mark.parametrize("name, column", GOLDEN_COLUMNS)
def test_ladder_records_the_cell_its_csv_writes(name, column, golden_outputs):
    [prov_path] = [p for p in golden_outputs(name) if p.endswith("_provenance.json")]
    prov = read_json(prov_path)
    conv = prov["convergence"]
    assert conv["target"] == "row at eta_max"
    recorded = conv["values"][conv["cutoffs_tried"].index(conv["converged_cutoffs"])]
    row_columns = [c for n, c in GOLDEN_COLUMNS if n == name]
    assert len(recorded) == len(row_columns)
    cells = []
    for path in golden_outputs(name):
        if path.endswith(".csv"):
            (_, header), rows = read_csv(path)
            columns = header.split(",")
            if column in columns:
                [row] = rows[rows[:, 0] == prov["config"]["eta_max"]]
                cells.append(float(row[columns.index(column)]))
    assert cells == [recorded[row_columns.index(column)]]


def rebless(fresh_dir, golden_dir, names) -> list[str]:
    """Copy into golden_dir each fresh file that its golden comparison fails.

    Drift inside the tolerances keeps the golden file; a missing one is
    written.  Returns the names of the files written.
    """
    written = []
    for name in names:
        for fname, issues in golden_files(fresh_dir, name):
            fresh, golden = (os.path.join(d, fname) for d in (fresh_dir, golden_dir))
            if not os.path.exists(golden) or issues(fresh, golden):
                shutil.copyfile(fresh, golden)
                written.append(fname)
    return written


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


SYNTH_CONVERGENCE = {"target": "row at eta_max", "cutoffs_tried": [[30, 40], [30, 60]],
                     "converged_cutoffs": [30, 40], "values": [[0.75], [0.75]]}


def _write_synthetic(directory, value, theta, outdir, **convergence):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "synth_a.csv"), "w") as fh:
        fh.write(f"# units: eta 1, value 1\neta,value\n0.0,0.5\n1.0,{value!r}\n")
    prov = {"panels": ["synth_a.csv"], "config": {"eta_points": 2, "outdir": outdir},
            "convergence": {**SYNTH_CONVERGENCE, **convergence},
            "degeneracy_flags": [], "matter_spec": {"n_grid": 2048, "theta": theta}}
    with open(os.path.join(directory, "synth_provenance.json"), "w") as fh:
        json.dump(prov, fh)


def test_rebless_replaces_only_the_files_the_comparison_fails(tmp_path):
    golden, fresh = str(tmp_path / "golden"), str(tmp_path / "fresh")
    _write_synthetic(golden, 0.25, 1.5, "golden")  # value column scale 0.5
    stored = {f.name: f.read_text() for f in (tmp_path / "golden").iterdir()}
    # drift of 1e-16 in a column, and an uncompared field that differs
    assert 0.25 + 1e-16 != 0.25
    _write_synthetic(fresh, 0.25 + 1e-16, 1.5, "elsewhere")
    assert rebless(fresh, golden, ["synth"]) == []
    assert {f: (tmp_path / "golden" / f).read_text() for f in stored} == stored
    # a column off by more than GOLDEN_RTOL of its scale
    _write_synthetic(fresh, 0.25 + 2 * GOLDEN_RTOL * 0.5, 1.5, "golden")
    assert rebless(fresh, golden, ["synth"]) == ["synth_a.csv"]
    assert read_csv(os.path.join(golden, "synth_a.csv"))[1][1, 1] != 0.25
    # a compared provenance field off by more than SPEC_RTOL
    _write_synthetic(fresh, 0.25 + 2 * GOLDEN_RTOL * 0.5, 1.5 * (1 + 1e-10), "golden")
    assert rebless(fresh, golden, ["synth"]) == ["synth_provenance.json"]
    spec = read_json(os.path.join(golden, "synth_provenance.json"))["matter_spec"]
    assert spec["theta"] == 1.5 * (1 + 1e-10)


def test_rebless_compares_the_convergence_block(tmp_path):
    # the ladder must converge the same row over the same rungs; each cell it
    # recorded may drift within GOLDEN_RTOL relative
    golden, fresh = str(tmp_path / "golden"), str(tmp_path / "fresh")
    _write_synthetic(golden, 0.25, 1.5, "golden")
    _write_synthetic(fresh, 0.25, 1.5, "golden",
                     values=[[0.75], [0.75 * (1 + GOLDEN_RTOL / 2)]])
    assert rebless(fresh, golden, ["synth"]) == []
    changes = [{"target": "row at eta_fig4"},
               {"cutoffs_tried": [[30, 40], [30, 60], [30, 80]]},
               {"values": [[0.75], [0.75 * (1 + 2 * GOLDEN_RTOL)]]},
               {"values": [[0.75, 0.5], [0.75, 0.5]]},
               {"values": [[0.75]]}]
    for change in changes:
        _write_synthetic(golden, 0.25, 1.5, "golden")
        _write_synthetic(fresh, 0.25, 1.5, "golden", **change)
        assert rebless(fresh, golden, ["synth"]) == ["synth_provenance.json"], change
        conv = read_json(os.path.join(golden, "synth_provenance.json"))["convergence"]
        assert conv == {**SYNTH_CONVERGENCE, **change}
    # a key the run no longer writes, in the convergence block or at the top
    # level, must not survive a re-bless though every compared field matches
    path = os.path.join(golden, "synth_provenance.json")
    _write_synthetic(golden, 0.25, 1.5, "golden", stale=1)
    _write_synthetic(fresh, 0.25, 1.5, "golden")
    assert rebless(fresh, golden, ["synth"]) == ["synth_provenance.json"]
    assert read_json(path)["convergence"] == SYNTH_CONVERGENCE
    stale = {**read_json(path), "stale": 1}
    with open(path, "w") as fh:
        json.dump(stale, fh)
    assert rebless(fresh, golden, ["synth"]) == ["synth_provenance.json"]
    assert "stale" not in read_json(path)


if __name__ == "__main__":
    # Re-bless: OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py
    refusal = rebless_refusal(os.environ)
    if refusal:
        raise SystemExit(refusal)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the provenance records outdir "golden", as the stored files do
        for exp in sorted(EXPERIMENTS):
            run_experiment(exp, ExperimentConfig.from_dict(
                {**GOLDEN_CONFIG, "outdir": "golden"}))
        written = rebless(os.path.join(tmp, "golden"), GOLDEN_DIR, sorted(EXPERIMENTS))
        os.chdir(os.path.dirname(GOLDEN_DIR))
    print("re-blessed:", " ".join(written) if written else "nothing")
