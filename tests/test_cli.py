import json
import os
from dataclasses import fields

import numpy as np
import pytest

from gaugelab import experiments
from gaugelab.cli import main
from gaugelab.config import ExperimentConfig
from gaugelab.errors import ConfigError
from gaugelab.experiments import EXPERIMENTS, run_experiment


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_validate_default_ok(capsys):
    assert main(["validate"]) == 0
    assert "config valid" in capsys.readouterr().out


def test_validate_rejects_empty_grid(capsys):
    assert main(["validate", "--eta-points", "0"]) == 2
    assert "eta_points" in capsys.readouterr().out


def test_validate_rejects_cutoff_above_ceiling(capsys):
    assert main(["validate", "--n-ph", "500"]) == 2
    out = capsys.readouterr().out
    assert "n_ph" in out and "ceiling" in out  # remediation hint present


def test_validate_accepts_default_truncation():
    assert main(["validate", "--m-trunc", "1", "--n-mat", "30"]) == 0


def test_config_flags_override_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"eta_points": 7, "n_ph": 24}))
    import argparse

    from gaugelab.cli import _build_config
    ns = argparse.Namespace(config=str(cfg_file))
    for f in ExperimentConfig.__dataclass_fields__:
        setattr(ns, f, None)
    ns.eta_points = 11
    cfg = _build_config(ns)
    assert cfg.eta_points == 11  # flag wins
    assert cfg.n_ph == 24        # file value survives


@pytest.mark.parametrize("bad", [{"bogus_key": 1}, {"boltzmann_levels": 64},
                                 {"matter_spec": {"theta": -1.0, "phi": 1e-12,
                                                  "half_width": 14.0}},
                                 {"gap_tol_factor": 1e-8}])
def test_unknown_config_key_rejected(tmp_path, capsys, bad):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(bad))
    assert main(["validate", "--config", str(cfg_file)]) == 2
    assert next(iter(bad)) in capsys.readouterr().err


def test_invalid_json_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("{not json")
    assert main(["validate", "--config", str(cfg_file)]) == 2


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, kind):
    # a --config that cannot be read is a configuration error: exit 2 and one
    # `config error: <path>: ...` line, not a traceback or exit 1
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'{"kappa": "\xff"}')
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {path}: ")


@pytest.mark.parametrize("bad", [{"temperatures": "abc"}, {"temperatures": 2.0},
                                 {"n_ph": "40"}, {"kappa": None}, {"eta_points": 2.5}])
def test_wrongly_typed_config_value_rejected(tmp_path, capsys, bad):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(bad))
    assert main(["validate", "--config", str(cfg_file)]) == 2
    assert next(iter(bad)) in capsys.readouterr().out


def test_run_experiment_raises_config_error():
    with pytest.raises(ConfigError, match="fig99"):
        run_experiment("fig99", ExperimentConfig())
    with pytest.raises(ConfigError, match="eta_points"):
        run_experiment("figS3", ExperimentConfig.from_dict({"eta_points": 0}))


def test_figs3_rejects_more_than_two_levels_before_calibrating(monkeypatch, capsys):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated before rejecting m_trunc")

    monkeypatch.setattr(experiments, "calibrate_potential", no_calibration)
    assert main(["run", "figS3", "--target-mu", "25", "--m-trunc", "2"]) == 2
    assert "m_trunc" in capsys.readouterr().err


def test_fig4_rejects_a_rate_grid_above_eta_max_before_calibrating(monkeypatch, capsys):
    # the rate sweep runs from rate_eta_min up to eta_max; other figures
    # ignore it, so eta_max 0 stays valid for them
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated before rejecting the config")

    monkeypatch.setattr(experiments, "calibrate_potential", no_calibration)
    for name in ("fig4a", "fig4b"):
        assert main(["run", name, "--rate-eta-min", "1.5"]) == 2
        assert "rate_eta_min" in capsys.readouterr().err
    assert main(["validate", "--eta-max", "0"]) == 0


def test_fig4_rejects_eta_fig4_above_eta_max_before_calibrating(monkeypatch, capsys):
    # the cutoff ladder settles the row at eta_max, so a trajectory coupling
    # above it would run at cutoffs nothing checked
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated before rejecting the config")

    monkeypatch.setattr(experiments, "calibrate_potential", no_calibration)
    assert main(["validate", "fig4a", "--eta-fig4", "1.5"]) == 2
    assert "invalid: fig4a: eta_fig4: " in capsys.readouterr().out
    assert main(["run", "fig4b", "--eta-fig4", "1.5"]) == 2
    assert "eta_fig4: " in capsys.readouterr().err
    assert main(["validate", "fig4a", "--eta-fig4", "1.0"]) == 0


def test_ladder_without_room_rejected_before_calibrating(monkeypatch, capsys):
    # at the ceilings (60, 160) the cutoff ladder has one distinct rung, so
    # nothing could settle; the config passed validation, and `run`
    # calibrated before it exited 3
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated before rejecting the config")

    monkeypatch.setattr(experiments, "calibrate_potential", no_calibration)
    flags = ["--n-mat", "60", "--n-ph", "160"]
    assert main(["validate", "fig1b", *flags]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "invalid: n_mat, n_ph: the cutoff ladder from (60, 160) has one distinct rung "
        "under the ceilings"]
    assert main(["run", "fig1b", "--target-mu", "25", *flags]) == 2
    assert "n_mat, n_ph: the cutoff ladder" in capsys.readouterr().err
    assert main(["validate", "fig1b", "--n-mat", "60", "--n-ph", "140"]) == 0


def test_empty_outdir_rejected_before_calibrating(monkeypatch, capsys):
    # an empty outdir passed validation, and `run` failed in write_result after
    # the whole computation
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated before rejecting the config")

    monkeypatch.setattr(experiments, "calibrate_potential", no_calibration)
    assert main(["validate", "--outdir", ""]) == 2
    assert "invalid: outdir: " in capsys.readouterr().out
    assert main(["run", "figS3", "--target-mu", "25", "--eta-points", "2",
                 "--outdir", ""]) == 2
    assert "outdir: " in capsys.readouterr().err


def test_outdir_naming_a_file_rejected_before_calibrating(tmp_path, monkeypatch, capsys):
    # an outdir that names a file passed validation, and `run` failed in
    # write_result after the whole computation
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated before rejecting the config")

    afile = tmp_path / "afile"
    afile.write_text("")
    monkeypatch.setattr(experiments, "calibrate_potential", no_calibration)
    assert main(["validate", "--outdir", str(afile)]) == 2
    assert "invalid: outdir: " in capsys.readouterr().out
    assert main(["run", "figS3", "--target-mu", "25", "--eta-points", "2",
                 "--outdir", str(afile)]) == 2
    assert "outdir: " in capsys.readouterr().err


@pytest.mark.parametrize("name, flag, value", [("figS3", "--m-trunc", "2"),
                                               ("fig4a", "--rate-eta-min", "1.5"),
                                               ("fig4b", "--eta-fig4", "0"),
                                               ("fig4a", "--rate-eta-min", "0")])
def test_validate_applies_the_named_experiments_rules(monkeypatch, capsys, name, flag,
                                                      value):
    # `validate <exp>` rejects what `run <exp>` rejects, with the same message;
    # fig4 refuses eta = 0, where resonance makes levels 1 and 2 degenerate
    # (it used to fail only after calibration and the cutoff ladder)
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated before rejecting the config")

    monkeypatch.setattr(experiments, "calibrate_potential", no_calibration)
    assert main(["run", name, flag, value]) == 2
    err = capsys.readouterr().err
    assert main(["validate", name, flag, value]) == 2
    (line,) = capsys.readouterr().out.splitlines()
    message = line.removeprefix("invalid: ")
    assert message.startswith(f"{name}: {flag[2:].replace('-', '_')}:")
    assert message in err


def test_validate_without_the_rules_experiment_accepts(capsys):
    assert main(["validate", "fig1b", "--m-trunc", "2"]) == 0
    assert main(["validate", "--m-trunc", "2"]) == 0
    assert main(["validate", "--eta-fig4", "0"]) == 0
    # a positive eta_min lifts fig4's rate sweep off eta = 0
    assert main(["validate", "fig4a", "--rate-eta-min", "0", "--eta-min", "0.1"]) == 0
    assert main(["validate", "fig99"]) == 2
    assert "fig99" in capsys.readouterr().err


FLOAT_KEYS = [f.name for f in fields(ExperimentConfig) if f.type == "float"]


def _no_matter_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved the matter problem before rejecting the config")

    monkeypatch.setattr(experiments, "calibrate_potential", refuse)
    monkeypatch.setattr(experiments, "solve_double_well", refuse)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS + ["temperatures"])
def test_non_finite_flag_rejected_before_calibrating(monkeypatch, capsys, key, value):
    # float() and json.load both accept nan and inf, which every range check
    # lets through (nan compares false, inf passes a lower bound)
    _no_matter_solve(monkeypatch)
    flag = "--" + key.replace("_", "-")
    assert main(["validate", flag, value]) == 2
    assert f"invalid: {key}: must be a" in capsys.readouterr().out
    assert main(["run", "fig2", flag, value]) == 2
    assert f"{key}: must be a" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("doc", [lambda v: {"kappa": v}], ids=["kappa"])
def test_non_finite_config_value_rejected_before_calibrating(tmp_path, monkeypatch,
                                                             capsys, doc, value):
    _no_matter_solve(monkeypatch)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc(value)))  # written as NaN / Infinity
    assert main(["validate", "--config", str(cfg_file)]) == 2
    assert "must be a finite number" in capsys.readouterr().out
    assert main(["run", "figS3", "--config", str(cfg_file)]) == 2
    assert "must be a finite number" in capsys.readouterr().err


def test_fig2_rejects_temperatures_with_one_column_label(monkeypatch, capsys):
    # columns are labelled T{t:g}, so 0.5 and 0.5000001 would both write exact_T0.5
    _no_matter_solve(monkeypatch)
    flags = ["--temperatures", "0.5,0.5000001"]
    assert main(["validate", "fig2", *flags]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "invalid: fig2: temperatures: 0.5 and 0.5000001 share the column label T0.5"]
    assert main(["run", "fig2", *flags]) == 2
    assert "0.5 and 0.5000001" in capsys.readouterr().err
    assert main(["validate", "fig1b", *flags]) == 0


def test_list_names_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_unknown_experiment(capsys):
    assert main(["run", "fig99", "--eta-points", "2"]) == 2


def test_run_emits_csv_and_provenance(tmp_path, capsys):
    rc = main(["run", "figS3", "--eta-points", "3", "--outdir", str(tmp_path)])
    assert rc == 0
    out_paths = capsys.readouterr().out.split()
    assert len(out_paths) == 2
    csv_path = tmp_path / "figS3_variation.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# units:")
    assert lines[1] == "eta,dvar_1,dvar_2,dvar_3"
    assert len(lines) == 2 + 3
    prov = json.loads((tmp_path / "figS3_provenance.json").read_text())
    assert prov["experiment"] == "figS3"
    assert "convergence" in prov and "config_sha256" in prov
    assert prov["convergence"]["converged_cutoffs"][1] >= 40


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "a"
    args = ["run", "figS3", "--eta-points", "4", "--outdir", str(out)]
    assert main(args) == 0
    first = {name: read(out / name) for name in os.listdir(out)}
    for name in first:
        os.remove(out / name)
    assert main(args) == 0
    for name in first:
        assert read(out / name) == first[name]


# eta_max tops every sweep, fig4a's rate sweep included, so each sweep
# reuses the row the ladder settled there
@pytest.mark.parametrize("args", [["figS3", "--eta-points", "4"],
                                  ["figS3", "--target-mu", "25", "--eta-points", "4"],
                                  ["fig4a", "--target-mu", "25", "--rate-eta-points", "4",
                                   "--time-points", "11"]],
                         ids=["figS3", "figS3-mu25", "fig4a"])
def test_worker_pool_matches_serial(tmp_path, args):
    out_serial = tmp_path / "serial"
    out_pool = tmp_path / "pool"
    assert main(["run", *args, "--outdir", str(out_serial)]) == 0
    assert main(["run", *args, "--workers", "2", "--outdir", str(out_pool)]) == 0
    # provenance legitimately differs (workers, outdir); the data must not
    csvs = [name for name in os.listdir(out_serial) if name.endswith(".csv")]
    assert csvs
    for name in csvs:
        assert read(out_serial / name) == read(out_pool / name)


def test_outdir_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GAUGELAB_OUTDIR", str(tmp_path / "env_out"))
    assert main(["run", "figS3", "--eta-points", "2"]) == 0
    assert (tmp_path / "env_out" / "figS3_variation.csv").exists()


def test_convergence_failure_exit_code(tmp_path, capsys):
    # at eta 8 figS3's dvar_3 still moves between every pair of rungs (from
    # -1.68e-3 to -9.6e-5 over the five), so the ladder gives up
    rc = main(["run", "figS3", "--target-mu", "25", "--eta-points", "2", "--eta-max", "8",
               "--outdir", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("convergence failure: dvar_"), err
    assert " at eta_max: " in err


@pytest.mark.parametrize("name", ["fig2", "figS4"])
def test_vanishing_cells_settle(tmp_path, name):
    # at eta = 0 the qrm and h10c cells are rounding noise of 1e-30 to 2e-28
    # that moves by O(1) relative between rungs; the ladder's absolute floor
    # lets them settle instead of running out of rungs at (40, 120)
    assert main(["run", name, "--target-mu", "25", "--eta-max", "0", "--eta-points", "1",
                 "--outdir", str(tmp_path)]) == 0
    prov = json.loads((tmp_path / f"{name}_provenance.json").read_text())
    assert prov["convergence"]["converged_cutoffs"] == [30, 40]


def test_dump_basis(tmp_path, capsys):
    out_file = tmp_path / "basis.json"
    assert main(["dump-basis", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert set(payload) == {"eps", "X", "P", "X2"}
    assert len(payload["eps"]) == 30


def test_unwritable_output_exits_with_one_error_line(tmp_path, capsys):
    # an OSError from writing the output used to end in a traceback
    out_file = tmp_path / "missing" / "basis.json"
    assert main(["dump-basis", "--target-mu", "25", "--out", str(out_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(out_file) in err


def test_dump_basis_stdout(capsys):
    assert main(["dump-basis"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"eps", "X", "P", "X2"}


def test_fig1b_bound_ordering(tmp_path):
    # dipole-side ceiling at or above the Coulomb-side one beyond weak coupling
    assert main(["run", "fig1b", "--eta-points", "9",
                 "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "fig1b_bounds.csv").read_text().splitlines()[2:]
    for line in lines:
        eta, b_c, b_d = (float(v) for v in line.split(","))
        if eta >= 0.2:
            assert b_d >= b_c


def test_fig3_transitions_coincide_without_coupling(tmp_path):
    assert main(["run", "fig3", "--eta-points", "1", "--eta-max", "0",
                 "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "fig3_transitions.csv").read_text().splitlines()
    row = [float(v) for v in lines[2].split(",")]
    exact, qrm, h10c = row[1:4], row[4:7], row[7:10]
    assert np.allclose(exact, qrm, atol=1e-9)
    assert np.allclose(exact, h10c, atol=1e-9)
