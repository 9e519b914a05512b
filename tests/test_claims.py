"""The paper's headline claims, read off the CSVs that `run_experiment` emits.

Each figure runs on the golden config (target_mu 25, eta in {0, 0.5, 1}; the
fig4 rates at eta in {0.05, 1}).  Every inequality carries a margin below the
value measured on that grid, which is recorded next to it.
"""

from gaugelab.config import ExperimentConfig
from gaugelab.experiments import run_experiment
from test_golden import GOLDEN_CONFIG, read_csv


def _eta_1_row(name, outdir, panel=None) -> dict:
    """{column: value} in the eta = 1 row of experiment `name`'s CSV `panel`.

    `panel` None takes the experiment's one CSV."""
    config = ExperimentConfig.from_dict({**GOLDEN_CONFIG, "outdir": str(outdir)})
    suffix = ".csv" if panel is None else f"_{panel}.csv"
    [csv] = [p for p in run_experiment(name, config) if p.endswith(suffix)]
    (_, header), rows = read_csv(csv)
    [row] = rows[rows[:, 0] == 1.0]
    return dict(zip(header.split(","), row))


def test_fig3_rotated_model_read_as_coulomb_misses_the_first_transition(tmp_path):
    # the two-level rotated model, read in the Coulomb frame, is off by more
    # than the mode frequency, while the QRM stays within a few hundredths
    row = _eta_1_row("fig3", tmp_path)
    h10c = abs(row["h10c_1"] - row["exact_1"])
    qrm = abs(row["qrm_1"] - row["exact_1"])
    assert h10c > 1.0, h10c        # measured 2.57 omega
    assert qrm < 0.03, qrm         # measured 0.0151 omega
    assert h10c > 100 * qrm        # measured ratio 170


def test_fig2_rotated_model_misses_the_ground_photon_number(tmp_path):
    # at T = 0 the rotated model read as Coulomb is further from the exact
    # transverse-photon number than the QRM in its dipole-truncated frame
    row = _eta_1_row("fig2", tmp_path)
    h10c = abs(row["h10c_T0"] - row["exact_T0"])
    qrm = abs(row["qrm_T0"] - row["exact_T0"])
    assert h10c > 0.05, h10c       # measured 0.0914
    assert qrm < 0.01, qrm         # measured 0.00529
    assert h10c > 10 * qrm         # measured ratio 17.3


def test_fig1b_dipole_truncation_has_the_higher_ceiling(tmp_path):
    # the dipole-gauge ground state keeps more weight in the two-level block
    row = _eta_1_row("fig1b", tmp_path)
    gap = row["bound_dipole"] - row["bound_coulomb"]
    assert gap > 0.03, gap         # measured 0.99985 - 0.95188 = 0.0480


def test_figs1_dipole_fidelities_stay_under_the_ceiling(tmp_path):
    row = _eta_1_row("figS1", tmp_path)
    # measured f_qrm 0.99935 (margin 5.0e-4), f_ph1p 0.99984 (margin 1.0e-5)
    # under bound_dipole 0.99985
    assert row["f_qrm"] <= row["bound_dipole"]
    assert row["f_ph1p"] <= row["bound_dipole"]


def test_figs2_coulomb_fidelities_stay_under_the_ceiling(tmp_path):
    # the rotated model reaches the Coulomb ceiling more closely than the
    # naive Coulomb truncation, and neither crosses it
    row = _eta_1_row("figS2", tmp_path)
    assert row["f_h0sq"] < row["f_h10"]            # measured 0.87380 < 0.94759
    assert row["f_h10"] <= row["bound_coulomb"]    # measured 0.94759, margin 4.3e-3
    assert row["ratio_h10_bound"] < 1              # measured 0.99550


def test_figs4_coulomb_readings_miss_the_excited_population(tmp_path):
    # read against the exact Coulomb population, the rotated model read as
    # Coulomb and the naive Coulomb truncation miss by far more than the QRM
    # in its dipole-truncated frame
    row = _eta_1_row("figS4", tmp_path)
    err = {label: abs(row[label] - row["exact"]) for label in ("qrm", "h10c", "h0sq")}
    assert err["h10c"] > 10 * err["qrm"], err     # measured 0.0553 vs 0.00125 (44x)
    assert err["h0sq"] > 10 * err["qrm"], err     # measured 0.0743 vs 0.00125 (59x)


def test_fig4b_rotated_model_misses_the_momentum_channel_rate(tmp_path):
    row = _eta_1_row("fig4b", tmp_path, panel="rates")
    h10c = abs(row["rate_h10c"] - row["rate_exact"])
    qrm = abs(row["rate_qrm"] - row["rate_exact"])
    assert h10c > 2 * qrm, (h10c, qrm)   # measured 0.0252 vs 0.00547 omega (4.6x)
