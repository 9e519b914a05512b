"""The paper's headline claims, read off the CSVs that `run_experiment` emits.

Each figure runs on the golden config (target_mu 25, eta in {0, 0.5, 1}).
Every inequality carries a margin below the value measured on that grid,
which is recorded next to it.
"""

from gaugelab.config import ExperimentConfig
from gaugelab.experiments import run_experiment
from test_golden import GOLDEN_CONFIG, read_csv


def _eta_1_row(name, outdir) -> dict:
    """{column: value} in the eta = 1 row of experiment `name`'s one CSV."""
    config = ExperimentConfig.from_dict({**GOLDEN_CONFIG, "outdir": str(outdir)})
    [csv] = [p for p in run_experiment(name, config) if p.endswith(".csv")]
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
