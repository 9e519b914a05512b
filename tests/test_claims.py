"""The paper's headline claims, read off the CSVs that `run_experiment` emits.

Each figure runs on the golden config (target_mu 25, eta in {0, 0.5, 1}; the
fig4 rates at eta in {0.05, 1}), once per session: the `golden_outputs`
fixture serves the golden comparison the same files.  Every inequality
carries a margin below the value measured on that grid, which is recorded
next to it.
"""

from test_golden import read_csv


def _row(outputs, name, panel=None, eta=1.0) -> dict:
    """{column: value} in the `eta` row of experiment `name`'s CSV `panel`.

    `panel` None takes the experiment's one CSV."""
    suffix = ".csv" if panel is None else f"_{panel}.csv"
    [csv] = [p for p in outputs(name) if p.endswith(suffix)]
    (_, header), rows = read_csv(csv)
    [row] = rows[rows[:, 0] == eta]
    return dict(zip(header.split(","), row))


def test_fig3_rotated_model_read_as_coulomb_misses_the_first_transition(golden_outputs):
    # the two-level rotated model, read in the Coulomb frame, is off by more
    # than the mode frequency, while the QRM stays within a few hundredths
    row = _row(golden_outputs, "fig3")
    h10c = abs(row["h10c_1"] - row["exact_1"])
    qrm = abs(row["qrm_1"] - row["exact_1"])
    assert h10c > 1.0, h10c        # measured 2.57 omega
    assert qrm < 0.03, qrm         # measured 0.0151 omega
    assert h10c > 100 * qrm        # measured ratio 170


def test_fig2_rotated_model_misses_the_ground_photon_number(golden_outputs):
    # at T = 0 the rotated model read as Coulomb is further from the exact
    # transverse-photon number than the QRM in its dipole-truncated frame
    row = _row(golden_outputs, "fig2")
    h10c = abs(row["h10c_T0"] - row["exact_T0"])
    qrm = abs(row["qrm_T0"] - row["exact_T0"])
    assert h10c > 0.05, h10c       # measured 0.0914
    assert qrm < 0.01, qrm         # measured 0.00529
    assert h10c > 10 * qrm         # measured ratio 17.3


def test_fig1b_dipole_truncation_has_the_higher_ceiling(golden_outputs):
    # the dipole-gauge ground state keeps more weight in the two-level block
    row = _row(golden_outputs, "fig1b")
    gap = row["bound_dipole"] - row["bound_coulomb"]
    assert gap > 0.03, gap         # measured 0.99985 - 0.95188 = 0.0480


def test_figs1_dipole_fidelities_stay_under_the_ceiling(golden_outputs):
    row = _row(golden_outputs, "figS1")
    # measured f_qrm 0.99935 (margin 5.0e-4), f_ph1p 0.99984 (margin 1.0e-5)
    # under bound_dipole 0.99985
    assert row["f_qrm"] <= row["bound_dipole"]
    assert row["f_ph1p"] <= row["bound_dipole"]


def test_figs2_coulomb_fidelities_stay_under_the_ceiling(golden_outputs):
    # the rotated model reaches the Coulomb ceiling more closely than the
    # naive Coulomb truncation, and neither crosses it
    row = _row(golden_outputs, "figS2")
    assert row["f_h0sq"] < row["f_h10"]            # measured 0.87380 < 0.94759
    assert row["f_h10"] <= row["bound_coulomb"]    # measured 0.94759, margin 4.3e-3
    assert row["ratio_h10_bound"] < 1              # measured 0.99550


def test_figs4_coulomb_readings_miss_the_excited_population(golden_outputs):
    # read against the exact Coulomb population, the rotated model read as
    # Coulomb and the naive Coulomb truncation miss by far more than the QRM
    # in its dipole-truncated frame
    row = _row(golden_outputs, "figS4")
    err = {label: abs(row[label] - row["exact"]) for label in ("qrm", "h10c", "h0sq")}
    assert err["h10c"] > 10 * err["qrm"], err     # measured 0.0553 vs 0.00125 (44x)
    assert err["h0sq"] > 10 * err["qrm"], err     # measured 0.0743 vs 0.00125 (59x)


def test_fig4b_rotated_model_misses_the_momentum_channel_rate(golden_outputs):
    row = _row(golden_outputs, "fig4b", "rates")
    h10c = abs(row["rate_h10c"] - row["rate_exact"])
    qrm = abs(row["rate_qrm"] - row["rate_exact"])
    assert h10c > 2 * qrm, (h10c, qrm)   # measured 0.0252 vs 0.00547 omega (4.6x)


def test_fig4a_rotated_model_keeps_the_field_quadrature_rate(golden_outputs):
    # through the field quadrature the rotated model read as Coulomb decays at
    # the QRM's rate (the quadrature is linear in the mode momentum); through
    # the matter momentum (fig4b) the two part by a large fraction
    field = _row(golden_outputs, "fig4a", "rates")
    matter = _row(golden_outputs, "fig4b", "rates")
    same = abs(field["rate_h10c"] - field["rate_qrm"]) / field["rate_qrm"]
    apart = abs(matter["rate_h10c"] - matter["rate_qrm"]) / matter["rate_qrm"]
    assert same < 1e-10, same      # measured 4.0e-13 (2.6e-17 omega)
    assert apart > 0.3, apart      # measured 0.740


def test_figs3_discrepancy_varies_between_eigenstates_once_coupled(golden_outputs):
    # <Delta>_i - <Delta>_0, the state dependence of the as-Coulomb error in
    # the photon number: absent without coupling, and growing with it
    dvar = {eta: max(abs(v) for c, v in _row(golden_outputs, "figS3", eta=eta).items()
                     if c != "eta")
            for eta in (0.0, 0.5, 1.0)}
    assert dvar[0.0] == 0.0, dvar                  # measured exactly 0.0
    assert dvar[1.0] > 0.01, dvar                  # measured 0.0259 (dvar_3)
    assert dvar[1.0] > 1.2 * dvar[0.5], dvar       # measured 0.0259 vs 0.0154 (1.7x)


def test_figs5_projected_model_tracks_the_first_exact_transition(golden_outputs):
    # the projected model keeps the first exact transition far more closely
    # than the QRM
    row = _row(golden_outputs, "figS5", "transitions")
    ph1p = abs(row["ph1p_t1"] - row["exact_t1"])
    qrm = abs(row["qrm_t1"] - row["exact_t1"])
    assert qrm > 5 * ph1p, (ph1p, qrm)   # measured 0.0151 vs 0.00150 omega (10.1x)
