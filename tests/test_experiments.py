"""Workbench construction, the fig2 thermal sums and the fig4 closed forms.

These run at target_mu 25 or on an explicit harmonic well: the calibrated
mu = 70 well fails the finite-difference grid check on some BLAS stacks,
and nothing here depends on the barrier height.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh, expm

from gaugelab import analysis, experiments, gauge
from gaugelab.analysis import COULOMB_TRUNCATED, DIPOLE_TRUNCATED, EXACT_COULOMB
from gaugelab.config import ExperimentConfig
from gaugelab.errors import CutoffCeiling, DegenerateGapAmbiguity, SpaceMismatch
from gaugelab.experiments import Workbench
from gaugelab.matter1d import MatterSpec
from reference import (delta_variation, evolve, exact_gauge_rep, expectation,
                       from_eigensystem, rotated_correct_rep, rotated_model)
from test_golden import read_csv, read_json

HARMONIC = {"theta": -1.0, "phi": 1e-12, "half_width": 14.0, "n_grid": 1024,
            "n_mat": 8}


def test_explicit_spec_keeps_its_box_at_and_below_its_n_mat():
    wb = Workbench(ExperimentConfig.from_dict({"n_mat": 8}), spec=MatterSpec(**HARMONIC))
    for n_mat in (2, 5, 8):
        spec = wb.basis_for(n_mat).spec
        assert (spec.n_mat, spec.half_width, spec.n_grid) == (n_mat, 14.0, 1024)
    np.testing.assert_allclose(wb.basis_for(8).energies, np.arange(8) + 0.5, atol=1e-7)


def test_calibrated_basis_below_its_n_mat_keeps_the_base_box(wb25):
    # auto_spec's box for 10 (2) levels leaked at 1.4e-7 (2.8e-4) edge
    # amplitude; the base box holds every lower level.  Measured deviation
    # from the base basis's lowest levels: 2.9e-12 (n_mat 10), 2.4e-12 (2)
    base = wb25.basis_for(wb25.spec.n_mat)
    for n_mat in (10, 2):
        basis = wb25.basis_for(n_mat)
        assert basis.spec == replace(wb25.spec, n_mat=n_mat)
        dev = np.abs(basis.energies - base.energies[:n_mat]).max()
        assert dev <= 1e-11 * wb25.omega, (n_mat, dev)


def test_pool_initializer_uses_the_handed_spec(wb25, monkeypatch):
    def no_calibration(*args, **kwargs):
        raise AssertionError("pool worker calibrated again")

    monkeypatch.setattr(experiments, "calibrate_potential", no_calibration)
    monkeypatch.setattr(experiments, "_POOL_WB", None)
    experiments._pool_init(wb25.config.to_dict(), wb25.spec)
    pool_wb = experiments._POOL_WB
    assert pool_wb.spec is wb25.spec
    assert pool_wb.omega == wb25.omega


@pytest.mark.parametrize("kind, alpha", [("exact", 0.0), ("exact", 0.5), ("exact", 1.0),
                                         ("standard", 0.0), ("standard", 1.0),
                                         ("projected", 1.0), ("rotated", 1.0)])
def test_every_builder_is_real_symmetric(wb25, kind, alpha):
    # the i^n photon basis makes every model real by construction
    cutoffs = (30, 16)
    basis, space = wb25.basis_for(30), wb25.space(0.5, cutoffs)
    h = (rotated_model(basis, space, alpha, 0.0) if kind == "rotated"
         else gauge.build_model(kind, basis, space, alpha))
    assert h.dtype == np.float64
    assert np.abs(h - h.T).max() <= 1e-12 * np.abs(h).max()
    assert analysis.eigensolve(h).states.dtype == np.float64


def test_one_block_cache_serves_every_kind(wb25):
    # each kind's eta-independent blocks are cached once per (kind, alpha,
    # cutoffs) and reassembled at every eta, bit for bit as build_model does,
    # for every model of the catalogue; the three kinds are all the
    # catalogue solves, h10c's states being qrm's rotated by T_10
    cutoffs = (30, 16)
    basis = wb25.basis_for(cutoffs[0])
    assert gauge.MODEL_KINDS == ("exact", "standard", "projected")
    assert {model.kind for model in experiments.MODELS.values()} == set(gauge.MODEL_KINDS)
    for eta in (0.3, 0.7):
        space = wb25.space(eta, cutoffs)
        t10 = gauge.rotation(1.0, 0.0, basis, space, truncated=True)
        for label, (kind, alpha, _) in experiments.MODELS.items():
            got = wb25.eigensystem(label, eta, cutoffs)
            want = analysis.eigensolve(gauge.build_model(kind, basis, space, alpha))
            if label == "h10c":
                want = analysis.EigenSystem(want.energies,
                                            analysis._fix_phases(t10 @ want.states))
            assert np.array_equal(got.energies, want.energies)
            assert np.array_equal(got.states, want.states)


@pytest.mark.parametrize("cutoffs", [(30, 40), (30, 60)])
def test_h10c_is_the_dense_rotated_model(wb25, cutoffs):
    # the Workbench reads h10c off qrm's eigensystem: qrm's energies bit for
    # bit and the states T_10 V_qrm.  Against the dense T_10 H_qrm T_10^T of
    # the reference, the energies, fig3's <P H_0 P> readings and fig2's n_et
    # Gibbs sums agree to 1e-12 of their scale (measured worst 3.3e-15,
    # 4.5e-15 and 5.8e-15), and each non-degenerate state of the lowest eight
    # to 1e-11 (measured 3e-13).  At eta = 0 the resonant doublets are
    # degenerate, and their vectors are any basis of the pair
    temps = [0.0, 0.5, 1.0, 2.0]
    basis = wb25.basis_for(cutoffs[0])
    for eta in (0.0, 0.3, 1.0):
        ctx = wb25.context(eta, cutoffs)
        got = wb25.eigensystem("h10c", eta, cutoffs)
        assert np.array_equal(got.energies, wb25.eigensystem("qrm", eta, cutoffs).energies)
        want = analysis.eigensolve(rotated_model(basis, ctx.space, 1.0, 0.0))
        energy = ctx.represent("energy", COULOMB_TRUNCATED)
        pairs = [(got.energies, want.energies),
                 (got.expectations(energy)[:4], want.expectations(energy)[:4])]
        pairs += [[analysis.thermal_average("n_et", COULOMB_TRUNCATED, ctx, es, temps)
                   for es in (got, want)]]
        for a, b in pairs:
            assert np.abs(np.subtract(a, b)).max() <= 1e-12 * np.abs(b).max(), eta
        for i in np.nonzero(~want.degenerate_flags(wb25.omega)[:8])[0]:
            assert np.abs(got.state(i) - want.state(i)).max() <= 1e-11, (eta, i)


def test_figs3_reads_the_discrepancy_off_qrm(wb25):
    # figS3's point reads Delta over the Workbench's qrm eigensystem, whose
    # matrix is `assemble` of the same blocks a standalone standard(1) build
    # forms, so it equals the reference solve bit for bit
    cutoffs = (30, 16)
    for eta in (0.0, 0.5, 1.0):
        row, flags = experiments._point_figs3(wb25, eta, cutoffs)
        want = delta_variation(wb25.basis_for(cutoffs[0]), wb25.space(eta, cutoffs), 3)
        assert row[0] == eta and flags == []
        assert np.array_equal(row[1:], want), eta


def test_frame_representations_are_real_except_momentum(wb25):
    # R and T are real orthogonal, so every representation keeps its
    # observable's dtype (the two test-reference frames included); p = -i*D
    # is the one complex observable, and its average over a real state is
    # exactly zero
    ctx = wb25.context(0.5, (30, 16))
    frames = (EXACT_COULOMB, DIPOLE_TRUNCATED, COULOMB_TRUNCATED)
    for name in analysis.OBSERVABLE_NAMES:
        want = np.complex128 if name == "p_over_omega" else np.float64
        reps = [ctx.represent(name, frame) for frame in frames]
        reps += [exact_gauge_rep(ctx, name, 1.0), rotated_correct_rep(ctx, name)]
        for rep in reps:
            assert rep.dtype == want, name
    exact = wb25.eigensystem("exact", 0.5, (30, 16), k=1)
    qrm = wb25.eigensystem("qrm", 0.5, (30, 16), k=1)
    assert exact.states.dtype == qrm.states.dtype == np.float64
    for frame in frames:
        es = exact if frame == EXACT_COULOMB else qrm
        assert es.expectations(ctx.represent("p_over_omega", frame)).tolist() == [0.0]
    assert expectation(exact_gauge_rep(ctx, "p_over_omega", 1.0), exact.state(0)) == 0.0
    assert expectation(rotated_correct_rep(ctx, "p_over_omega"), qrm.state(0)) == 0.0


def _ladder(**config) -> list:
    """Rungs the ladder evaluates for a two-cell row whose second cell never
    settles; it must give up.

    The ladder reads only the config, so it runs without a solve."""
    tried = []

    def row(n_mat, n_ph):
        tried.append((n_mat, n_ph))
        return [0.5, float(n_mat + n_ph)]

    wb = SimpleNamespace(config=ExperimentConfig.from_dict(config))
    # the message names the row's eta and the cell that did not settle when
    # the rungs ran out
    with pytest.raises(CutoffCeiling) as raised:
        experiments.converged_cutoffs(wb, row, ["settles", "moves"])
    assert str(raised.value).startswith("moves at eta_max: ")
    return tried


def test_cutoff_ladder_never_compares_a_rung_with_itself():
    # the default schedule is unchanged; rungs capped at the n_ph ceiling 160
    # used to repeat, and a repeat "converged" against itself; a config with
    # one distinct rung left is refused before anything is evaluated
    assert _ladder() == [(30, 40), (30, 60), (30, 80), (40, 100), (40, 120)]
    assert _ladder(n_ph=150) == [(30, 150), (30, 160), (40, 160)]
    assert _ladder(n_ph=160) == [(30, 160), (40, 160)]
    assert _ladder(n_ph=100) == [(30, 100), (30, 120), (30, 140), (40, 160)]
    assert experiments.config_issues(
        ExperimentConfig.from_dict({"n_mat": 60, "n_ph": 160}), []) == [
        "n_mat, n_ph: the cutoff ladder from (60, 160) has one distinct rung under "
        "the ceilings"]


def test_fig2_row_settles_in_every_column_at_its_converged_cutoffs(wb25, golden_outputs):
    # the eta = 1 row fig2 writes on the golden config, at the cutoffs its
    # ladder chose, against the same row one rung up the default schedule.
    # A ladder that compared only exact_T2 stopped at (30, 40), where
    # h10c_T2 and qrm_T2 sit 3.8e-6 relative off their (30, 60) values
    schedule = [(30, 40), (30, 60), (30, 80), (40, 100), (40, 120)]
    paths = golden_outputs("fig2")
    [prov] = [read_json(p) for p in paths if p.endswith("_provenance.json")]
    [((_, header), rows)] = [read_csv(p) for p in paths if p.endswith(".csv")]
    [written] = rows[rows[:, 0] == 1.0]
    cutoffs = tuple(prov["convergence"]["converged_cutoffs"])
    above, _ = experiments._point_fig2(wb25, 1.0, schedule[schedule.index(cutoffs) + 1])
    rtol = prov["config"]["converge_rtol"]
    for column, got, want in zip(header.split(",")[1:], written[1:], above[1:]):
        assert abs(got - want) <= rtol * max(abs(got), abs(want)), (column, cutoffs)


def test_sweep_reuses_the_row_of_the_settled_rung(tmp_path, monkeypatch):
    # the ladder evaluates figS3's row at eta_max on every rung; the sweep
    # takes the settled rung's row for eta_max and solves only the others
    calls = []
    exp = experiments.EXPERIMENTS["figS3"]

    def point(wb, eta, cutoffs):
        calls.append((float(eta), tuple(cutoffs)))
        return exp.point(wb, eta, cutoffs)

    monkeypatch.setitem(experiments.EXPERIMENTS, "figS3", replace(exp, point=point))
    config = ExperimentConfig.from_dict({"target_mu": 25.0, "eta_points": 2,
                                         "outdir": str(tmp_path)})
    experiments.run_experiment("figS3", config)
    prov = json.loads((tmp_path / "figS3_provenance.json").read_text())["convergence"]
    rungs = [(1.0, tuple(c)) for c in prov["cutoffs_tried"]]
    assert calls == rungs + [(0.0, tuple(prov["converged_cutoffs"]))]
    assert len(calls) == 3
    assert prov["target"] == "row at eta_max"


def test_thermal_average_over_temperatures_matches_each(wb25):
    cutoffs = (30, 12)
    ctx = wb25.context(0.5, cutoffs)
    es = wb25.eigensystem("exact", 0.5, cutoffs)
    temps = [0.0, 0.5, 1.0, 2.0]
    together = analysis.thermal_average("n_et", EXACT_COULOMB, ctx, es, temps)
    assert together == [analysis.thermal_average("n_et", EXACT_COULOMB, ctx, es, [t])[0]
                        for t in temps]


def test_thermal_average_refuses_a_partial_set_above_zero_temperature(wb25):
    # a Gibbs sum over the lowest 40 of 360 levels silently drops weight;
    # the T = 0 average reads only the ground state, so it stays allowed
    cutoffs = (30, 12)
    ctx = wb25.context(0.5, cutoffs)
    es = wb25.eigensystem("exact", 0.5, cutoffs, k=40)
    with pytest.raises(SpaceMismatch):
        analysis.thermal_average("n_et", EXACT_COULOMB, ctx, es, [1.0])
    with pytest.raises(SpaceMismatch):
        analysis.thermal_average("n_et", EXACT_COULOMB, ctx, es, [0.0, 1.0])
    ground = es.expectations(ctx.represent("n_et", EXACT_COULOMB))[0]
    assert analysis.thermal_average("n_et", EXACT_COULOMB, ctx, es, [0.0]) == [ground]


def test_fig2_target_matches_the_matrix_exponential_gibbs_state(wb25):
    # the exact_T2 cell of fig2's row against tr(exp(-(H - E0)/T) n) / Z at
    # the config's top temperature, T = 2, with the Gibbs state from scipy's
    # expm instead of an eigendecomposition;
    # measured relative deviation 1.5e-14, while a sum truncated at 128
    # levels is off by 8.0e-12
    eta, cutoffs = 1.0, (30, 40)
    t = max(wb25.config.temperatures)
    assert t == 2.0
    h = gauge.build_model("exact", wb25.basis_for(cutoffs[0]), wb25.space(eta, cutoffs), 0.0)
    e0 = eigh(h, eigvals_only=True, subset_by_index=(0, 0))[0]
    rho = expm(-(h - e0 * np.eye(len(h))) / t)
    n_et = np.kron(np.eye(cutoffs[0]), np.diag(np.arange(cutoffs[1], dtype=float)))
    oracle = np.trace(rho @ n_et) / np.trace(rho)
    row, _ = experiments._point_fig2(wb25, eta, cutoffs)
    got = row[1 + experiments._fig2_columns(wb25.config).index("exact_T2")]
    assert abs(got - oracle) <= 1e-12 * abs(oracle), (got, oracle)


@pytest.mark.parametrize("m_trunc", [1, 2])
def test_fig4_trajectory_matches_the_master_equation(wb25, m_trunc):
    # the closed-form n(t) of the first excited eigenstate against DOP853 on
    # 40 levels (the whole truncated space when it is smaller); measured
    # worst relative deviation 9.5e-12 at m_trunc 1, 9.7e-12 at m_trunc 2
    cfg = ExperimentConfig.from_dict({"target_mu": 25.0, "m_trunc": m_trunc})
    wb = Workbench(cfg, wb25.spec)
    cutoffs = (cfg.n_mat, cfg.n_ph)
    ctx = wb.context(cfg.eta_fig4, cutoffs)
    times = cfg.time_grid()
    worst = 0.0
    for channel in ("q_et", "p_over_omega"):
        panel = experiments._trajectory_fig4(channel, wb, cutoffs)
        closed = np.array(panel.rows)
        for col, label in enumerate(experiments._FIG4_MODELS, start=1):
            frame = experiments.MODELS[label].frame
            es = wb.eigensystem(label, cfg.eta_fig4, cutoffs, k=min(40, ctx.space.sub_dim))
            sys = from_eigensystem(es, ctx.represent(channel, frame), cfg.kappa,
                                   gap_tol=experiments._FIG4_GAP_TOL * wb.omega)
            v = es.states
            n_read = v.conj().T @ ctx.represent("n_et", frame) @ v
            rho0 = np.zeros((sys.n_lev, sys.n_lev), dtype=complex)
            rho0[1, 1] = 1.0
            oracle = evolve(sys, rho0, times, observables={"n": n_read},
                            rtol=1e-12, atol=1e-14).expectations["n"]
            dev = np.abs(closed[:, col] - oracle).max() / np.abs(oracle).max()
            worst = max(worst, dev)
    assert worst <= 1e-10, worst


def test_three_retained_levels_stay_under_the_ceiling(tmp_path):
    # m_trunc 2 keeps three levels: every fidelity stays under its side's
    # ceiling, as figS1/figS2 and fig1b report it, and figS4 reads its frames
    # on the three-level block
    config = ExperimentConfig.from_dict({"target_mu": 25.0, "eta_points": 3,
                                         "m_trunc": 2, "outdir": str(tmp_path)})
    panels = {}
    for name in ("fig1b", "figS1", "figS2", "figS4"):
        [csv] = [p for p in experiments.run_experiment(name, config) if p.endswith(".csv")]
        (_, header), rows = read_csv(csv)
        panels[name] = dict(zip(header.split(","), rows.T))
    for name, bound in (("figS1", "bound_dipole"), ("figS2", "bound_coulomb")):
        fids = {c: v for c, v in panels[name].items() if c.startswith("f_")}
        assert len(fids) == 2
        for col, f in fids.items():
            for ceiling in (panels[name][bound], panels["fig1b"][bound]):
                assert (f <= ceiling + 1e-10).all(), (name, col, f, ceiling)
    population = np.array(list(panels["figS4"].values()))
    assert population.shape == (6, 3)
    assert np.isfinite(population).all()


def test_degeneracy_flags_reach_the_top_reported_level(wb25):
    # at eta = 0 and resonance the exact levels pair as |e, n> and |g, n + 1>:
    # indices 1/2, 3/4 and 5/6 (gap 3.6e-15 omega).  fig3 reports four
    # levels and figS5 six, so the top one's partner lies just above them; a
    # solve of only the reported levels flagged 1-2 and 1-4
    cutoffs = (4, 8)
    _, fig3 = experiments._point_fig3(wb25, 0.0, cutoffs)
    _, figs5 = experiments._point_figs5(wb25, 0.0, cutoffs)
    assert fig3 == [[0.0, i] for i in range(1, 4)]
    assert figs5 == [[0.0, i] for i in range(1, 6)]
    with pytest.raises(SpaceMismatch):
        experiments._flagged(wb25.eigensystem("exact", 0.0, cutoffs, k=4), wb25.omega,
                             0.0, 4)


def test_fig4_point_refuses_a_degenerate_first_excited_state(wb25):
    # at eta = 0 the bare |e, 0> and |g, 1> are degenerate at resonance, so
    # the first excited eigenstate, and its decay rate, are not defined
    with pytest.raises(DegenerateGapAmbiguity):
        experiments._point_fig4("q_et", wb25, 0.0, (30, 20))
