"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Numeric thresholds are fixed here, not tuned at runtime; where a threshold
was derived from an oracle computation the measured margin is recorded in a
comment next to the assert.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gaugelab.analysis import (COULOMB_TRUNCATED, DIPOLE_TRUNCATED, EXACT_COULOMB,
                               EigenSystem, FrameContext, cs_bound,
                               eigensolve, fidelity, thermal_average,
                               transition_energies)
from gaugelab.cli import main as cli_main
from gaugelab.fockspace import lift
from gaugelab.gauge import build_model, delta_operator, rotation
from reference import (decay_rate, delta_variation, evolve, exact_gauge_rep,
                       from_eigensystem, hamiltonian_difference, rotated_correct_rep,
                       rotated_model, rotation_difference)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} ({label}): PASS")


def low_photon_block(n_keep_mat, n_keep_ph, n_ph):
    return [mu * n_ph + n for mu in range(n_keep_mat) for n in range(n_keep_ph)]


def test_criterion_1_gauge_invariance(basis, make_space):
    with criterion(1, "exact-theory gauge invariance"):
        for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
            start = time.perf_counter()
            space = make_space(eta, n_ph=60)
            e0 = eigensolve(build_model("exact", basis, space, 0.0), k=6).energies
            e1 = eigensolve(build_model("exact", basis, space, 1.0), k=6).energies
            elapsed = time.perf_counter() - start
            assert np.abs((e0 - e1) / e0).max() < 1e-6  # measured ~1e-13
            assert elapsed < 60.0


def test_criterion_2_cs_bound_never_violated(basis, make_space):
    with criterion(2, "subspace fidelity ceiling on the full grid"):
        for eta in np.linspace(0.0, 1.0, 101):
            space = make_space(eta)
            refs = {
                1.0: eigensolve(build_model("exact", basis, space, 1.0), k=1).state(0),
                0.0: eigensolve(build_model("exact", basis, space, 0.0), k=1).state(0),
            }
            models = [
                (build_model("standard", basis, space, 1.0), 1.0),
                (build_model("projected", basis, space, 1.0), 1.0),
                (build_model("standard", basis, space, 0.0), 0.0),
                (rotated_model(basis, space, 1.0, 0.0), 0.0),
            ]
            for h, ref_alpha in models:
                ground = eigensolve(h, k=1).state(0)
                s = refs[ref_alpha]
                bound = cs_bound(s, space)
                assert fidelity(lift(ground, space), s) <= bound + 1e-10
            for s in refs.values():
                phi = np.zeros_like(s)
                phi[: space.sub_dim] = s[: space.sub_dim]
                phi /= np.linalg.norm(phi)
                assert abs(fidelity(phi, s) - cs_bound(s, space)) < 1e-12


def test_criterion_3_operator_identities(basis, make_space):
    with criterion(3, "difference-operator identities"):
        for eta in (0.25, 0.5, 1.0):
            space = make_space(eta)
            closed = delta_operator(basis, space)
            ham = hamiltonian_difference(basis, space)
            assert np.abs(closed - ham).max() < 1e-10  # measured ~4e-15
            std0 = build_model("standard", basis, space, 0.0)
            proj0 = build_model("projected", basis, space, 0.0)
            assert np.abs(std0 - proj0).max() < 1e-12  # identical by construction
        # rotation route runs through the full-space unitary; stable on
        # low-photon blocks once the Fock cutoff is converged
        devs = {}
        for n_ph in (40, 60):
            space = make_space(0.5, n_ph=n_ph)
            closed = delta_operator(basis, space)
            rot = rotation_difference(basis, space)
            sel = low_photon_block(2, 13, n_ph)
            devs[n_ph] = np.abs((closed - rot)[np.ix_(sel, sel)]).max()
        assert devs[60] < 1e-6  # measured ~1e-14
        assert devs[40] < 1e-6


def test_criterion_4_delta_variation_bound(basis, make_space):
    with criterion(4, "eigenstate variation of the discrepancy"):
        worst = max(
            np.abs(delta_variation(basis, make_space(eta), 3)).max()
            for eta in np.linspace(0.0, 1.0, 21))
        assert worst < 0.02  # measured ~0.011 at eta = 1


def test_criterion_5_transition_accuracy_contrast(basis, make_space):
    with criterion(5, "transitions accurate, absolute energies not"):
        envelope = 0.0
        for eta in np.linspace(0.0, 1.0, 21):
            space = make_space(eta)
            es_ex = eigensolve(build_model("exact", basis, space, 0.0), k=4)
            es_qrm = eigensolve(build_model("standard", basis, space, 1.0), k=4)
            dev = np.abs(transition_energies(es_ex, 3, space.omega)
                         - transition_energies(es_qrm, 3, space.omega)).max()
            envelope = max(envelope, dev)
        assert envelope <= 0.05  # measured ~0.010
        space = make_space(1.0)
        es_ex = eigensolve(build_model("exact", basis, space, 0.0), k=4)
        es_qrm = eigensolve(build_model("standard", basis, space, 1.0), k=4)
        abs_err = np.abs(es_qrm.energies[:4] - es_ex.energies[:4]).max()
        assert abs_err > 5 * envelope  # measured ratio ~8


def test_criterion_6_frame_misidentification_signal(basis, make_space):
    with criterion(6, "as-Coulomb reading degrades predictions"):
        space = make_space(1.0)
        ctx = FrameContext(basis, space)
        es_ex = eigensolve(build_model("exact", basis, space, 0.0), k=1)
        es_qrm = eigensolve(build_model("standard", basis, space, 1.0), k=1)
        es_h10 = eigensolve(rotated_model(basis, space, 1.0, 0.0), k=1)
        for obs in ("n_et", "gamma"):
            exact, dip, wrong = (es.expectations(ctx.represent(obs, frame))[0]
                                 for es, frame in ((es_ex, EXACT_COULOMB),
                                                   (es_qrm, DIPOLE_TRUNCATED),
                                                   (es_h10, COULOMB_TRUNCATED)))
            # oracle margins at eta = 1: ratio ~22 for the photon number,
            # ~280 for the excited population
            assert abs(wrong - exact) > 3 * abs(dip - exact)


def test_criterion_7_field_quadrature_linearity(basis, make_space):
    with criterion(7, "field-quadrature representation identity"):
        for eta in (0.5, 1.0):
            space = make_space(eta, n_ph=60)
            ctx = FrameContext(basis, space)
            correct = rotated_correct_rep(ctx, "q_et")
            naive = ctx.represent("q_et", COULOMB_TRUNCATED)
            sel = low_photon_block(2, 13, 60)
            dev = np.abs((correct - naive)[np.ix_(sel, sel)]).max()
            assert dev < 1e-5  # measured ~4e-15 at this cutoff


def test_criterion_8_lindblad_contracts(basis, make_space):
    with criterion(8, "density-matrix evolution contracts"):
        space = make_space(0.5)
        ctx = FrameContext(basis, space)
        es = eigensolve(build_model("exact", basis, space, 0.0), k=40)
        times = np.linspace(0.0, 200.0, 81)
        for channel in ("q_et", "p_over_omega"):
            sys = from_eigensystem(es, ctx.represent(channel, EXACT_COULOMB),
                                   kappa=0.05, gap_tol=1e-8)
            rho0 = np.zeros((40, 40), dtype=complex)
            rho0[1, 1] = 1.0
            traj = evolve(sys, rho0, times)
            traces = np.einsum("tii->t", traj.states)
            assert np.abs(traces - 1.0).max() < 1e-8
            for state in traj.states[::20]:
                herm = (state + state.conj().T) / 2
                assert np.linalg.eigvalsh(herm).min() > -1e-7
        # kappa = 0: eigenstates are stationary to integrator tolerance
        sys0 = from_eigensystem(
            EigenSystem(es.energies[:12], es.states[:, :12]),
            ctx.represent("q_et", EXACT_COULOMB), kappa=0.0, gap_tol=1e-8)
        rho0 = np.zeros((12, 12), dtype=complex)
        rho0[3, 3] = 1.0
        traj = evolve(sys0, rho0, np.linspace(0.0, 50.0, 11))
        assert np.abs(traj.states - rho0[None]).max() < 1e-10
        # decoupled limit: single-channel photon decay rate equals kappa
        space0 = make_space(0.0)
        ctx0 = FrameContext(basis, space0)
        es0 = eigensolve(build_model("exact", basis, space0, 0.0), k=12)
        sysf = from_eigensystem(es0, ctx0.represent("q_et", EXACT_COULOMB),
                                kappa=0.05, gap_tol=1e-8)
        one_photon = next(
            i for i in range(12)
            if int(np.argmax(np.abs(es0.state(i)))) == 1)  # state (mu=0, n=1)
        assert abs(decay_rate(sysf, one_photon) - 0.05) < 1e-6 * 0.05


def test_criterion_9_rate_gauge_invariance(basis, make_space):
    with criterion(9, "exact rates agree across gauges"):
        space = make_space(0.5)
        ctx = FrameContext(basis, space)
        es0 = eigensolve(build_model("exact", basis, space, 0.0), k=5)
        es1 = eigensolve(build_model("exact", basis, space, 1.0), k=5)
        r01 = rotation(0.0, 1.0, basis, space)
        states1 = es1.states.copy()
        for i in range(5):
            ov = np.vdot(states1[:, i], r01 @ es0.states[:, i])
            assert abs(ov) > 0.99  # no level crossings at this coupling
            states1[:, i] *= ov / abs(ov)
        kappa = 0.05
        for name in ("q_et", "p_over_omega"):
            o0 = ctx.represent(name, EXACT_COULOMB)
            o1 = exact_gauge_rep(ctx, name, 1.0)
            t0 = es0.states.conj().T @ o0 @ es0.states
            t1 = states1.conj().T @ o1 @ states1
            g0 = kappa * np.einsum("ij,kl->ijkl", t0, t0)
            g1 = kappa * np.einsum("ij,kl->ijkl", t1, t1)
            assert np.abs(g0 - g1).max() < 1e-5 * np.abs(g0).max()  # ~1e-11


def test_criterion_10_determinism_and_runtime(tmp_path):
    from gaugelab.experiments import EXPERIMENTS

    with criterion(10, "byte-identical reruns; suite fits the time budget"):
        out = tmp_path / "det"
        args = ["run", "fig1b", "--eta-points", "5", "--outdir", str(out)]
        assert cli_main(args) == 0
        first = {n: (out / n).read_bytes() for n in os.listdir(out)}
        for n in first:
            os.remove(out / n)
        assert cli_main(args) == 0
        for n in first:
            assert (out / n).read_bytes() == first[n]

        # project the default-grid runtime from reduced-grid runs, charging
        # fixed costs (calibration, convergence escalation) to every point
        budget_s = 1800.0
        total = 0.0
        for name in EXPERIMENTS:
            sweep_pts, default_pts = ("--rate-eta-points", 21) \
                if name.startswith("fig4") else ("--eta-points", 101)
            probe = 4
            start = time.perf_counter()
            rc = cli_main(["run", name, sweep_pts, str(probe),
                           "--time-points", "51",
                           "--outdir", str(tmp_path / f"probe_{name}")])
            assert rc == 0
            elapsed = time.perf_counter() - start
            total += (elapsed / probe) * default_pts
        print(f"\nprojected full-suite runtime: {total:.0f} s")
        assert total < budget_s
