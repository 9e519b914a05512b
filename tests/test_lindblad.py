"""The fig4 closed form and the gap-resolved master equation it closes.

`experiments.first_excited_rate` is held to the reference `decay_rate` and
`evolve` (tests/reference.py) on synthetic eigensystems whose eigenbasis is
the standard one, so a coupling matrix is its own eigenbasis projection; the
reference itself is checked on the free mode and on solved models.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from gaugelab.analysis import (DIPOLE_TRUNCATED, EXACT_COULOMB, ROTATED_AS_COULOMB,
                               EigenSystem, FrameContext, eigensolve)
from gaugelab.errors import DegenerateGapAmbiguity, SpaceMismatch
from gaugelab.experiments import first_excited_rate
from gaugelab.gauge import build_model, rotation
from conftest import random_hermitian
from reference import (LindbladSystem, NonUniqueSteadyState, decay_rate, evolve,
                       exact_gauge_rep, from_eigensystem, jump_operators, liouvillian,
                       stationary_state)

KAPPA = 0.05


def eigenbasis(energies) -> EigenSystem:
    """A synthetic eigensystem: the given levels on the standard basis vectors."""
    return EigenSystem(np.asarray(energies, dtype=float), np.eye(len(energies)))


def cavity(n=10):
    """Free mode: H = omega(n + 1/2) in its eigenbasis, and the field quadrature."""
    a = np.diag(np.sqrt(np.arange(1, n)), 1)
    return eigenbasis(np.arange(n) + 0.5), 1j * (a.T - a)


def cavity_system(n=10, kappa=KAPPA):
    """The free mode's master equation, with loss through the field quadrature."""
    return from_eigensystem(*cavity(n), kappa=kappa, gap_tol=1e-8)


def test_free_cavity_jump_operators():
    sys = cavity_system()
    ops = jump_operators(sys)
    assert len(ops) == 1  # only single-photon gaps carry matrix elements
    gap, op = ops[0]
    assert abs(gap - 1.0) < 1e-12
    for n in range(9):
        assert abs(op[n + 1, n] - 1j * np.sqrt(n + 1)) < 1e-12


def test_jump_completeness(rng):
    h = np.sort(rng.normal(size=12)) * 3.0
    o = random_hermitian(rng, 12)
    sys = LindbladSystem(energies=h, coupling=o, kappa=1.0, gap_tol=1e-10)
    total = np.diag(np.diag(o)).astype(complex)
    for _, op in jump_operators(sys):
        total += op + op.conj().T
    assert np.abs(total - o).max() < 1e-10


def test_two_level_toy_rate():
    # the toy's two coupled levels, and a third, uncoupled one far above it
    # that shows the closed form that level 1 has no degenerate partner
    es = eigenbasis([0.0, 1.0, 5.0])
    coupling = np.zeros((3, 3))
    coupling[0, 1] = coupling[1, 0] = 0.3
    sys = from_eigensystem(es, coupling, kappa=0.7, gap_tol=1e-8)
    ops = jump_operators(sys)
    assert len(ops) == 1
    rate = first_excited_rate(es, coupling, 0.7, 1e-8)
    assert abs(rate - 0.7 * 0.09) < 1e-14
    assert rate == decay_rate(sys, 1)


def test_degenerate_gap_ambiguity():
    tol = 1e-8
    energies = np.array([0.0, 1.0, 1.0 + 1.5 * tol])
    coupling = np.array([[0.0, 0.2, 0.3], [0.2, 0.0, 0.1], [0.3, 0.1, 0.0]])
    sys = LindbladSystem(energies=energies, coupling=coupling, kappa=1.0,
                         gap_tol=tol)
    with pytest.raises(DegenerateGapAmbiguity):
        jump_operators(sys)


def test_decoupled_momentum_rates_factorize(basis, make_space):
    # without coupling, a matter-sector observable only connects states with
    # the same photon content
    space = make_space(0.0, n_mat=6, n_ph=10)
    ctx = FrameContext(basis, space)
    es = eigensolve(build_model("exact", basis, space, 0.0))
    es = EigenSystem(es.energies[:30], es.states[:, :30])
    sys = from_eigensystem(es, ctx.represent("p_over_omega", EXACT_COULOMB),
                           kappa=1.0, gap_tol=1e-8)
    labels = [int(np.argmax(np.abs(es.state(i)))) % space.n_ph for i in range(30)]
    tilde = sys.coupling
    for i in range(30):
        for j in range(30):
            if abs(tilde[i, j]) > 1e-10 * np.abs(tilde).max():
                assert labels[i] == labels[j]


def test_kappa_zero_eigenstate_stationary():
    sys = LindbladSystem(energies=np.arange(6) + 0.5,
                         coupling=np.zeros((6, 6)), kappa=0.0, gap_tol=1e-8)
    rho0 = np.zeros((6, 6), dtype=complex)
    rho0[2, 2] = 1.0
    traj = evolve(sys, rho0, np.linspace(0.0, 20.0, 21))
    assert np.abs(traj.states - rho0[None]).max() < 1e-10


def test_free_decay_matches_analytic():
    sys = cavity_system()
    rho0 = np.zeros((10, 10), dtype=complex)
    rho0[1, 1] = 1.0
    times = np.linspace(0.0, 40.0, 81)
    nop = np.diag(np.arange(10)).astype(complex)
    traj = evolve(sys, rho0, times, observables={"n": nop})
    np.testing.assert_allclose(traj.expectations["n"], np.exp(-KAPPA * times),
                               atol=1e-9)


def test_trajectory_invariants(basis, make_space):
    space = make_space(0.5)
    ctx = FrameContext(basis, space)
    es = eigensolve(build_model("exact", basis, space, 0.0), k=20)
    sys = from_eigensystem(es, ctx.represent("q_et", EXACT_COULOMB),
                           kappa=KAPPA, gap_tol=1e-8)
    rho0 = np.zeros((20, 20), dtype=complex)
    rho0[1, 1] = 1.0
    times = np.linspace(0.0, 100.0, 51)
    traj = evolve(sys, rho0, times)  # the check flag enforces the invariants
    traces = np.einsum("tii->t", traj.states)
    assert np.abs(traces - 1.0).max() < 1e-8
    for idx in (0, 25, 50):
        herm = (traj.states[idx] + traj.states[idx].conj().T) / 2
        assert np.linalg.eigvalsh(herm).min() > -1e-7


def test_energy_nonincreasing_under_downward_jumps(basis, make_space):
    space = make_space(0.5)
    ctx = FrameContext(basis, space)
    es = eigensolve(build_model("exact", basis, space, 0.0), k=16)
    sys = from_eigensystem(es, ctx.represent("q_et", EXACT_COULOMB),
                           kappa=KAPPA, gap_tol=1e-8)
    rho0 = np.zeros((16, 16), dtype=complex)
    rho0[2, 2] = 0.5
    rho0[5, 5] = 0.5
    traj = evolve(sys, rho0, np.linspace(0.0, 120.0, 61))
    energy = np.einsum("tii,i->t", traj.states, sys.energies).real
    assert (np.diff(energy) <= 1e-9).all()


def test_evolve_matches_generator_exponential(rng):
    h = np.sort(rng.normal(size=6)) * 2.0
    o = random_hermitian(rng, 6)
    sys = LindbladSystem(energies=h, coupling=o, kappa=0.2, gap_tol=1e-10)
    lv = liouvillian(sys)
    rho0 = np.zeros((6, 6), dtype=complex)
    rho0[2, 2] = 1.0
    times = np.array([0.0, 1.5, 4.0])
    traj = evolve(sys, rho0, times, check=False)
    for k, t in enumerate(times):
        expected = (expm(lv * t) @ rho0.ravel()).reshape(6, 6)
        assert np.abs(traj.states[k] - expected).max() < 1e-8


def test_stationary_state_is_ground_projector():
    sys = cavity_system()
    rho = stationary_state(sys)
    expected = np.zeros((10, 10))
    expected[0, 0] = 1.0
    assert np.abs(rho - expected).max() < 1e-9


def test_stationary_state_cross_checks_long_time_evolution(basis, make_space):
    space = make_space(0.5, n_ph=20, n_mat=10)
    ctx = FrameContext(basis, space)
    es = eigensolve(build_model("exact", basis, space, 0.0), k=12)
    sys = from_eigensystem(es, ctx.represent("q_et", EXACT_COULOMB),
                           kappa=KAPPA, gap_tol=1e-8)
    rho = stationary_state(sys)  # includes the evolve cross-check
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert abs(rho[0, 0].real - 1.0) < 1e-6  # zero-T bath relaxes to the ground state


def test_steady_state_reproduces_zero_temperature_gibbs(basis, make_space):
    # the zero-temperature thermal curve and the Lindblad stationary state
    # report the same photon number for the exact model
    from gaugelab.analysis import thermal_average

    space = make_space(0.5)
    ctx = FrameContext(basis, space)
    es = eigensolve(build_model("exact", basis, space, 0.0), k=24)
    [gibbs0] = thermal_average("n_et", EXACT_COULOMB, ctx, es, [0.0])
    sys = from_eigensystem(es, ctx.represent("q_et", EXACT_COULOMB),
                           kappa=KAPPA, gap_tol=1e-8)
    rho = stationary_state(sys)
    v = es.states[:, :24]
    n_block = v.conj().T @ ctx.represent("n_et", EXACT_COULOMB) @ v
    steady = np.trace(rho @ n_block).real
    assert abs(steady - gibbs0) < 1e-6


def test_dark_tower_gives_non_unique_steady_state(basis, make_space):
    # without coupling the photonic loss channel cannot empty the excited
    # matter tower, so the generator has several stationary states
    space = make_space(0.0, n_mat=4, n_ph=8)
    ctx = FrameContext(basis, space)
    es = eigensolve(build_model("exact", basis, space, 0.0), k=8)
    sys = from_eigensystem(es, ctx.represent("q_et", EXACT_COULOMB),
                           kappa=KAPPA, gap_tol=1e-8)
    with pytest.raises(NonUniqueSteadyState):
        stationary_state(sys)


def test_free_decay_rate_value():
    rate = first_excited_rate(*cavity(), KAPPA, 1e-8)
    assert abs(rate - KAPPA) < 1e-6 * KAPPA
    assert rate == decay_rate(cavity_system(), 1)


def test_first_excited_population_matches_evolve():
    times = np.linspace(0.0, 100.0, 51)
    rho0 = np.zeros((10, 10), dtype=complex)
    rho0[1, 1] = 1.0
    traj = evolve(cavity_system(), rho0, times, rtol=1e-12, atol=1e-14)
    closed = np.exp(-first_excited_rate(*cavity(), KAPPA, 1e-8) * times)
    assert np.abs(closed - traj.population(1)).max() < 1e-10  # measured 2.9e-12


COUPLING3 = np.array([[0.0, 0.2, 0.3], [0.2, 0.0, 0.1], [0.3, 0.1, 0.0]])


def test_first_excited_population_refuses_a_degenerate_level():
    tol = 1e-8
    times = np.array([0.0, 2.0])
    split = first_excited_rate(eigenbasis([0.0, 1.0, 1.5]), COUPLING3, 0.5, tol)
    np.testing.assert_allclose(np.exp(-split * times), np.exp(-0.5 * 0.04 * times),
                               rtol=1e-14)
    with pytest.raises(DegenerateGapAmbiguity):
        first_excited_rate(eigenbasis([0.0, 1.0, 1.0 + 0.5 * tol]), COUPLING3, 0.5, tol)
    with pytest.raises(SpaceMismatch):
        first_excited_rate(eigenbasis([0.0, 1.0, 1.5]), COUPLING3[:2, :2], 0.5, tol)


def test_first_excited_rate_is_zero_without_a_downward_gap():
    # level 1 within gap_tol of the ground state: no gap cluster carries a
    # jump from it, so the reference channel sum and the closed form are 0
    tol = 1e-8
    es = eigenbasis([0.0, 0.5 * tol, 1.0])
    sys = from_eigensystem(es, COUPLING3, kappa=0.5, gap_tol=tol)
    assert decay_rate(sys, 1) == 0.0
    assert first_excited_rate(es, COUPLING3, 0.5, tol) == 0.0


@pytest.fixture(scope="module")
def rate_bundle(basis, make_space):
    """Exact and truncated systems at eta = 0.5 for both loss channels."""
    space = make_space(0.5)
    ctx = FrameContext(basis, space)
    es0 = eigensolve(build_model("exact", basis, space, 0.0), k=16)
    es1 = eigensolve(build_model("exact", basis, space, 1.0), k=16)
    es_qrm = eigensolve(build_model("standard", basis, space, 1.0), k=16)
    es_h10 = eigensolve(build_model("rotated", basis, space, 1.0,
                                    alpha_target=0.0), k=16)
    return {"space": space, "ctx": ctx, "es0": es0, "es1": es1,
            "es_qrm": es_qrm, "es_h10": es_h10}


def _rate_table(states, coupling, kappa, imax):
    n = imax + 1
    tilde = states[:, :n].conj().T @ coupling @ states[:, :n]
    return kappa * np.einsum("ij,kl->ijkl", tilde, tilde)


def test_exact_rates_gauge_invariant(rate_bundle, basis):
    # the same physical rates computed from the Coulomb and dipole
    # representations (observable conjugated, eigenvectors of the matching
    # Hamiltonian) must agree
    space, ctx = rate_bundle["space"], rate_bundle["ctx"]
    es0, es1 = rate_bundle["es0"], rate_bundle["es1"]
    r01 = rotation(0.0, 1.0, basis, space)
    for name in ("q_et", "p_over_omega"):
        o0 = ctx.represent(name, EXACT_COULOMB)
        o1 = exact_gauge_rep(ctx, name, 1.0)
        t0 = es0.states[:, :5].conj().T @ o0 @ es0.states[:, :5]
        # align the dipole-gauge eigenvectors through the gauge rotation
        states1 = es1.states[:, :5].copy()
        for i in range(5):
            ov = np.vdot(states1[:, i], r01 @ es0.states[:, i])
            assert abs(ov) > 0.99
            states1[:, i] *= ov / abs(ov)
        t1 = states1.conj().T @ o1 @ states1
        g0 = KAPPA * np.einsum("ij,kl->ijkl", t0, t0)
        g1 = KAPPA * np.einsum("ij,kl->ijkl", t1, t1)
        scale = np.abs(g0).max()
        assert np.abs(g0 - g1).max() < 1e-5 * scale


def test_truncated_rates_quality_by_frame(rate_bundle):
    # field-quadrature rate moduli from the dipole-truncated frame track the
    # exact ones; momentum-channel rates read as-Coulomb from the rotated
    # model do not (thresholds frozen from this oracle computation; moduli
    # sidestep the per-eigenvector phase freedom of independent solves)
    ctx = rate_bundle["ctx"]
    es0 = rate_bundle["es0"]

    exact_q = _rate_table(es0.states, ctx.represent("q_et", EXACT_COULOMB),
                          KAPPA, 3)
    dip_q = _rate_table(rate_bundle["es_qrm"].states,
                        ctx.represent("q_et", DIPOLE_TRUNCATED), KAPPA, 3)
    scale_q = np.abs(exact_q).max()
    assert np.abs(np.abs(dip_q) - np.abs(exact_q)).max() < 0.02 * scale_q

    exact_p = _rate_table(es0.states,
                          ctx.represent("p_over_omega", EXACT_COULOMB),
                          KAPPA, 3)
    h10_p = _rate_table(rate_bundle["es_h10"].states,
                        ctx.represent("p_over_omega", ROTATED_AS_COULOMB),
                        KAPPA, 3)
    scale_p = np.abs(exact_p).max()
    assert np.abs(np.abs(h10_p) - np.abs(exact_p)).max() > 0.10 * scale_p
