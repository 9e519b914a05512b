from functools import partial

import numpy as np
import pytest
from scipy.linalg import expm

from gaugelab.analysis import (COULOMB_TRUNCATED, DIPOLE_TRUNCATED, EXACT_COULOMB,
                               OBSERVABLE_NAMES, EigenSystem, FrameContext, converge,
                               cs_bound, eigensolve, fidelity, thermal_average,
                               transition_energies)
from gaugelab.errors import (CutoffCeiling, MissingContext, NotNormalized,
                             SolverFailure, SpaceMismatch)
from gaugelab.fockspace import CompositeSpace, fock_operators, lift
from gaugelab.gauge import build_model, delta_operator
from conftest import random_hermitian
from reference import (delta_variation, exact_gauge_rep, expectation,
                       hamiltonian_difference, rotated_correct_rep, rotated_model)


@pytest.fixture(scope="module")
def eta1(basis, make_space):
    """Shared strong-coupling bundle: eta = 1 context, exact and model systems."""
    space = make_space(1.0)
    ctx = FrameContext(basis, space)
    out = {
        "space": space,
        "ctx": ctx,
        "exact0": eigensolve(build_model("exact", basis, space, 0.0), k=8),
        "exact1": eigensolve(build_model("exact", basis, space, 1.0), k=8),
        "qrm": eigensolve(build_model("standard", basis, space, 1.0)),
        "proj1": eigensolve(build_model("projected", basis, space, 1.0)),
        "h0sq": eigensolve(build_model("standard", basis, space, 0.0)),
        "h10": eigensolve(rotated_model(basis, space, 1.0, 0.0)),
    }
    return out


def test_eigensolve_contract_random(rng):
    mat = random_hermitian(rng, 50)
    es = eigensolve(mat)
    assert (np.diff(es.energies) >= 0).all()
    assert es.residual_max(mat) < 1e-9
    gram = es.states.conj().T @ es.states
    assert np.abs(gram - np.eye(50)).max() < 1e-10
    # phase convention: largest component of each column is real positive
    lead = es.states[np.argmax(np.abs(es.states), axis=0), np.arange(50)]
    assert np.abs(lead.imag).max() < 1e-12
    assert (lead.real > 0).all()


def test_expectations_read_every_state_and_check_realness(rng):
    # one pass over a complex partial set against <v|M|v> state by state; a
    # matrix of the wrong size or with an imaginary diagonal is refused
    mat = random_hermitian(rng, 30)
    es = eigensolve(mat, k=5)
    got = es.expectations(mat)
    want = [expectation(mat, es.state(i)) for i in range(5)]
    assert np.abs(got - want).max() < 1e-12 * np.abs(mat).max()
    assert np.abs(got - es.energies).max() < 1e-12 * np.abs(mat).max()
    with pytest.raises(SpaceMismatch):
        es.expectations(mat[:29, :29])
    with pytest.raises(SolverFailure):
        es.expectations(1j * np.eye(30))


def test_eigensolve_decoupled_ground(basis, make_space):
    space = make_space(0.0)
    es = eigensolve(build_model("exact", basis, space, 0.0), k=1)
    expected = basis.energies[0] + space.omega / 2
    assert abs(es.energies[0] - expected) < 1e-10


def test_eigensolve_decoupled_qrm(basis, make_space):
    space = make_space(0.0)
    es = eigensolve(build_model("standard", basis, space, 1.0))
    ladder = np.sort(np.add.outer(basis.energies[:2],
                                  space.omega * (np.arange(space.n_ph) + 0.5)).ravel())
    np.testing.assert_allclose(es.energies, ladder, atol=1e-10)


def test_fidelity_basics(rng):
    u = rng.normal(size=6) + 1j * rng.normal(size=6)
    u /= np.linalg.norm(u)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v -= u * np.vdot(u, v)
    v /= np.linalg.norm(v)
    assert abs(fidelity(u, u) - 1.0) < 1e-14
    assert fidelity(u, v) < 1e-14
    w = np.exp(1j * 0.321) * u
    assert abs(fidelity(w, v) - fidelity(u, v)) < 1e-14
    with pytest.raises(NotNormalized):
        fidelity(2 * u, v)


def test_cs_bound_inside_subspace(make_space, rng):
    space = make_space(0.5)
    vec = np.zeros(space.dim, dtype=complex)
    seg = rng.normal(size=space.sub_dim)
    vec[: space.sub_dim] = seg / np.linalg.norm(seg)
    assert abs(cs_bound(vec, space) - 1.0) < 1e-12


def test_cs_bound_rejects_a_p_space_vector(wb25):
    # a normalized vector of the P-subspace's own length is not a full-space
    # state; reading its leading sub_dim entries would report a ceiling of 1
    space = wb25.space(0.5, (30, 16))
    vec = np.ones(space.sub_dim) / np.sqrt(space.sub_dim)
    with pytest.raises(SpaceMismatch):
        cs_bound(vec, space)


def test_cs_bound_saturation(eta1):
    # the projected-and-renormalized exact state reaches the ceiling exactly
    space = eta1["space"]
    s = eta1["exact0"].state(0)
    bound = cs_bound(s, space)
    phi = np.zeros_like(s)
    phi[: space.sub_dim] = s[: space.sub_dim]
    phi /= np.linalg.norm(phi)
    assert abs(fidelity(phi, s) - bound) < 1e-12


def test_bound_ordering_strong_coupling(eta1):
    # dipole-side ceiling stays near one; Coulomb-side ceiling does not
    space = eta1["space"]
    b_coulomb = cs_bound(eta1["exact0"].state(0), space)
    b_dipole = cs_bound(eta1["exact1"].state(0), space)
    assert b_dipole > b_coulomb
    assert b_dipole > 0.999
    assert b_coulomb < 0.96


def test_bound_never_violated(eta1):
    space = eta1["space"]
    for ref_tag, models in (("exact1", ("qrm", "proj1")),
                            ("exact0", ("h0sq", "h10"))):
        s = eta1[ref_tag].state(0)
        bound = cs_bound(s, space)
        for tag in models:
            for i in range(4):
                f = fidelity(lift(eta1[tag].state(i), space), s)
                assert f <= bound + 1e-10


def test_projection_residual_identity(eta1, make_space):
    # ||S - <phi|S> phi||^2 = 1 - F(phi, S)
    space = eta1["space"]
    s = eta1["exact1"].state(0)
    phi = lift(eta1["qrm"].state(0), space)
    z = s - np.vdot(phi, s) * phi
    f = fidelity(phi, s)
    assert abs(np.vdot(z, z).real - (1.0 - f)) < 1e-12


def test_no_close_eigenvalue_means_bounded_fidelity(eta1):
    # spectral corollary of the subspace bound: the Coulomb-side two-level
    # model has no eigenvalue near the exact ground energy, and accordingly no
    # truncated vector approaches the exact ground state
    space = eta1["space"]
    s = eta1["exact0"].state(0)
    e_exact = eta1["exact0"].energies[0]
    gap = np.abs(eta1["h0sq"].energies - e_exact).min()
    assert gap > 0.05
    best = max(fidelity(lift(eta1["h0sq"].state(i), space), s)
               for i in range(eta1["h0sq"].count))
    assert best < 0.96
    assert best <= cs_bound(s, space) + 1e-10


def test_frames_coincide_without_coupling(basis, make_space):
    space = make_space(0.0)
    ctx = FrameContext(basis, space)
    for name in ("n_et", "gamma", "q_et", "p_over_omega"):
        d = space.sub_dim
        block = ctx.represent(name, EXACT_COULOMB)[:d, :d]
        reps = [ctx.represent(name, frame)
                for frame in (DIPOLE_TRUNCATED, COULOMB_TRUNCATED)]
        for rep in reps + [rotated_correct_rep(ctx, name)]:
            assert np.abs(rep - block).max() < 1e-10


@pytest.mark.parametrize("m_levels", [2, 3])
@pytest.mark.parametrize("eta", [0.5, 1.0])
def test_frames_match_their_definition(wb25, eta, m_levels):
    # each frame's representation against S O_0 S^T with R_01 and T_10 from
    # expm on cutoffs (10, 24): the package frames' S = I, P and the P rows
    # of R_01, and the references' S = R_01 and T_10 times those rows; three
    # levels reach P rows beyond the two-level block.  Measured worst
    # deviation 4.8e-15 of the observable's scale (rotated_correct).
    basis = wb25.basis_for(30)
    space = CompositeSpace.create(10, 24, wb25.omega, m_levels, eta, basis.x10)
    ctx = FrameContext(basis, space)
    qa = space.charge * fock_operators(space.n_ph, space.omega).amplitude
    r01 = expm(-1j * np.kron(basis.x_mat[:10, :10], qa))
    t10 = expm(1j * np.kron(basis.x_mat[:m_levels, :m_levels], qa))
    pr01 = r01[: space.sub_dim]
    p = np.eye(space.dim)[: space.sub_dim]
    maps = [(frame, partial(ctx.represent, frame=frame), s)
            for frame, s in ((EXACT_COULOMB, np.eye(space.dim)),
                             (DIPOLE_TRUNCATED, pr01), (COULOMB_TRUNCATED, p))]
    maps += [("exact_gauge(1)", lambda name: exact_gauge_rep(ctx, name, 1.0), r01),
             ("rotated_correct", lambda name: rotated_correct_rep(ctx, name),
              t10 @ pr01)]
    for name in OBSERVABLE_NAMES:
        o0 = ctx.represent(name, EXACT_COULOMB)
        for tag, rep, s in maps:
            dev = np.abs(rep(name) - s @ o0 @ s.conj().T).max()
            assert dev <= 1e-12 * np.abs(o0).max(), (name, tag, dev)


def test_frame_context_names_what_it_lacks(wb25):
    basis = wb25.basis_for(30)
    with pytest.raises(SpaceMismatch, match="31 matter levels"):
        FrameContext(basis, CompositeSpace.create(31, 8, wb25.omega, 2, 0.5, basis.x10))
    ctx = wb25.context(0.5, (30, 8))
    # a frame is one of the FRAME_TAGS labels; any other string is refused
    # before anything is formed or cached
    for frame in ("exact_dipole", "Exact_Coulomb", ""):
        with pytest.raises(MissingContext, match=repr(frame)):
            ctx.represent("n_et", frame)
    assert ctx._cache == {}
    with pytest.raises(MissingContext, match="'sigma_x'"):
        ctx.represent("sigma_x", EXACT_COULOMB)
    with pytest.raises(MissingContext):
        ctx.represent("sigma_x", DIPOLE_TRUNCATED)


def test_field_quadrature_rep_coincides_with_coulomb_block(basis, make_space):
    # the correctly rotated representation of the field quadrature equals the
    # plain Coulomb-gauge block because the observable is linear in the field
    # momentum; compare on low-photon blocks at escalating cutoffs
    devs = {}
    for n_ph in (40, 60):
        space = make_space(1.0, n_ph=n_ph)
        ctx = FrameContext(basis, space)
        correct = rotated_correct_rep(ctx, "q_et")
        naive = ctx.represent("q_et", COULOMB_TRUNCATED)
        sel = [mu * n_ph + n for mu in range(2) for n in range(13)]
        devs[n_ph] = np.abs((correct - naive)[np.ix_(sel, sel)]).max()
    assert devs[60] < 1e-6
    assert devs[60] < devs[40]


def test_rotated_correct_reproduces_dipole_truncated_averages(eta1):
    ctx = eta1["ctx"]
    correct = rotated_correct_rep(ctx, "n_et")
    dipole = eta1["qrm"].expectations(ctx.represent("n_et", DIPOLE_TRUNCATED))
    for i in range(3):
        a = dipole[i]
        b = expectation(correct, eta1["h10"].state(i))
        assert abs(a - b) < 1e-8


def test_as_coulomb_discrepancy_equals_delta_average(eta1, basis):
    ctx, space = eta1["ctx"], eta1["space"]
    delta = delta_operator(basis, space)
    correct = rotated_correct_rep(ctx, "n_et")
    as_coulomb = eta1["h10"].expectations(ctx.represent("n_et", COULOMB_TRUNCATED))
    for i in range(3):
        rot_state = eta1["h10"].state(i)
        wrong = as_coulomb[i]
        right = expectation(correct, rot_state)
        dav = np.vdot(eta1["qrm"].state(i), delta @ eta1["qrm"].state(i)).real
        assert abs((wrong - right) - (-dav)) < 1e-8


def test_energy_average_is_eigenvalue(eta1):
    ctx = eta1["ctx"]
    energy1 = exact_gauge_rep(ctx, "energy", 1.0)
    energy0 = eta1["exact0"].expectations(ctx.represent("energy", EXACT_COULOMB))
    for i in range(4):
        v0 = energy0[i]
        assert abs(v0 - eta1["exact0"].energies[i]) < 1e-8
        v1 = expectation(energy1, eta1["exact1"].state(i))
        assert abs(v1 - eta1["exact1"].energies[i]) < 1e-8
        # gauge invariance of the prediction
        assert abs(v0 - v1) < 1e-7


def test_vacuum_photon_number(basis, make_space):
    space = make_space(0.0)
    ctx = FrameContext(basis, space)
    es = eigensolve(build_model("exact", basis, space, 0.0), k=1)
    [vacuum] = es.expectations(ctx.represent("n_et", EXACT_COULOMB))
    assert abs(vacuum) < 1e-12


def test_average_space_mismatch(eta1):
    with pytest.raises(SpaceMismatch):
        eta1["exact0"].expectations(eta1["ctx"].represent("n_et", DIPOLE_TRUNCATED))


def test_phase_insensitivity(eta1):
    rep = eta1["ctx"].represent("n_et", DIPOLE_TRUNCATED)
    es = eta1["qrm"]
    ref = es.expectations(rep)
    rotated = EigenSystem(es.energies, np.exp(1j * 1.234) * es.states)
    assert np.abs(rotated.expectations(rep) - ref).max() < 1e-12


def test_excited_population_frame_contrast(eta1):
    # the dipole-truncated average tracks the exact value; the as-Coulomb
    # reading of the rotated model does not (thresholds from the oracle run)
    ctx = eta1["ctx"]
    exact, dip, wrong = (eta1[model].expectations(ctx.represent("gamma", frame))[0]
                         for model, frame in (("exact0", EXACT_COULOMB),
                                              ("qrm", DIPOLE_TRUNCATED),
                                              ("h10", COULOMB_TRUNCATED)))
    assert abs(dip - exact) < 0.005
    assert abs(wrong - exact) > 0.04


def test_thermal_zero_temperature_limit(eta1):
    ctx = eta1["ctx"]
    [t0] = thermal_average("n_et", EXACT_COULOMB, ctx, eta1["exact0"], [0.0])
    ground = eta1["exact0"].expectations(ctx.represent("n_et", EXACT_COULOMB))[0]
    assert abs(t0 - ground) < 1e-12


@pytest.mark.parametrize("temp", [0.4, 1.0, 1.6])
def test_thermal_bose_einstein(basis, make_space, temp):
    space = make_space(0.0, n_mat=8)
    ctx = FrameContext(basis, space)
    es = eigensolve(build_model("exact", basis, space, 0.0))
    [val] = thermal_average("n_et", EXACT_COULOMB, ctx, es, [temp])
    expected = 1.0 / np.expm1(space.omega / temp)
    assert abs(val - expected) < 1e-8


def test_transitions_decoupled_ladder(basis, make_space):
    space = make_space(0.0)
    es = eigensolve(build_model("standard", basis, space, 1.0), k=6)
    tr = transition_energies(es, 3, space.omega)
    np.testing.assert_allclose(tr, [1.0, 1.0, 2.0], atol=1e-9)


def test_qrm_transition_envelope(basis, make_space, eta1):
    # normalized transition energies of the two-level dipole model stay within
    # a 0.05*omega envelope of the exact ones, while its absolute eigenvalues
    # drift off at strong coupling
    worst = 0.0
    for eta in (0.25, 0.5, 0.75, 1.0):
        space = make_space(eta)
        es_ex = eigensolve(build_model("exact", basis, space, 0.0), k=4)
        es_qrm = eigensolve(build_model("standard", basis, space, 1.0), k=4)
        dev = np.abs(transition_energies(es_ex, 3, space.omega)
                     - transition_energies(es_qrm, 3, space.omega)).max()
        worst = max(worst, dev)
    assert worst < 0.05
    abs_err = np.abs(eta1["qrm"].energies[:4] - eta1["exact0"].energies[:4]).max()
    assert abs_err > 5 * worst


def test_projected_tracks_absolute_energies_standard_does_not(eta1):
    # frozen from the oracle run: the projected two-level model misses the
    # exact energies by ~5e-3 at eta = 1 while the standard truncation misses
    # by ~8e-2
    err_proj = np.abs(eta1["proj1"].energies[:6] - eta1["exact0"].energies[:6]).max()
    err_std = np.abs(eta1["qrm"].energies[:6] - eta1["exact0"].energies[:6]).max()
    assert err_proj < 0.01
    assert err_std > 5 * err_proj


def test_representations_stay_hermitian(eta1):
    ctx = eta1["ctx"]
    for name in ("n_et", "gamma", "q_et", "p_over_omega"):
        reps = [exact_gauge_rep(ctx, name, 1.0), rotated_correct_rep(ctx, name)]
        reps += [ctx.represent(name, frame)
                 for frame in (DIPOLE_TRUNCATED, COULOMB_TRUNCATED)]
        for rep in reps:
            assert np.abs(rep - rep.conj().T).max() < 1e-10


def test_delta_variation_zero_at_zero_coupling(basis, make_space):
    dvar = delta_variation(basis, make_space(0.0), 3)
    assert np.abs(dvar).max() < 1e-12


def test_delta_variation_small(basis, make_space):
    worst = max(np.abs(delta_variation(basis, make_space(eta), 3)).max()
                for eta in np.linspace(0.0, 1.0, 11))
    assert worst < 0.02


def test_delta_variation_two_routes_agree(basis, make_space):
    space = make_space(0.8)
    closed = delta_variation(basis, space, 3)
    es = eigensolve(build_model("standard", basis, space, 1.0), k=4)
    vals = es.expectations(hamiltonian_difference(basis, space))
    ham = vals[1:] - vals[0]
    assert np.abs(closed - ham).max() < 1e-10


def test_converge_immediate_at_zero_coupling(basis, make_space):
    def compute(n_mat, n_ph):
        space = make_space(0.0, n_ph=n_ph, n_mat=n_mat)
        es = eigensolve(build_model("exact", basis, space, 0.0), k=1)
        return float(es.energies[0])

    report = converge(compute, [(20, 16), (20, 24), (20, 32)], rtol=1e-6)
    assert len(report.values) == 2  # settled on the first comparison
    [prev], [curr] = report.values  # a scalar is a one-cell row
    assert abs(curr - prev) <= 1e-6 * abs(curr)


def test_converge_ground_energy_strong_coupling(basis, make_space):
    values = []

    def compute(n_mat, n_ph):
        space = make_space(1.0, n_ph=n_ph, n_mat=n_mat)
        es = eigensolve(build_model("exact", basis, space, 1.0), k=1)
        values.append(float(es.energies[0]))
        return values[-1]

    report = converge(compute, [(30, 20), (30, 40), (30, 60), (30, 80)], rtol=1e-6)
    [prev], [curr] = report.values[-2:]
    assert abs(curr - prev) <= 1e-6 * abs(curr)
    assert report.cutoffs[-1][1] <= 80
    # enlarging a variational basis can only lower the ground energy
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_converge_ceiling_raises():
    flip = iter([0.0, 1.0, 0.0, 1.0, 0.0])

    def compute(n_mat, n_ph):
        return next(flip)

    with pytest.raises(CutoffCeiling):
        converge(compute, [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5)], rtol=1e-6)

