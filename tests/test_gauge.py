import numpy as np
import pytest
from scipy.linalg import expm

from gaugelab.errors import ClosedFormNeedsTwoLevels, SpaceMismatch, UnsupportedKind
from gaugelab.fockspace import CompositeSpace, fock_operators, lift
from gaugelab.gauge import build_model, delta_operator, hamiltonian_blocks, rotation
from reference import hamiltonian_difference, rotation_difference


def free_spectrum(basis, n_ph, omega, count):
    levels = np.add.outer(basis.energies, omega * (np.arange(n_ph) + 0.5)).ravel()
    return np.sort(levels)[:count]


def block_indices(n_keep_mat, n_keep_ph, n_ph):
    return [mu * n_ph + n for mu in range(n_keep_mat) for n in range(n_keep_ph)]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_decoupled_limit(basis, make_space, alpha):
    space = make_space(0.0)
    h = build_model("exact", basis, space, alpha)
    vals = np.linalg.eigvalsh(h)[:40]
    np.testing.assert_allclose(vals, free_spectrum(basis, space.n_ph, space.omega, 40),
                               atol=1e-10)


def test_gauge_invariance_of_exact_spectra(basis, make_space):
    # lowest six eigenvalues agree between the Coulomb and dipole forms once
    # cutoffs are converged; re-diagonalizing at enlarged cutoffs is the oracle
    from gaugelab.analysis import eigensolve
    from gaugelab.matter1d import auto_spec, solve_double_well

    vals = {}
    spec = basis.spec
    big_spec = auto_spec(spec.theta, spec.phi, n_mat=40, n_grid=spec.n_grid)
    big_basis = solve_double_well(big_spec)
    for tag, (b, n_mat, n_ph) in {
            "base": (basis, 30, 40), "big": (big_basis, 40, 60)}.items():
        space = make_space(0.5, n_ph=n_ph, n_mat=n_mat)
        e0 = eigensolve(build_model("exact", b, space, 0.0), k=6).energies
        e1 = eigensolve(build_model("exact", b, space, 1.0), k=6).energies
        vals[tag] = (e0, e1)
    for tag in vals:
        e0, e1 = vals[tag]
        assert np.abs((e0 - e1) / e0).max() < 1e-6
    # an intermediate gauge sits on the same spectrum
    e_half = eigensolve(build_model("exact", basis, make_space(0.5), 0.5), k=6).energies
    assert np.abs((e_half - vals["base"][0]) / e_half).max() < 1e-6
    # cutoff escalation leaves the converged values in place
    assert np.abs((vals["base"][0] - vals["big"][0]) / vals["big"][0]).max() < 1e-6


def test_dipole_gauge_term_by_term(basis, make_space):
    space = make_space(0.7)
    h = build_model("exact", basis, space, 1.0)
    ops = fock_operators(space.n_ph, space.omega)
    q = space.charge
    nm, nph = space.n_mat, space.n_ph
    explicit = (np.kron(np.diag(basis.energies), np.eye(nph)).astype(complex)
                + np.kron(np.eye(nm), ops.h_ph)
                + q * np.kron(basis.x_mat, ops.momentum)
                + (q**2 / 2) * np.kron(basis.x2_mat, np.eye(nph)))
    assert np.abs(h - explicit).max() < 1e-10


def test_rotation_identity_and_inverse(basis, make_space):
    space = make_space(0.4, n_ph=24, n_mat=10)
    eye = np.eye(space.dim)
    r_same = rotation(0.7, 0.7, basis, space)
    assert np.abs(r_same - eye).max() < 1e-12
    r01 = rotation(0.0, 1.0, basis, space)
    r10 = rotation(1.0, 0.0, basis, space)
    assert np.abs(r01 @ r10 - eye).max() < 1e-10
    assert np.abs(r01 @ r01.conj().T - eye).max() < 1e-9


@pytest.mark.parametrize("eta", [0.5, 1.0])
def test_rotations_match_their_definition(wb25, eta):
    # R = exp[i q (alpha - alpha') x (x) A] against expm on small cutoffs, T the
    # same on the P-block; both real orthogonal.  Measured worst deviations
    # 2.2e-15 (expm), 2.7e-15 (orthogonality).
    basis = wb25.basis_for(30)
    space = CompositeSpace.create(10, 24, wb25.omega, 2, eta, basis.x10)
    amp = fock_operators(space.n_ph, space.omega).amplitude
    r = rotation(0.0, 1.0, basis, space)
    t = rotation(0.0, 1.0, basis, space, truncated=True)
    for got, m in ((r, 10), (t, 2)):
        want = expm(-1j * space.charge * np.kron(basis.x_mat[:m, :m], amp))
        assert got.dtype == np.float64
        assert np.abs(got - want).max() < 1e-12
        assert np.abs(got @ got.T - np.eye(len(got))).max() < 1e-12


def test_cross_construction_maps_gauges(basis, make_space):
    # conjugating the Coulomb Hamiltonian into the dipole gauge must reproduce
    # the independently assembled dipole Hamiltonian on cutoff-stable blocks,
    # with the deviation shrinking as the matter cutoff grows
    devs = {}
    for n_mat in (20, 30):
        space = make_space(0.5, n_mat=n_mat)
        h0 = build_model("exact", basis, space, 0.0)
        h1 = build_model("exact", basis, space, 1.0)
        r = rotation(0.0, 1.0, basis, space)
        rotated = r @ h0 @ r.T
        sel = block_indices(8, 10, space.n_ph)
        devs[n_mat] = np.abs((rotated - h1)[np.ix_(sel, sel)]).max()
    assert devs[30] < 1e-7
    assert devs[30] < devs[20] / 100


def test_truncated_rotation_contracts(basis, make_space):
    space = make_space(0.5)
    eye = np.eye(space.sub_dim)
    t_same = rotation(0.3, 0.3, basis, space, truncated=True)
    assert np.abs(t_same - eye).max() < 1e-12
    t10 = rotation(1.0, 0.0, basis, space, truncated=True)
    assert np.abs(t10 @ t10.conj().T - eye).max() < 1e-12
    # the truncated rotation is NOT the projected full rotation
    d = space.sub_dim
    r10_block = rotation(1.0, 0.0, basis, space)[:d, :d]
    assert np.abs(t10 - r10_block).max() > 0.01


def test_standard_dipole_is_quantum_rabi(basis, make_space):
    space = make_space(0.3)
    model = build_model("standard", basis, space, 1.0)
    ops = fock_operators(space.n_ph, space.omega)
    nph = space.n_ph
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eta, omega = space.eta, space.omega
    qrm = (np.kron(np.diag(basis.energies[:2]), np.eye(nph)).astype(complex)
           + np.kron(np.eye(2), ops.h_ph)
           + eta * omega * np.kron(sigma_x, 1j * (ops.a_dag - ops.a))
           + eta**2 * omega * np.eye(2 * nph))
    assert np.abs(model - qrm).max() < 1e-12


def test_standard_equals_projected_only_in_coulomb(basis, make_space):
    space = make_space(0.6)
    std0 = build_model("standard", basis, space, 0.0)
    proj0 = build_model("projected", basis, space, 0.0)
    assert np.abs(std0 - proj0).max() < 1e-12
    std1 = build_model("standard", basis, space, 1.0)
    proj1 = build_model("projected", basis, space, 1.0)
    assert np.abs(std1 - proj1).max() > 1e-3


def test_projected_matches_sliced_full_build(basis, make_space):
    space = make_space(0.6)
    proj = build_model("projected", basis, space, 1.0)
    full = build_model("exact", basis, space, 1.0)
    d = space.sub_dim
    np.testing.assert_allclose(proj, full[:d, :d], atol=1e-14)


def test_rotated_class_shares_spectrum(basis, make_space):
    space = make_space(0.5)
    std = build_model("standard", basis, space, 1.0)
    base = np.linalg.eigvalsh(std)
    for target in (0.0, 0.5, -0.3):
        rot = build_model("rotated", basis, space, 1.0, alpha_target=target)
        vals = np.linalg.eigvalsh(rot)
        assert np.abs(vals - base).max() < 1e-10


def test_all_models_hermitian(basis, make_space):
    space = make_space(0.8)
    mats = [build_model("exact", basis, space, 0.5),
            build_model("standard", basis, space, 1.0),
            build_model("projected", basis, space, 1.0),
            build_model("rotated", basis, space, 1.0, alpha_target=0.0)]
    for m in mats:
        assert np.abs(m - m.conj().T).max() < 1e-10


def test_three_level_truncation_models(basis, make_space):
    # the truncation machinery is generic in the retained level count
    space = make_space(0.5, m_levels=3)
    std = build_model("standard", basis, space, 1.0)
    proj = build_model("projected", basis, space, 1.0)
    rot = build_model("rotated", basis, space, 1.0, alpha_target=0.0)
    assert std.shape == proj.shape == rot.shape == (3 * space.n_ph,) * 2
    for model in (std, proj, rot):
        assert np.abs(model - model.conj().T).max() < 1e-10
    np.testing.assert_allclose(np.linalg.eigvalsh(rot),
                               np.linalg.eigvalsh(std), atol=1e-10)
    # the wider projector tightens the ground state toward the exact one
    from gaugelab.analysis import cs_bound, eigensolve
    es = eigensolve(build_model("exact", basis, make_space(1.0), 1.0), k=1)
    b2 = cs_bound(es.state(0), make_space(1.0))
    b3 = cs_bound(es.state(0), make_space(1.0, m_levels=3))
    assert b3 >= b2


@pytest.mark.parametrize("kind", ["exact", "standard", "projected", "rotated"])
def test_blocks_are_real_by_construction(wb25, kind):
    # p (x) A is the product of the real factors D and Im A, so every block is
    # float64 and the Coulomb coupling block is -D (x) Im A bit for bit
    basis = wb25.basis_for(30)
    space = wb25.space(0.5, (30, 16))
    blocks = hamiltonian_blocks(kind, 0.0, basis, space)
    assert [b.dtype for b in blocks] == [np.float64] * 3
    m = space.n_mat if kind == "exact" else space.m_levels
    amplitude = fock_operators(space.n_ph, space.omega).amplitude
    assert np.array_equal(blocks[1], -np.kron(basis.d_mat[:m, :m], amplitude.imag))


def test_unsupported_kind(basis, make_space):
    space = make_space(0.5)
    with pytest.raises(UnsupportedKind):
        build_model("bogus", basis, space, 1.0)
    with pytest.raises(UnsupportedKind):
        build_model("rotated", basis, space, 1.0)  # missing alpha_target


def test_shape_checks_raise_space_mismatch(wb25):
    # a space wider than the solved basis, and a P-block vector of the wrong
    # length, are the one kind of mismatch
    basis = wb25.basis_for(30)
    wide = CompositeSpace.create(31, 8, wb25.omega, 2, 0.5, basis.x10)
    with pytest.raises(SpaceMismatch, match="31 matter levels"):
        hamiltonian_blocks("exact", 0.0, basis, wide)
    with pytest.raises(SpaceMismatch, match="31 matter levels"):
        rotation(0.0, 1.0, basis, wide)
    with pytest.raises(SpaceMismatch):
        lift(np.zeros(wide.sub_dim + 1), wide)
    with pytest.raises(SpaceMismatch):
        lift(np.zeros(wide.dim), wide)


def test_delta_needs_two_levels(basis, make_space):
    space = make_space(0.5, m_levels=3)
    with pytest.raises(ClosedFormNeedsTwoLevels):
        delta_operator(basis, space)


def test_delta_vanishes_without_coupling(basis, make_space):
    space = make_space(0.0)
    for form in (delta_operator, hamiltonian_difference, rotation_difference):
        mat = form(basis, space)
        assert np.abs(mat).max() < 1e-12


def test_delta_closed_vs_hamiltonian_difference(basis, make_space):
    space = make_space(0.5)
    closed = delta_operator(basis, space)
    ham = hamiltonian_difference(basis, space)
    assert np.abs(closed - ham).max() < 1e-10


def test_delta_closed_vs_rotation_difference(basis, make_space):
    # the rotation route runs through the full-space unitary, so compare on
    # low-photon blocks and demand stability under cutoff escalation
    devs = {}
    for n_ph in (40, 60):
        space = make_space(0.5, n_ph=n_ph)
        closed = delta_operator(basis, space)
        rot = rotation_difference(basis, space)
        sel = block_indices(2, 13, n_ph)
        devs[n_ph] = np.abs((closed - rot)[np.ix_(sel, sel)]).max()
    assert devs[40] < 1e-6
    assert devs[60] < 1e-6


def test_delta_diagonal_structure(basis, make_space):
    # parity makes the two-level x^2 block diagonal, so the closed form is
    # diagonal (x) identity
    space = make_space(0.9)
    mat = delta_operator(basis, space)
    off = mat - np.diag(np.diag(mat))
    assert np.abs(off).max() < 1e-14
    assert mat[0, 0] > 0 and mat[space.n_ph, space.n_ph] > 0
