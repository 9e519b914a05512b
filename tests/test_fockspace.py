import numpy as np
import pytest

from gaugelab.fockspace import CompositeSpace, fock_operators, lift


@pytest.fixture(scope="module")
def ops():
    return fock_operators(16, 1.3)


def test_ladder_commutator(ops):
    n = 16
    comm = ops.a @ ops.a_dag - ops.a_dag @ ops.a
    expected = np.eye(n)
    expected[-1, -1] = -(n - 1)  # finite-cutoff corner
    np.testing.assert_allclose(comm, expected, atol=1e-13)


def test_quadrature_commutator(ops):
    n = 16
    comm = ops.amplitude @ ops.momentum - ops.momentum @ ops.amplitude
    expected = 1j * np.eye(n).astype(complex)
    expected[-1, -1] = -1j * (n - 1)
    np.testing.assert_allclose(comm, expected, atol=1e-13)


def test_free_photon_spectrum(ops):
    vals = np.linalg.eigvalsh(ops.h_ph)
    np.testing.assert_allclose(vals, 1.3 * (np.arange(16) + 0.5), atol=1e-12)


def test_adag_is_transpose(ops):
    # the i^n photon basis: a = -i diag(sqrt(n), 1) exactly and a^dag is its
    # conjugate transpose, so A is imaginary and Pi real
    assert np.array_equal(ops.a_dag, ops.a.conj().T)
    a = fock_operators(160, 1.0).a
    n = np.arange(1, 160)
    assert np.array_equal(a[n - 1, n], -1j * np.sqrt(n))
    assert np.count_nonzero(a) == len(n)
    assert not ops.amplitude.real.any()
    assert np.isrealobj(ops.momentum)


def test_mode_invariants():
    with pytest.raises(ValueError):
        fock_operators(16, -1.0)
    with pytest.raises(ValueError):
        fock_operators(4, 1.0)


@pytest.fixture(scope="module")
def small_space():
    return CompositeSpace.create(n_mat=4, n_ph=10, omega=1.0, m_levels=2, eta=0.5,
                                 x10=0.3)


def test_charge_coupling_relation(small_space):
    sp = small_space
    assert abs(sp.charge - sp.eta * np.sqrt(2 * sp.omega) / sp.x10) == 0.0
    assert sp.dim == 40 and sp.sub_dim == 20


def test_lift_pads_with_zeros(rng, small_space):
    vec = rng.normal(size=small_space.sub_dim) + 0j
    lifted = lift(vec, small_space)
    assert lifted.dtype == vec.dtype
    assert np.array_equal(lifted[: small_space.sub_dim], vec)
    assert np.abs(lifted[small_space.sub_dim:]).max() == 0.0
