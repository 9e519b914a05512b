import numpy as np
import pytest

from gaugelab.config import ExperimentConfig
from gaugelab.experiments import Workbench, run_experiment
from gaugelab.fockspace import CompositeSpace
from gaugelab.matter1d import calibrate_potential, solve_double_well


@pytest.fixture(scope="session")
def calibrated_spec():
    return calibrate_potential(70.0)


@pytest.fixture(scope="session")
def basis(calibrated_spec):
    return solve_double_well(calibrated_spec)


@pytest.fixture(scope="session")
def make_space(basis):
    def factory(eta, n_ph=40, n_mat=None, m_levels=2):
        nm = basis.n_mat if n_mat is None else n_mat
        return CompositeSpace.create(nm, n_ph, basis.omega0, m_levels, eta, basis.x10)
    return factory


@pytest.fixture(scope="session")
def wb25():
    """Workbench on the target_mu 25 well: the calibrated mu = 70 well fails the
    finite-difference grid check on some BLAS stacks, and the tests that use
    this one do not depend on the barrier height."""
    return Workbench(ExperimentConfig.from_dict({"target_mu": 25.0}))


@pytest.fixture(scope="session")
def golden_outputs(tmp_path_factory):
    """outputs(name): the paths experiment `name` writes on the golden config.

    Each experiment runs once per session, into one directory that the golden
    comparison and the claims on the emitted CSVs both read."""
    from test_golden import GOLDEN_CONFIG

    config = ExperimentConfig.from_dict(
        {**GOLDEN_CONFIG, "outdir": str(tmp_path_factory.mktemp("golden_outputs"))})
    paths = {}

    def outputs(name):
        if name not in paths:
            paths[name] = run_experiment(name, config)
        return paths[name]
    return outputs


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2
