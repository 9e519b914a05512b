"""The package's public surface holds what the command line runs.

The master equation is a test reference (tests/reference.py), so importing
gaugelab does not load the ODE integrator and the package does not export
it.  Names that have left the package stay out of its namespace: the dense
rotations are `gauge.rotation`, which replaced the factored conjugation, and
the two frames no figure reads (the exact alpha-gauge frame and the rotated
model's own frame) are test references too.  Every model kind, the exact one
included, is `build_model`, and a P-block is a slice, so `build_h_alpha` and
`restrict` are gone.  Every expectation value is `EigenSystem.expectations`,
so `average` is gone, and a mode is its (n_ph, omega) pair, so `ModeSpec` is
gone.  fig4 reads one closed form, `experiments.first_excited_rate`, so the
`lindblad` module is gone: its `LindbladSystem`, `from_eigensystem` and
`decay_rate` are test references next to the master equation, and
`first_excited_population` is exp(-Gamma_1 t) at its one caller.  A frame
is a plain label, so `FramePrescription` is gone, and every shape check
raises `SpaceMismatch`, so `DimensionMismatch` is gone.
"""

import importlib
import os
import subprocess
import sys

import pytest

import gaugelab

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_import_does_not_load_the_ode_integrator():
    code = "import sys, gaugelab; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("name", ["evolve", "liouvillian", "stationary_state",
                                  "jump_operators", "gauge_unitary",
                                  "truncated_unitary",
                                  "conjugate_by_gauge_unitary",
                                  "exact_gauge", "ROTATED_CORRECT",
                                  "build_h_alpha", "restrict", "average",
                                  "ModeSpec", "LindbladSystem", "from_eigensystem",
                                  "decay_rate", "first_excited_population",
                                  "FramePrescription"])
def test_reference_names_are_not_exported(name):
    assert not hasattr(gaugelab, name)


def test_removed_module_and_error_stay_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("gaugelab.lindblad")
    assert not hasattr(gaugelab.errors, "DimensionMismatch")
