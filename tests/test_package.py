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
gone.
"""

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
                                  "ModeSpec"])
def test_reference_names_are_not_exported(name):
    assert not hasattr(gaugelab, name)
