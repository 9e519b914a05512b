"""gaugelab: numerical laboratory for gauge-truncated single-dipole cavity QED.

Builds the exact one-parameter gauge family of a double-well dipole coupled
to a single mode, the two-level truncated models derived from it, and the
diagnostics (subspace fidelity ceilings, frame-resolved averages, the
first excited eigenstate's Lindblad decay rate) that quantify what truncation and in-subspace rotations do to
physical predictions.
"""

__version__ = "0.1.0"

from .analysis import (DIPOLE_TRUNCATED, EXACT_COULOMB, NAIVE_COULOMB,
                       ROTATED_AS_COULOMB, EigenSystem, FrameContext, converge,
                       cs_bound, delta_variation, eigensolve, fidelity,
                       thermal_average, transition_energies)
from .config import ExperimentConfig
from .errors import GaugelabError
from .experiments import EXPERIMENTS, Workbench, run_experiment
from .fockspace import CompositeSpace, fock_operators, lift
from .gauge import build_model, delta_operator
from .matter1d import (MatterBasis, MatterSpec, auto_spec, calibrate_potential,
                       solve_double_well)
