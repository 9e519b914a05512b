"""gaugelab: numerical laboratory for gauge-truncated single-dipole cavity QED.

Builds the exact one-parameter gauge family of a double-well dipole coupled
to a single mode, the two-level truncated models derived from it, and the
diagnostics (subspace fidelity ceilings, frame-resolved averages, Lindblad
dynamics) that quantify what truncation and in-subspace rotations do to
physical predictions.
"""

__version__ = "0.1.0"

from .analysis import (DIPOLE_TRUNCATED, NAIVE_COULOMB, ROTATED_AS_COULOMB,
                       ROTATED_CORRECT, EigenSystem, FrameContext,
                       FramePrescription, Observable, average, converge,
                       cs_bound, delta_variation, eigensolve, exact_gauge,
                       fidelity, represent, thermal_average,
                       transition_energies)
from .config import ExperimentConfig
from .errors import GaugelabError
from .experiments import EXPERIMENTS, Workbench, run_experiment
from .fockspace import (CompositeOperator, CompositeSpace, ModeSpec, embed,
                        fock_operators, lift, projector, restrict)
from .gauge import (ModelSpec, build_h_alpha, build_model,
                    conjugate_by_gauge_unitary, delta_operator, gauge_unitary,
                    truncated_unitary)
from .lindblad import (LindbladSystem, decay_rate, decay_rate_fit, evolve,
                       from_eigensystem, jump_operators, liouvillian, rates,
                       stationary_state)
from .matter1d import (MatterBasis, MatterSpec, auto_spec, calibrate_potential,
                       solve_double_well)
