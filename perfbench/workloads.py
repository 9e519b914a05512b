"""The benchmark's workloads: which experiments run, and the config each gets.

The seed chooses only the op order and the coupling sample points inside the
paper's eta in [0, 1] (and eta_fig4).  It never chooses target_mu, the matter
grid, the cutoffs or a tolerance: those decide whether the matter-grid check
passes, so every workload runs the paper's defaults for them.

eta_max stays at the paper's top value 1.0 because each experiment's
convergence ladder is evaluated at eta_max; fixing it keeps the ladder, a
fixed cost per run, the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple

    def config(self, seed: int) -> dict:
        """Config keys the benchmark sets for this workload and seed."""
        rng = random.Random(f"{self.name}/{seed}")
        if self.name == "open":
            # The rate grid starts at 0.3 or above: the fit horizon is 3/rate,
            # so a low first point would make the op cost depend on the seed.
            return {"eta_fig4": round(rng.uniform(0.4, 0.6), 6),
                    "rate_eta_min": round(rng.uniform(0.3, 0.9), 6),
                    "eta_max": 1.0, "rate_eta_points": 2, "time_points": 41,
                    "workers": 1}
        return {"eta_min": round(rng.uniform(0.0, 0.9), 6), "eta_max": 1.0,
                "eta_points": 2, "workers": 1}

    def pass_order(self, seed: int):
        """Endless sequence of passes; each pass runs every experiment once."""
        rng = random.Random(f"{self.name}/{seed}/order")
        while True:
            order = list(self.experiments)
            rng.shuffle(order)
            yield order


# ground: exact eigensolves with k <= 6 plus the convergence ladder, Lindblad
#   idle; a sparse/Lanczos or parity-block change shows here, a Lindblad
#   change should not.
# thermal: k = 64..128 eigensolves, full-space frame conjugations and Gibbs
#   sums; the same eigensolve layer used at large k.
# open: Lindblad generator build, DOP853 propagation and rate fits on k = 40
#   solves; the only workload where the Lindblad layer can show.
WORKLOADS = {w.name: w for w in (
    Workload("ground", ("fig1b", "fig3", "figS1", "figS2", "figS3", "figS4", "figS5")),
    Workload("thermal", ("fig2",)),
    Workload("open", ("fig4a", "fig4b")),
)}

# Rows of each CSV panel, by the config key that sets them.  The first panel
# listed is the one whose rows count as coupling-sweep points.
PANELS = {
    "fig1b": {"bounds": "eta_points"},
    "fig2": {"thermal": "eta_points"},
    "fig3": {"transitions": "eta_points"},
    "figS1": {"fidelities": "eta_points"},
    "figS2": {"fidelities": "eta_points"},
    "figS3": {"variation": "eta_points"},
    "figS4": {"population": "eta_points"},
    "figS5": {"energies": "eta_points", "transitions": "eta_points"},
    "fig4a": {"rates": "rate_eta_points", "trajectory": "time_points"},
    "fig4b": {"rates": "rate_eta_points", "trajectory": "time_points"},
}
