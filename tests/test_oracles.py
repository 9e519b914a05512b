"""Small-coupling oracles: second-order perturbation theory in the charge q.

With the exact model's blocks H = H_free + q*K1 + q^2*K2
(`gauge.hamiltonian_blocks("exact", ...)`, the exact row of the block table
every model kind is assembled from) and the bare ground state |00> of the
diagonal H_free, perturbation theory gives

    fidelity-ceiling deficit  1 - ||P Psi_0||^2 = q^2 D + O(q^4),
        D = sum_{mu >= m_levels, n} |<mu n|K1|00>|^2 / (E_mu,n - E_00)^2;
    ground-energy shift       E_0 - E_00 = q^2 E2 + O(q^4),
        E2 = <00|K2|00> - sum_k |<k|K1|00>|^2 / (E_k - E_00).

Odd orders vanish by parity, so each exact/PT ratio approaches 1 as eta^2:
the tests assert that |ratio - 1| / eta^2 is the same at every eta, not a
single tolerance.  Everything runs on the target_mu 25 well at cutoffs
(30, 40), where the exact and the PT sides share one truncated space.
"""

import numpy as np
import pytest

from gaugelab import analysis, experiments, gauge

CUTOFFS = (30, 40)
ETAS = (0.005, 0.01, 0.02, 0.05)
# max/min of |ratio - 1| / eta^2 over ETAS; measured at most 1.0012 (deficit)
# and 1.0009 (energy, where the eta = 0.005 point carries ~1e-3 of eigenvalue
# roundoff), while an O(eta) or O(eta^4) approach would spread it by 10 to 100
ETA2_SPREAD = 1.05


def _pt(wb, alpha):
    """(D, E2) from the blocks, and the bare ground energy E_00."""
    space = wb.space(0.0, CUTOFFS)
    h_free, k1, k2 = gauge.hamiltonian_blocks("exact", alpha, wb.basis_for(CUTOFFS[0]), space)
    energies = np.diag(h_free)
    assert np.array_equal(h_free, np.diag(energies))
    gaps = energies[1:] - energies[0]
    col = k1[1:, 0]
    q_block = slice(space.sub_dim - 1, None)  # states with mu >= m_levels
    deficit = float(np.sum(col[q_block] ** 2 / gaps[q_block] ** 2))
    return deficit, float(k2[0, 0] - np.sum(col**2 / gaps)), energies[0]


@pytest.fixture(scope="module")
def ground(wb25):
    """Per gauge: PT values and, per eta, (q, deficit ||Q Psi_0||^2, E_0)."""
    out = {}
    for alpha, label in ((0.0, "exact"), (1.0, "exact_dipole")):
        exact = {}
        for eta in ETAS:
            es = wb25.eigensystem(label, eta, CUTOFFS, k=1)
            space = wb25.space(eta, CUTOFFS)
            tail = es.state(0)[space.sub_dim:]
            exact[eta] = (space.charge, float(tail @ tail), float(es.energies[0]))
        out[alpha] = (_pt(wb25, alpha), exact)
    return out


def _spread(values):
    return max(values) / min(values)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_ceiling_deficit_matches_second_order(ground, alpha):
    (pt_deficit, _, _), exact = ground[alpha]
    scaled = [abs(d / (q * q * pt_deficit) - 1) / eta**2
              for eta, (q, d, _) in exact.items()]
    # measured |ratio - 1| / eta^2: 0.4248-0.4251 (Coulomb), 6.341-6.348 (dipole)
    assert max(scaled) < 10.0
    assert _spread(scaled) < ETA2_SPREAD


def test_ceiling_deficit_gauge_asymmetry(ground):
    # fig1b's ceiling is far tighter in the dipole gauge at weak coupling:
    # the PT deficits differ by a factor 1592 on this well
    assert ground[0.0][0][0] > 100 * ground[1.0][0][0]


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_fig1b_row_reads_the_same_deficit(wb25, ground, alpha):
    # the fig1b ceiling is 1 - ||Q Psi_0||^2; measured agreement 1.8e-16
    eta = 0.01
    row, _ = experiments._point_fig1b(wb25, eta, CUTOFFS)
    assert abs((1 - row[1 + int(alpha)]) - ground[alpha][1][eta][1]) < 1e-12


def test_ground_energy_shift_matches_second_order_in_both_gauges(ground):
    e2 = {alpha: ground[alpha][0][1] for alpha in ground}
    # E2/q^2 = 0.0408688115808 in both gauges; measured relative gap 1.1e-15
    assert abs(e2[0.0] - e2[1.0]) < 1e-9 * abs(e2[0.0])
    for alpha, ((_, pt_e2, e00), exact) in ground.items():
        scaled = [abs((e0 - e00) / (q * q * pt_e2) - 1) / eta**2
                  for eta, (q, _, e0) in exact.items()]
        # measured |ratio - 1| / eta^2: 0.1917-0.1919 in both gauges
        assert max(scaled) < 1.0
        assert _spread(scaled) < ETA2_SPREAD
