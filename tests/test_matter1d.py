import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import brentq

from gaugelab import matter1d
from gaugelab.errors import BoundaryLeak, CalibrationFailed, NotConverged
from gaugelab.matter1d import (MatterSpec, auto_spec, calibrate_potential,
                               solve_double_well, _eigpairs_lowest,
                               _eigvals_lowest, _shape_anharmonicity)
from test_golden import SPEC_RTOL


def test_harmonic_limit():
    # theta = -m*w^2 with w = 1 and a vanishing quartic term
    spec = MatterSpec(theta=-1.0, phi=1e-12, half_width=14.0, n_grid=2048, n_mat=8)
    basis = solve_double_well(spec)
    expected = np.arange(8) + 0.5
    np.testing.assert_allclose(basis.energies, expected, atol=1e-7)
    assert abs(basis.x10 - 1 / np.sqrt(2)) < 1e-8


def test_harmonic_limit_scaled_mass_frequency():
    # unit mass: theta = -w^2 gives the ladder (k + 1/2) w with x10 = 1/sqrt(2 w)
    for w in (1.0, 1.5, 3.0):
        spec = MatterSpec(theta=-w**2, phi=1e-12, half_width=10.0, n_grid=2048, n_mat=6)
        basis = solve_double_well(spec)
        np.testing.assert_allclose(basis.energies, (np.arange(6) + 0.5) * w, atol=1e-7)
        assert abs(basis.x10 - 1 / np.sqrt(2 * w)) < 1e-8
        # d/dx raises by sqrt(w (k+1) / 2), the ladder's momentum element
        k = np.arange(5)
        np.testing.assert_allclose(np.diag(basis.d_mat, 1), np.sqrt(w * (k + 1) / 2),
                                   rtol=0, atol=1e-9)


@pytest.fixture(scope="module")
def basis25(wb25):
    """The mu = 25 basis, which passes the grid check on every BLAS stack."""
    return wb25.basis_for(30)


def assert_parity_selection_rules(basis):
    n = basis.n_mat
    even = np.arange(n) % 2 == 0
    same_parity = np.equal.outer(even, even)
    assert np.abs(basis.x_mat[same_parity]).max() < 1e-12
    assert np.abs(basis.x2_mat[~same_parity]).max() < 1e-12
    assert np.abs(basis.d_mat[same_parity]).max() < 1e-12


def assert_hermiticity(basis):
    assert np.abs(basis.x_mat - basis.x_mat.T).max() < 1e-12
    assert np.abs(basis.x2_mat - basis.x2_mat.T).max() < 1e-12
    # d/dx is stored real and exactly antisymmetric, so p = -i*D is Hermitian
    assert basis.d_mat.dtype == np.float64
    assert np.array_equal(basis.d_mat, -basis.d_mat.T)


def assert_canonical_commutator_lower_half(basis):
    # [x, p] = i with p = -i*D is [x, D] = -1
    comm = basis.x_mat @ basis.d_mat - basis.d_mat @ basis.x_mat
    half = basis.n_mat // 2
    np.testing.assert_allclose(comm.diagonal()[:half], -1.0, rtol=0.05)


def assert_json_momentum_pairs(basis):
    p_mat = -1j * basis.d_mat
    pairs = np.array(basis.to_json_dict()["P"])
    assert np.array_equal(pairs[..., 0], p_mat.real)
    assert np.array_equal(pairs[..., 1], p_mat.imag)


def test_parity_selection_rules(basis):
    assert_parity_selection_rules(basis)


def test_parity_selection_rules_mu25(basis25):
    assert_parity_selection_rules(basis25)


def test_hermiticity(basis):
    assert_hermiticity(basis)


def test_hermiticity_mu25(basis25):
    assert_hermiticity(basis25)


def test_phase_convention(basis):
    ladder = np.diag(basis.x_mat, 1)
    assert (ladder >= 0).all()
    assert basis.x10 > 0


def test_energies_strictly_increasing(basis):
    assert (np.diff(basis.energies) > 0).all()


def test_canonical_commutator_lower_half(basis):
    assert_canonical_commutator_lower_half(basis)


def test_canonical_commutator_lower_half_mu25(basis25):
    assert_canonical_commutator_lower_half(basis25)


def assert_oscillator_strength_sum(basis):
    # sum_nu (eps_nu - eps_0) |X_0nu|^2 = 1/(2m) once enough levels are kept
    total = ((basis.energies - basis.energies[0]) * basis.x_mat[0, :] ** 2).sum()
    assert abs(total - 0.5) < 0.005


def test_oscillator_strength_sum(basis):
    assert_oscillator_strength_sum(basis)


def test_oscillator_strength_sum_mu25(basis25):
    assert_oscillator_strength_sum(basis25)


def test_boundary_leak_raises():
    spec = MatterSpec(theta=-1.0, phi=1e-12, half_width=4.0, n_grid=1024, n_mat=8)
    with pytest.raises(BoundaryLeak):
        solve_double_well(spec)


def test_not_converged_raises():
    spec = MatterSpec(theta=-1.0, phi=1e-12, half_width=14.0, n_grid=64, n_mat=8)
    with pytest.raises(NotConverged):
        solve_double_well(spec)


def test_spec_invariants():
    with pytest.raises(ValueError):
        MatterSpec(1.0, -0.1, 1.0).validate()
    with pytest.raises(ValueError):
        MatterSpec(1.0, 0.1, -1.0).validate()
    with pytest.raises(ValueError):
        MatterSpec(1.0, 0.1, 1.0, n_mat=1).validate()
    with pytest.raises(ValueError):
        MatterSpec(1.0, 0.1, 1.0, n_grid=32, n_mat=30).validate()


def test_calibration_rejects_nonpositive_target():
    with pytest.raises(ValueError):
        calibrate_potential(0.0)
    with pytest.raises(ValueError):
        calibrate_potential(-3.0)


def test_calibrated_anharmonicity(basis):
    # quantitative anchor: anharmonicity ~ 70 at resonance
    assert abs(basis.anharmonicity - 70.0) / 70.0 < 1e-3
    assert abs(basis.omega0 - 1.0) < 1e-8


@pytest.mark.parametrize("target", [5.0, 25.0])
def test_calibration_other_targets(target):
    spec = calibrate_potential(target, n_mat=8)
    basis = solve_double_well(spec)
    assert abs(basis.anharmonicity - target) / target < 1e-3
    assert abs(basis.omega0 - 1.0) < 1e-8


def _scan_calibration(target_mu, n_mat, n_grid):
    """Reference calibration: exhaustive descending scan of the shape grid, then brentq."""
    lo, hi = None, None
    grid_pts = np.linspace(math.log10(0.02), math.log10(20.0), 25)
    prev_lg, prev_val = None, None
    for lg in grid_pts[::-1]:
        val = _shape_anharmonicity(10.0**lg, n_grid) - target_mu
        if prev_val is not None and val * prev_val < 0:
            lo, hi = lg, prev_lg
            break
        prev_lg, prev_val = lg, val
    if lo is None:
        raise CalibrationFailed("no bracket")
    lg_star = brentq(lambda lg: _shape_anharmonicity(10.0**lg, n_grid) - target_mu,
                     lo, hi, xtol=1e-13, maxiter=120)
    phi_shape = 10.0**lg_star
    shape_spec = auto_spec(1.0, phi_shape, n_mat=24, n_grid=n_grid)
    e = _eigpairs_lowest(shape_spec, n_grid, 2)[2]
    scale = 1.0 / abs(e[1] - e[0])
    theta, phi = float(scale**2), float(phi_shape * scale**3)
    margin = 1.5
    while margin <= 5.0:
        spec = auto_spec(theta, phi, n_mat=n_mat, n_grid=n_grid, margin=margin)
        try:
            solve_double_well(spec, check_convergence=False)
            return spec
        except BoundaryLeak:
            margin *= 1.3
    raise CalibrationFailed("box sizing failed")


def _scan_index(shape_mu, target_mu):
    vals = [shape_mu(lg) - target_mu for lg in matter1d._SHAPE_GRID]
    return next((i for i in range(1, len(vals)) if vals[i] * vals[i - 1] < 0), None)


@pytest.mark.parametrize("shape_mu", [
    lambda lg: math.exp(3 * 10.0**-lg),          # ln mu linear in 1/phi
    lambda lg: math.exp(math.sqrt(10.0**-lg)),   # concave in 1/phi
    lambda lg: 0.3 + 10.0**(-2 * lg),            # convex in 1/phi
    lambda lg: 1 - lg / 2,
])
def test_bracket_march_matches_scan_on_monotone_shapes(shape_mu):
    # the walk marches one grid point at a time from wherever the coarse
    # scan lands, and must stop at the exhaustive scan's pair from any start
    ends = shape_mu(matter1d._SHAPE_GRID[0]), shape_mu(matter1d._SHAPE_GRID[-1])
    for target in np.geomspace(ends[0] / 2, ends[1] * 2, 300):
        want = _scan_index(shape_mu, target)
        for start in range(1, len(matter1d._SHAPE_GRID)):
            assert matter1d._bracket_index(shape_mu, target, start) == want, (target, start)


def _recording(f):
    points = []

    def g(x):
        points.append(x)
        return f(x)
    return g, points


@pytest.mark.parametrize("f", [
    lambda x: x**3 + x,
    math.exp,
    math.atan,
    lambda x: x + 0.5 * math.sin(x),
    lambda x: math.log1p(x * x) * math.copysign(1, x) + 1e-3 * x,
])
def test_brentq_port_matches_scipy(f):
    # 250 brackets per function, 1250 in all: the same evaluated points in
    # the same order, so the same root bit for bit
    rng = np.random.default_rng(7)
    for _ in range(250):
        a, b = np.sort(rng.uniform(-4.0, 4.0, 2))
        c = f(a + (b - a) * rng.uniform(0.01, 0.99))
        port, port_points = _recording(lambda x: f(x) - c)
        ref, ref_points = _recording(lambda x: f(x) - c)
        root = matter1d._brentq(port, a, b)
        assert root == brentq(ref, a, b, xtol=1e-13, maxiter=120), (a, b, c)
        assert port_points == ref_points, (a, b, c)
    with pytest.raises(ValueError):
        matter1d._brentq(lambda x: f(x) - f(5.0), -1.0, 1.0)


def test_brentq_out_of_steps_fails_calibration(monkeypatch):
    monkeypatch.setattr(matter1d, "_BRENT_MAXITER", 3)
    with pytest.raises(CalibrationFailed):
        matter1d._calibrate.__wrapped__(25.0, n_mat=8, n_grid=512)


@pytest.mark.parametrize("target", [0.5, 5.0, 25.0, 200.0])
def test_calibration_matches_exhaustive_scan(target):
    # bit for bit: the walk must reach the scan's bracket
    got = matter1d._calibrate.__wrapped__(target, n_mat=8, n_grid=512)
    assert got == _scan_calibration(target, n_mat=8, n_grid=512)


def test_calibration_below_reachable_range_fails():
    with pytest.raises(CalibrationFailed):
        matter1d._calibrate.__wrapped__(0.2, n_mat=8, n_grid=512)


def test_calibration_shape_solve_count(monkeypatch):
    # the exhaustive scan plus brentq takes 33 full-grid shape solves at mu = 70
    calls = []

    def counting(phi, n_grid):
        calls.append((n_grid, phi))
        return _shape_anharmonicity(phi, n_grid)

    def solves(target_mu):
        calls.clear()
        matter1d._calibrate.__wrapped__(target_mu, n_mat=8, n_grid=matter1d.DEFAULT_N_GRID)

    monkeypatch.setattr(matter1d, "_shape_anharmonicity", counting)
    solves(70.0)
    full = [phi for n, phi in calls if n == matter1d.DEFAULT_N_GRID]
    coarse = [phi for n, phi in calls if n == matter1d._COARSE_N_GRID]
    assert len(full) + len(coarse) == len(calls)
    assert len(full) <= 14
    assert len(set(full)) == len(full)
    assert len(coarse) <= 25
    # outside the reachable range the walk leaves the grid after one pair
    for target_mu in (0.2, 1e20):
        with pytest.raises(CalibrationFailed):
            solves(target_mu)
        assert len([n for n, _ in calls if n == matter1d.DEFAULT_N_GRID]) <= 2, target_mu


def test_calibration_cache_keys_on_values_not_spelling(monkeypatch):
    # conftest calls calibrate_potential(70.0) and base_matter_spec
    # (target_mu, n_mat=30): both spellings must share one cache entry
    cached = lru_cache(maxsize=8)(matter1d._calibrate.__wrapped__)
    monkeypatch.setattr(matter1d, "_calibrate", cached)
    first = calibrate_potential(25.0, n_grid=512)
    second = calibrate_potential(25, n_mat=30, n_grid=512)
    info = cached.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert second is first


def test_calibrated_spec_is_pinned(calibrated_spec):
    # The mu = 70 well to SPEC_RTOL, from the session calibration.  The
    # calibration tests above share `_shape_anharmonicity` with their
    # exhaustive-scan reference, so a change to the shape solve that moves
    # the spec by 1e-11 passes all of them while it flips the grid check.
    # Replacing the matter solver (ROADMAP item 1) re-pins these on purpose.
    want = {"theta": 5384.242190019544, "phi": 58294.47797822971,
            "half_width": 1.0762828847190982}
    for name, value in want.items():
        got = getattr(calibrated_spec, name)
        assert abs(got - value) <= SPEC_RTOL * abs(value), (name, got)
    assert (calibrated_spec.n_grid, calibrated_spec.n_mat) == (2048, 30)


def test_calibration_bisection_oracle(calibrated_spec):
    # independent oracle: plain bisection over the quartic weight at theta = 1,
    # re-solving the well at every step
    def mu_of(phi):
        spec = auto_spec(1.0, phi, n_mat=10, n_grid=2048)
        e = _eigvals_lowest(spec, spec.n_grid, 3)
        return (e[2] - 2 * e[1] + e[0]) / (e[1] - e[0])

    lo, hi = 0.1, 0.3  # mu decreases with phi on this bracket
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        if mu_of(mid) > 70.0:
            lo = mid
        else:
            hi = mid
    phi_oracle = 0.5 * (lo + hi)
    assert abs(mu_of(phi_oracle) - 70.0) / 70.0 < 1e-3
    # compare through the scale-invariant shape combination phi^2 / theta^3
    shape_pkg = calibrated_spec.phi**2 / calibrated_spec.theta**3
    shape_oracle = phi_oracle**2 / 1.0
    assert abs(shape_pkg - shape_oracle) / shape_oracle < 1e-3


def test_grid_refinement_oracle(basis, calibrated_spec):
    # reference solve at 4x resolution and 1.5x box
    spec = calibrated_spec
    fine = MatterSpec(spec.theta, spec.phi, 1.5 * spec.half_width,
                      n_grid=4 * spec.n_grid, n_mat=spec.n_mat)
    ref = solve_double_well(fine, check_convergence=False)
    rel = np.abs(basis.energies - ref.energies) / np.maximum(1.0, np.abs(ref.energies))
    assert rel.max() < 1e-8


def test_calibration_doubled_grid_stability(calibrated_spec):
    spec = calibrated_spec
    doubled = MatterSpec(spec.theta, spec.phi, spec.half_width,
                         n_grid=2 * spec.n_grid, n_mat=spec.n_mat)
    b2 = solve_double_well(doubled, check_convergence=False)
    assert abs(b2.anharmonicity - 70.0) < 1e-4


def test_determinism(calibrated_spec):
    a = solve_double_well(calibrated_spec)
    b = solve_double_well(calibrated_spec)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.x_mat, b.x_mat)
    assert np.array_equal(a.d_mat, b.d_mat)


def test_json_dump_schema(basis):
    payload = basis.to_json_dict()
    assert set(payload) == {"eps", "X", "P", "X2"}
    assert len(payload["eps"]) == basis.n_mat
    assert len(payload["X"]) == basis.n_mat
    # complex momentum entries are [re, im] pairs
    assert len(payload["P"][0][1]) == 2
    assert_json_momentum_pairs(basis)


def test_json_dump_momentum_pairs_mu25(basis25):
    assert_json_momentum_pairs(basis25)
