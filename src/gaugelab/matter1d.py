"""1D double-well dipole: grid eigensolver, shape calibration, matrix elements.

The dipole is a unit-mass charge in V(x) = -theta*x^2/2 + phi*x^4/4 solved on
a uniform grid with Dirichlet walls at +-L.  The kinetic term uses a
tenth-order central finite-difference stencil, assembled as a symmetric banded
matrix; eigenvalues come from the banded LAPACK driver and eigenvectors from
shift-inverted Lanczos with a fixed start vector (deterministic).  d/dx has
no stencil of its own: it follows from the levels and x (`MatterBasis.d_mat`).

Units: hbar = 1 and the mode frequency is 1.  `calibrate_potential` rescales
(theta, phi) so the lowest transition equals it, which makes resonance exact
by construction and leaves only the dimensionless well shape (fixed by the
anharmonicity target) as physics input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eig_banded

from .errors import BoundaryLeak, CalibrationFailed, NotConverged

# Tenth-order central finite-difference coefficients c[k] for
# f''(x) ~ sum_k c[k]*(f_{i+k}+f_{i-k})/h^2 (c[0] counted once)
_D2_STENCIL = [-5269 / 1800, 5 / 3, -5 / 21, 5 / 126, -5 / 1008, 1 / 3150]

DEFAULT_N_GRID = 2048
DEFAULT_N_MAT = 30

BOUNDARY_AMPLITUDE_TOL = 1e-10
GRID_CONVERGENCE_TOL = 1e-9  # in units of omega0, against a doubled grid


@dataclass(frozen=True)
class MatterSpec:
    """Shape and discretization of the double-well dipole."""

    theta: float
    phi: float
    half_width: float
    n_grid: int = DEFAULT_N_GRID
    n_mat: int = DEFAULT_N_MAT

    def validate(self) -> None:
        if self.phi <= 0:
            raise ValueError("phi must be positive (potential bounded below)")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.n_mat < 2:
            raise ValueError("n_mat must be at least 2")
        if self.n_grid < 4 * self.n_mat:
            raise ValueError("n_grid must be at least 4*n_mat")

    def potential(self, x: np.ndarray) -> np.ndarray:
        return -self.theta * x**2 / 2 + self.phi * x**4 / 4


@dataclass(frozen=True)
class MatterBasis:
    """Lowest eigenlevels of the dipole with position and x^2 matrix elements.

    `x_mat` and `x2_mat` are real symmetric; the derivative `d_mat` = d/dx is
    read off the energies and `x_mat`, real antisymmetric, so p = -i*d_mat is
    Hermitian.  Phases are fixed so every x_mat[k, k+1] >= 0, which makes the
    doublet dipole element real positive.
    """

    spec: MatterSpec
    energies: np.ndarray
    x_mat: np.ndarray
    x2_mat: np.ndarray

    @property
    def d_mat(self) -> np.ndarray:
        """d/dx from [H, x] = -i*p: D_jk = (E_k - E_j) x_jk, antisymmetrised (x_mat
        is symmetric only to roundoff) so that p = -i*D is exactly Hermitian."""
        d = self.x_mat * (self.energies[None, :] - self.energies[:, None])
        return (d - d.T) / 2

    @property
    def n_mat(self) -> int:
        return len(self.energies)

    @property
    def omega0(self) -> float:
        return float(self.energies[1] - self.energies[0])

    @property
    def omega1(self) -> float:
        return float(self.energies[2] - self.energies[1])

    @property
    def anharmonicity(self) -> float:
        return (self.omega1 - self.omega0) / self.omega0

    @property
    def x10(self) -> float:
        return float(self.x_mat[0, 1])

    def to_json_dict(self) -> dict:
        """JSON dump: {"eps", "X", "P", "X2"}; P = -i*d_mat entries as [re, im]."""
        p_mat = -1j * self.d_mat
        return {
            "eps": self.energies.tolist(),
            "X": self.x_mat.tolist(),
            "P": np.stack([p_mat.real, p_mat.imag], axis=-1).tolist(),
            "X2": self.x2_mat.tolist(),
        }


def _grid(half_width: float, n_grid: int):
    # Walls sit one spacing outside the outermost points; the point set is an
    # exact mirror image of itself so parity cancellations are exact in floats.
    h = 2 * half_width / (n_grid + 1)
    x = (np.arange(n_grid) - (n_grid - 1) / 2) * h
    return x, h


def _banded_hamiltonian(spec: MatterSpec, n_grid: int):
    x, h = _grid(spec.half_width, n_grid)
    band = np.zeros((len(_D2_STENCIL), n_grid))
    band[0] = -_D2_STENCIL[0] / (2 * h * h) + spec.potential(x)
    for k in range(1, len(_D2_STENCIL)):
        band[k, :] = -_D2_STENCIL[k] / (2 * h * h)
    return x, h, band


def _eigvals_lowest(spec: MatterSpec, n_grid: int, k: int) -> np.ndarray:
    _, _, band = _banded_hamiltonian(spec, n_grid)
    return eig_banded(band, lower=True, eigvals_only=True, select="i",
                      select_range=(0, k - 1))


def _sparse_hamiltonian(band: np.ndarray, n: int):
    mat = sp.diags([band[0]], [0])
    for k in range(1, band.shape[0]):
        mat = mat + sp.diags([band[k][: n - k]], [-k]) + sp.diags([band[k][: n - k]], [k])
    return mat.tocsc()


def _eigpairs_lowest(spec: MatterSpec, n_grid: int, k: int):
    """Lowest-k eigenvectors by deterministic shift-inverted Lanczos.

    Energies are recomputed as Rayleigh quotients, whose error is quadratic
    in the residual; this removes the eps*||H|| eigenvalue noise floor that
    the 1/h^2 kinetic scale would otherwise impose.
    """
    x, h, band = _banded_hamiltonian(spec, n_grid)
    mat = _sparse_hamiltonian(band, n_grid)
    v0 = np.full(n_grid, 1.0 / math.sqrt(n_grid))  # fixed start keeps ARPACK deterministic
    vmin = float(spec.potential(x).min())
    vals, vecs = spla.eigsh(mat, k=k, sigma=vmin - 1.0, which="LM", v0=v0)
    order = np.argsort(vals)
    vecs = vecs[:, order]
    energies = np.einsum("ij,ij->j", vecs, mat @ vecs)
    return x, h, energies, vecs, mat


def solve_double_well(spec: MatterSpec, check_convergence: bool = True) -> MatterBasis:
    """Solve for the lowest `n_mat` levels and their x and x^2 matrix elements.

    Enforces the boundary-leak contract (edge amplitude below 1e-10 for every
    retained level) and, when `check_convergence`, re-solves the eigenvalues
    on a doubled grid and demands agreement within 1e-9*omega0.
    """
    spec.validate()
    x, h, energies, vecs, mat = _eigpairs_lowest(spec, spec.n_grid, spec.n_mat)

    # The symmetric well gives eigenstates of definite parity; project each
    # vector onto its dominant parity component to strip eigensolver mixing
    # inside near-degenerate doublets, then refresh the Rayleigh quotients.
    flipped = vecs[::-1, :]
    even = (vecs + flipped) / 2
    odd = (vecs - flipped) / 2
    for k in range(spec.n_mat):
        vk = even[:, k] if even[:, k] @ even[:, k] >= odd[:, k] @ odd[:, k] else odd[:, k]
        vecs[:, k] = vk / math.sqrt(vk @ vk)
    energies = np.einsum("ij,ij->j", vecs, mat @ vecs)

    edge_amp = np.abs(vecs[[0, -1], :]).max() / math.sqrt(h)
    if edge_amp > BOUNDARY_AMPLITUDE_TOL:
        raise BoundaryLeak(
            f"edge amplitude {edge_amp:.3e} exceeds {BOUNDARY_AMPLITUDE_TOL:.0e}; "
            f"enlarge half_width (currently {spec.half_width})")

    # Sign convention: walk up the ladder making each <k|x|k+1> nonnegative.
    x_mat = vecs.T @ (x[:, None] * vecs)
    for k in range(spec.n_mat - 1):
        if x_mat[k, k + 1] < 0:
            vecs[:, k + 1] = -vecs[:, k + 1]
            x_mat[:, k + 1] = -x_mat[:, k + 1]
            x_mat[k + 1, :] = -x_mat[k + 1, :]

    x2_mat = vecs.T @ ((x**2)[:, None] * vecs)

    if check_convergence:
        omega0 = energies[1] - energies[0]
        fine = _eigpairs_lowest(spec, 2 * spec.n_grid, spec.n_mat)[2]
        shift = np.abs(np.sort(fine) - energies).max()
        if shift > GRID_CONVERGENCE_TOL * abs(omega0):
            raise NotConverged(
                f"doubling n_grid shifts eigenvalues by {shift:.3e} "
                f"(> {GRID_CONVERGENCE_TOL:.0e}*omega0 = {GRID_CONVERGENCE_TOL * abs(omega0):.3e})")

    return MatterBasis(spec=spec, energies=energies, x_mat=x_mat, x2_mat=x2_mat)


def _outer_turning_point(theta: float, phi: float, energy: float) -> float:
    """Largest root of V(x) = energy (clamped to the well scale from below)."""
    disc = theta * theta + 4 * phi * energy
    if disc <= 0:
        return math.sqrt(max(theta, 0.0) / phi)  # at/below the well bottom
    if theta >= 0:
        x2 = (theta + math.sqrt(disc)) / phi
    else:
        # stable form for the single-well branch (theta < 0, energy > 0)
        x2 = 4 * energy / (math.sqrt(disc) - theta)
    return math.sqrt(x2)


def auto_spec(theta: float, phi: float, n_mat: int = DEFAULT_N_MAT,
              n_grid: int = DEFAULT_N_GRID, margin: float = 1.5) -> MatterSpec:
    """Pick the box half-width as `margin` x the top retained level's turning point.

    Solves once with a curvature-based estimate of the top energy, then
    rebuilds the spec from the actual spectrum (a single iteration settles
    it).  The default margin holds the boundary-leak contract for deep
    quartic wells; softer wells need a wider box (see calibrate_potential).
    """
    if theta > 0:
        well_freq = math.sqrt(2 * theta)
        barrier = theta * theta / (4 * phi)
    else:
        well_freq = math.sqrt(-theta)
        barrier = 0.0
    top_guess = -barrier + well_freq * (n_mat + 1)
    half = margin * _outer_turning_point(theta, phi, max(top_guess, well_freq))
    probe = MatterSpec(theta=theta, phi=phi, half_width=half, n_grid=n_grid,
                       n_mat=n_mat)
    top = float(_eigvals_lowest(probe, n_grid, n_mat)[-1])
    half = margin * _outer_turning_point(theta, phi, top)
    return MatterSpec(theta=theta, phi=phi, half_width=half, n_grid=n_grid,
                      n_mat=n_mat)


def _shape_anharmonicity(phi: float, n_grid: int) -> float:
    """Anharmonicity of the theta=1 well at quartic weight `phi`.

    The box covers several levels beyond the lowest three: the tunneling
    splitting is exponentially small, so wall compression that shifts the
    doublet differentially by even 1e-8 would pollute the ratio.
    """
    spec = auto_spec(1.0, phi, n_mat=10, n_grid=n_grid)
    e = _eigvals_lowest(spec, n_grid, 3)
    w0 = e[1] - e[0]
    w1 = e[2] - e[1]
    return (w1 - w0) / w0


# The shape root is bracketed on this log10(phi) grid, ordered from shallow
# wells (small mu) to deep ones, scanned first on _COARSE_N_GRID points.
_SHAPE_GRID = np.linspace(math.log10(0.02), math.log10(20.0), 25)[::-1]
_COARSE_N_GRID = 128
# brentq's xtol, rtol (scipy's floor, 4 machine epsilons) and step budget
_BRENT_XTOL, _BRENT_RTOL, _BRENT_MAXITER = 1e-13, float(4 * np.finfo(float).eps), 120


def _brentq(f, xa: float, xb: float) -> float:
    """Root of f between xa and xb by Brent's method (Brent, 1973, ch. 4).

    A port of scipy's C `brentq` at xtol 1e-13 and maxiter 120: it evaluates
    f at scipy's points in scipy's order, so the root is scipy's bit for bit.
    Raises ValueError when f(xa) and f(xb) share a sign.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = abs(spre) > delta and abs(fcur) < abs(fpre)
        if short:  # try a secant or inverse quadratic step, else bisect
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise CalibrationFailed(f"brentq: no convergence in {_BRENT_MAXITER} steps, at {xcur}")


def _bracket_index(shape_mu, target_mu: float, start: int) -> int | None:
    """Index i of the first pair (i-1, i) of _SHAPE_GRID where mu - target_mu changes sign.

    `shape_mu(lg)` is the anharmonicity at phi = 10**lg.  The walk steps
    from the pair (start-1, start) one grid point toward the target until a
    pair straddles it by the strict `val * prev_val < 0` of an exhaustive
    descending scan, so for mu monotone along the grid it returns that
    scan's pair from any start.  None when the walk leaves the grid.
    """
    def val(i):
        return shape_mu(_SHAPE_GRID[i]) - target_mu

    i, step = start, (1 if val(start) < 0 else -1)  # mu grows along the grid
    while not val(i) * val(i - 1) < 0:
        i += step
        if not 0 < i < len(_SHAPE_GRID):
            return None
    return i


def calibrate_potential(target_mu: float, n_mat: int = DEFAULT_N_MAT,
                        n_grid: int = DEFAULT_N_GRID) -> MatterSpec:
    """Find (theta, phi) with anharmonicity `target_mu` and omega0 = 1.

    One dimensionless shape parameter remains after fixing the energy scale:
    at theta = 1 the quartic weight phi sets the barrier height, and the
    anharmonicity grows monotonically as the barrier rises (phi shrinks).
    A bracketed root find in log(phi) pins the shape.  Its bracket is the
    first pair of the 25-point `_SHAPE_GRID` that straddles the target:
    `_bracket_index` walks to it on the full grid from the grid's first sign
    change on `_COARSE_N_GRID` points, under that monotonicity usually in the
    two solves that `_brentq` (scipy's brentq, ported) then reuses, and the
    spec is an exhaustive scan's bit for bit.  The exact scaling law
    eps_k(theta*s^4, phi*s^6) = s^2 * eps_k(theta, phi) then puts the lowest
    transition on the mode frequency 1, so resonance holds by construction.

    Results are memoised on the argument values, however the call spells
    them (positionally, by keyword or by default).
    """
    return _calibrate(target_mu, n_mat, n_grid)


@lru_cache(maxsize=8)
def _calibrate(target_mu: float, n_mat: int, n_grid: int) -> MatterSpec:
    if not target_mu > 0:
        raise ValueError("target_mu must be positive")

    # Splittings below ~1e-8 of the well frequency sink into eigensolver noise,
    # which bounds usable mu.  shape_mu solves each full-grid shape once.
    shape_mu = lru_cache(maxsize=None)(lambda lg: _shape_anharmonicity(10.0**lg, n_grid))
    coarse = [_shape_anharmonicity(10.0**lg, _COARSE_N_GRID) - target_mu for lg in _SHAPE_GRID]
    start = next((i for i in range(1, len(coarse)) if coarse[i] * coarse[i - 1] < 0),
                 1 if coarse[0] > 0 else len(coarse) - 1)
    i = _bracket_index(shape_mu, target_mu, start)
    if i is None:
        raise CalibrationFailed(
            f"no bracket for target_mu={target_mu}; reachable range exhausted")
    lg_star = _brentq(lambda lg: shape_mu(lg) - target_mu, _SHAPE_GRID[i], _SHAPE_GRID[i - 1])
    phi_shape = 10.0**lg_star

    shape_spec = auto_spec(1.0, phi_shape, n_mat=24, n_grid=n_grid)
    e = _eigpairs_lowest(shape_spec, n_grid, 2)[2]
    scale = 1.0 / abs(e[1] - e[0])  # s^2 in the scaling law
    theta = float(scale**2)
    phi = float(phi_shape * scale**3)

    # widen the box until the leak contract holds; soft wells need more than
    # the deep-quartic default margin
    margin = 1.5
    while True:
        spec = auto_spec(theta, phi, n_mat=n_mat, n_grid=n_grid, margin=margin)
        try:
            basis = solve_double_well(spec, check_convergence=False)
            break
        except BoundaryLeak:
            margin *= 1.3
            if margin > 5.0:
                raise CalibrationFailed(
                    "box sizing failed: boundary leak persists at 5x the "
                    "turning point") from None
    mu = basis.anharmonicity
    if abs(mu - target_mu) / target_mu >= 1e-3:
        raise CalibrationFailed(
            f"calibrated anharmonicity {mu:.6f} misses target {target_mu} by "
            f"{abs(mu - target_mu) / target_mu:.2e} relative")
    return spec
