"""Gap-resolved Lindblad dynamics for a zero-temperature flat bath.

The dissipator uses eigenbasis-resolved jump operators: for each cluster of
equal transition gaps E (grouped within `gap_tol`),

    O^+(E) = sum_{i>j, E_i-E_j = E} <i|O|j> |i><j|,   O^-(E) = (O^+(E))^dag,

and rho' = -i[H, rho] + kappa * sum_E [O^- rho O^+ - {O^+ O^-, rho}/2].
Only strictly positive gaps enter, so jumps are purely downward.

Everything lives in the truncated eigenbasis of the chosen model: keeping
the lowest `n_lev` eigenstates keeps the superoperator dense work at
n_lev^2 dimensions, and downward-only jumps never repopulate dropped levels
provided the initial state is supported on the kept block (checked by the
trace-preservation invariant along every trajectory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .analysis import EigenSystem
from .errors import (DegenerateGapAmbiguity, DimensionMismatch,
                     NonUniqueSteadyState, SolverFailure, StepFailure)

TRACE_TOL = 1e-8
POSITIVITY_TOL = -1e-7
DEFAULT_GAP_TOL_FACTOR = 1e-8


@dataclass(frozen=True)
class LindbladSystem:
    """Truncated eigenbasis data: level energies, coupling matrix, rate kappa."""

    energies: np.ndarray           # (n_lev,), ascending
    coupling: np.ndarray           # (n_lev, n_lev) Hermitian, eigenbasis of H
    kappa: float
    gap_tol: float

    def __post_init__(self):
        n = len(self.energies)
        if self.coupling.shape != (n, n):
            raise DimensionMismatch(
                f"coupling shape {self.coupling.shape} != ({n}, {n})")
        dev = np.abs(self.coupling - self.coupling.conj().T).max()
        if dev > 1e-10:
            raise ValueError(f"coupling must be Hermitian, deviation {dev:.3e}")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")

    @property
    def n_lev(self) -> int:
        return len(self.energies)


def from_eigensystem(es: EigenSystem, coupling_matrix: np.ndarray, kappa: float,
                     n_lev: int | None = None, gap_tol: float | None = None,
                     omega: float = 1.0) -> LindbladSystem:
    """Project a state-space coupling operator into the lowest-n_lev eigenbasis."""
    n_lev = es.count if n_lev is None else min(n_lev, es.count)
    if coupling_matrix.shape != (es.dim, es.dim):
        raise DimensionMismatch(
            f"coupling shape {coupling_matrix.shape} != ({es.dim}, {es.dim})")
    v = es.states[:, :n_lev]
    tilde = v.conj().T @ coupling_matrix @ v
    tilde = (tilde + tilde.conj().T) / 2
    if gap_tol is None:
        gap_tol = DEFAULT_GAP_TOL_FACTOR * omega
    return LindbladSystem(energies=es.energies[:n_lev].copy(), coupling=tilde,
                          kappa=kappa, gap_tol=gap_tol)


def _gap_clusters(sys: LindbladSystem):
    """Partition downward transition pairs into equal-gap clusters.

    Returns a list of (mean_gap, [(i, j), ...]) with i > j, gap > gap_tol.
    Raises DegenerateGapAmbiguity when two cluster centres sit closer than
    twice the grouping tolerance.
    """
    n = sys.n_lev
    e = sys.energies
    scale = float(np.abs(sys.coupling).max())
    pairs = [(e[i] - e[j], i, j) for i in range(n) for j in range(i)
             if e[i] - e[j] > sys.gap_tol
             and abs(sys.coupling[i, j]) > 1e-12 * scale]
    pairs.sort(key=lambda t: t[0])
    clusters: list[tuple[list[float], list[tuple[int, int]]]] = []
    for g, i, j in pairs:
        if clusters and g - clusters[-1][0][-1] <= sys.gap_tol:
            clusters[-1][0].append(g)
            clusters[-1][1].append((i, j))
        else:
            clusters.append(([g], [(i, j)]))
    means = [float(np.mean(gs)) for gs, _ in clusters]
    for a, b in zip(means, means[1:]):
        if b - a < 2 * sys.gap_tol:
            raise DegenerateGapAmbiguity(
                f"gap clusters at {a:.6g} and {b:.6g} closer than 2*gap_tol = "
                f"{2 * sys.gap_tol:.3g}; adjust the grouping tolerance")
    return [(m, ij) for m, (_, ij) in zip(means, clusters)]


def jump_operators(sys: LindbladSystem) -> list[tuple[float, np.ndarray]]:
    """Raising components O^+(E) per gap cluster, as dense eigenbasis matrices."""
    n = sys.n_lev
    out = []
    for gap, pairs in _gap_clusters(sys):
        op = np.zeros((n, n), dtype=complex)
        for i, j in pairs:
            op[i, j] = sys.coupling[i, j]
        out.append((gap, op))
    return out


def rates(sys: LindbladSystem, i_max: int) -> np.ndarray:
    """Rate table gamma[i,j,k,l] = kappa <i|O|j><k|O|l> for indices <= i_max."""
    if i_max >= sys.n_lev:
        raise DimensionMismatch(f"i_max {i_max} >= n_lev {sys.n_lev}")
    block = sys.coupling[: i_max + 1, : i_max + 1]
    return sys.kappa * np.einsum("ij,kl->ijkl", block, block)


def liouvillian(sys: LindbladSystem) -> np.ndarray:
    """Dense superoperator on row-major-vectorized density matrices.

    The jump part sum_E kron(O^-, conj(O^-)) couples only transition pairs
    within one gap cluster, so it is assembled from cluster index lists
    instead of per-cluster dense Kronecker products.
    """
    n = sys.n_lev
    h = sys.energies
    eye = np.eye(n)
    lv = -1j * (np.kron(np.diag(h).astype(complex), eye)
                - np.kron(eye, np.diag(h).astype(complex)))
    if sys.kappa == 0:
        return lv
    acc = np.zeros((n, n), dtype=complex)  # sum_E O^+(E) O^-(E)
    jump = np.zeros((n * n, n * n), dtype=complex)
    for _, pairs in _gap_clusters(sys):
        ii = np.array([p[0] for p in pairs])
        jj = np.array([p[1] for p in pairs])
        w = sys.coupling[ii, jj]  # elements of O^+
        # c = O^-(E): c[j, i] = conj(w) on the cluster pairs
        # c rho c^dag contributes at rows (j_p, j_r), cols (i_p, i_r)
        rows = (jj[:, None] * n + jj[None, :]).ravel()
        cols = (ii[:, None] * n + ii[None, :]).ravel()
        vals = (w.conj()[:, None] * w[None, :]).ravel()
        np.add.at(jump, (rows, cols), vals)
        # O^+ O^- = sum over shared lower level j of w_p conj(w_r) |i_p><i_r|
        for j_level in np.unique(jj):
            sel = jj == j_level
            wi = w[sel]
            idx = ii[sel]
            acc[np.ix_(idx, idx)] += wi[:, None] * wi[None, :].conj()
    lv += sys.kappa * jump
    lv -= 0.5 * sys.kappa * (np.kron(acc, eye) + np.kron(eye, acc.T))
    return lv


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray           # (n_times, n_lev, n_lev)
    expectations: dict

    def population(self, i: int) -> np.ndarray:
        return self.states[:, i, i].real


def _check_state(rho: np.ndarray, where: str) -> None:
    tr_dev = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
    if tr_dev > TRACE_TOL:
        raise StepFailure(f"trace deviation {tr_dev:.3e} {where}")
    herm = (rho + rho.conj().T) / 2
    if np.linalg.eigvalsh(herm).min() < POSITIVITY_TOL:
        raise StepFailure(
            f"minimum eigenvalue {np.linalg.eigvalsh(herm).min():.3e} {where}")


def evolve(sys: LindbladSystem, rho0: np.ndarray, times: np.ndarray,
           observables: dict | None = None, rtol: float = 1e-10,
           atol: float = 1e-12, check: bool = True) -> Trajectory:
    """Integrate the master equation from rho0 over `times` (adaptive DOP853).

    `observables` maps names to eigenbasis matrices; expectation curves are
    returned alongside the states.  Each sampled state must stay trace-one to
    1e-8 and positive to -1e-7 (StepFailure otherwise).
    """
    n = sys.n_lev
    if rho0.shape != (n, n):
        raise DimensionMismatch(f"rho0 shape {rho0.shape} != ({n}, {n})")
    herm_dev = np.abs(rho0 - rho0.conj().T).max()
    if herm_dev > 1e-10:
        raise ValueError(f"rho0 must be Hermitian (deviation {herm_dev:.3e})")
    if abs(np.trace(rho0) - 1.0) > 1e-10:
        raise ValueError("rho0 must have unit trace")
    if np.linalg.eigvalsh((rho0 + rho0.conj().T) / 2).min() < -1e-10:
        raise ValueError("rho0 must be positive semidefinite")

    times = np.asarray(times, dtype=float)
    lv = liouvillian(sys)
    sol = solve_ivp(lambda _t, y: lv @ y, (times[0], times[-1]),
                    rho0.astype(complex).ravel(), t_eval=times,
                    method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise StepFailure(sol.message)
    states = sol.y.T.reshape(len(times), n, n)
    if check:
        for idx in range(len(times)):
            _check_state(states[idx], f"at t={times[idx]:g}")
    expectations = {}
    if observables:
        for name, op in observables.items():
            expectations[name] = np.einsum("tij,ji->t", states, op).real
    return Trajectory(times=times, states=states, expectations=expectations)


def stationary_state(sys: LindbladSystem, cross_check: bool = True) -> np.ndarray:
    """Null-space stationary state of the generator, unit trace, Hermitian.

    Raises NonUniqueSteadyState when the null space has dimension above one.
    When `cross_check`, also integrates from the maximally mixed state for
    ~30 relaxation times and demands 1e-6 agreement in trace distance.
    """
    if sys.kappa <= 0:
        raise ValueError("stationary state needs kappa > 0")
    n = sys.n_lev
    lv = liouvillian(sys)
    lam, vecs = np.linalg.eig(lv)
    scale = max(1.0, float(np.abs(lam).max()))
    null_idx = np.where(np.abs(lam) < 1e-10 * scale)[0]
    if len(null_idx) == 0:
        raise SolverFailure("no null vector found for the Lindblad generator")
    if len(null_idx) > 1:
        raise NonUniqueSteadyState(
            f"null space dimension {len(null_idx)} > 1 (dark states present)")
    rho = vecs[:, null_idx[0]].reshape(n, n)
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.trace(rho).real
    resid = np.linalg.norm(lv @ rho.ravel())
    if resid > 1e-9:
        raise SolverFailure(f"stationary residual {resid:.3e} exceeds 1e-9")
    if cross_check:
        nonzero = np.abs(lam) > 1e-10 * scale
        slowest = float(np.abs(lam[nonzero].real).min()) if nonzero.any() else 0.0
        horizon = max(50.0 / sys.kappa, 30.0 / max(slowest, 1e-12))
        traj = evolve(sys, np.eye(n, dtype=complex) / n,
                      np.array([0.0, horizon]), check=False)
        diff = traj.states[-1] - rho
        dist = 0.5 * np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum()
        if dist > 1e-6:
            raise SolverFailure(
                f"long-time evolution differs from null-space state by {dist:.3e}")
    return rho


def decay_rate(sys: LindbladSystem, i: int) -> float:
    """Total downward channel rate kappa * sum_{E_j < E_i} |<j|O|i>|^2."""
    if not 0 < i < sys.n_lev:
        raise ValueError("initial index must satisfy 0 < i < n_lev")
    down = sys.energies[i] - sys.energies[:i] > sys.gap_tol
    amps = sys.coupling[:i, i][down]
    return float(sys.kappa * np.sum(np.abs(amps) ** 2))


def decay_rate_fit(sys: LindbladSystem, i: int, horizon_factor: float = 3.0,
                   n_samples: int = 40) -> float:
    """Exponential fit of the level-i population decay (cross-check of decay_rate)."""
    guess = decay_rate(sys, i)
    if guess <= 0:
        raise ValueError(f"level {i} has no downward channel")
    times = np.linspace(0.0, horizon_factor / guess, n_samples)
    rho0 = np.zeros((sys.n_lev, sys.n_lev), dtype=complex)
    rho0[i, i] = 1.0
    traj = evolve(sys, rho0, times, check=False)
    pop = np.clip(traj.states[:, i, i].real, 1e-300, None)
    slope = np.polyfit(times, np.log(pop), 1)[0]
    return float(-slope)
