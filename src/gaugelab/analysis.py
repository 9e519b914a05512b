"""Eigen-analysis, fidelities, subspace bounds, frame-resolved expectation values.

A frame fixes how an abstract observable (specified by its Coulomb-gauge
matrix O_0 on the full space) is represented when paired with a given
model's eigenvectors.  Each frame is a map S, named by one plain label of
`FRAME_TAGS` (`FrameContext.represent` refuses any other), and the
representation is S O_0 S^T:

  exact_coulomb        S = I, giving O_0                  (full space)
  dipole_truncated     S = P R_01, the P rows of R_01     (P-block)
  coulomb_truncated    S = P, giving P O_0 P              (P-block)

The S = P frame never forms O_0: each built-in observable but energy is a
Kronecker product whose P-block slices the matter factor to the m_levels
retained levels, and P H_0 P is the projected model at alpha = 0.

R_01 is the dense real orthogonal rotation of `gauge.rotation`, formed from
per-level factors; each context forms its P rows once.  The maps no figure
reads, R_{0 alpha} and T_10 P R_01, are test references (tests/reference.py).

Every expectation value a figure reports is read over a model's
eigenstates through the one `EigenSystem.expectations`: the frame readings
<v_i| S O_0 S^T |v_i>, the Gibbs sums of `thermal_average` and figS3's
<Delta>_i over qrm's states.

`experiments.MODELS` pairs each model the figures solve with its frame
label.  Two models are read in `coulomb_truncated`: the standard truncation
in the Coulomb gauge, and the rotated two-level model, which deliberately
reproduces the identification this laboratory falsifies: reading a rotation
inside the truncated space as a change to the Coulomb gauge.

Every catalogued Hamiltonian and gauge rotation is real in the i^n photon
basis of fockspace, so eigensolves take LAPACK's real-symmetric path and
eigenstates are real.  Every product S O_0 S^T runs on real matrices; the -i
of p = -i*D (D = d/dx, real antisymmetric, from `MatterBasis.d_mat`) enters
once, when `represent` returns p/omega, the one complex representation,
whose real averages vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigh

from .errors import (CutoffCeiling, MissingContext, NotNormalized, SolverFailure,
                     SpaceMismatch)
from .fockspace import CompositeSpace, fock_operators
from .gauge import build_model, check_space, rotation
from .matter1d import MatterBasis

NORMALIZATION_TOL = 1e-10
RESIDUAL_TOL = 1e-9
DEGENERACY_FLAG_GAP = 1e-6  # in units of omega, for sweep-pairing guards


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenpairs of a Hermitian operator (possibly a partial set).

    Vector phases (signs, for a real matrix) are fixed by making the
    largest-magnitude component of each column real positive.
    """

    energies: np.ndarray
    states: np.ndarray  # column k is the k-th eigenvector

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @property
    def count(self) -> int:
        return len(self.energies)

    def state(self, i: int) -> np.ndarray:
        return self.states[:, i]

    def residual_max(self, matrix: np.ndarray) -> float:
        res = matrix @ self.states - self.states * self.energies[None, :]
        scale = 1.0 + np.abs(self.energies)
        return float((np.linalg.norm(res, axis=0) / scale).max())

    def expectations(self, matrix: np.ndarray) -> np.ndarray:
        """Real parts of <v_i| matrix |v_i> for every state, checked real."""
        if matrix.shape != (self.dim, self.dim):
            raise SpaceMismatch(
                f"eigensystem dim {self.dim} vs matrix shape {matrix.shape}")
        vals = np.einsum("ij,jk,ki->i", self.states.conj().T, matrix, self.states,
                         optimize=True)
        bad = np.abs(vals.imag) > 1e-10 * (1.0 + np.abs(vals.real))
        if bad.any():
            raise SolverFailure(f"expectation has imaginary part {vals.imag[bad][0]:.3e}")
        return vals.real

    def degenerate_flags(self, omega: float) -> np.ndarray:
        """True where a level's gap to a neighbour is below the pairing guard."""
        gaps = np.diff(self.energies)
        flags = np.zeros(self.count, dtype=bool)
        small = gaps < DEGENERACY_FLAG_GAP * omega
        flags[:-1] |= small
        flags[1:] |= small
        return flags


def _fix_phases(states: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(states), axis=0)
    lead = states[idx, np.arange(states.shape[1])]
    phases = np.where(np.abs(lead) > 0, lead / np.abs(lead), 1.0)
    return states * phases.conj()[None, :]


def eigensolve(matrix: np.ndarray, k: int | None = None) -> EigenSystem:
    """Full or lowest-k eigensystem of a Hermitian matrix (real or complex).

    Contracts verified on the lowest few vectors: residual below
    1e-9*(1+|E|) and orthonormality to 1e-10 (SolverFailure otherwise).
    """
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim):
        raise SpaceMismatch(f"matrix shape {matrix.shape} is not square")
    if k is None:
        energies, states = np.linalg.eigh(matrix)
    else:
        energies, states = eigh(matrix, subset_by_index=(0, k - 1))
    out = EigenSystem(energies=energies, states=_fix_phases(states))
    m = min(8, out.count)
    probe = EigenSystem(out.energies[:m], out.states[:, :m])
    res = probe.residual_max(matrix)
    if res > RESIDUAL_TOL:
        raise SolverFailure(f"eigenpair residual {res:.3e} exceeds {RESIDUAL_TOL:.0e}")
    gram = probe.states.conj().T @ probe.states
    dev = float(np.abs(gram - np.eye(m)).max())
    if dev > NORMALIZATION_TOL:
        raise SolverFailure(f"orthonormality deviation {dev:.3e}")
    return out


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|<u|v>|^2 for normalized vectors."""
    for name, vec in (("u", u), ("v", v)):
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            raise NotNormalized(f"{name} has norm {norm!r}")
    return float(np.abs(np.vdot(u, v)) ** 2)


def cs_bound(state: np.ndarray, space: CompositeSpace) -> float:
    """Fidelity ceiling ||P state||^2 for any normalized vector in the P-subspace.

    `state` is a full-space vector; a P-space one is rejected (SpaceMismatch).
    """
    if state.shape != (space.dim,):
        raise SpaceMismatch(f"state shape {state.shape} vs full space ({space.dim},)")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"state has norm {norm!r}")
    seg = state[: space.sub_dim]
    return float(np.real(np.vdot(seg, seg)))


# ---------------------------------------------------------------------------
# Observables and frames
# ---------------------------------------------------------------------------

OBSERVABLE_NAMES = ("n_et", "gamma", "q_et", "p_over_omega", "energy")

EXACT_COULOMB = "exact_coulomb"
DIPOLE_TRUNCATED = "dipole_truncated"
COULOMB_TRUNCATED = "coulomb_truncated"
FRAME_TAGS = (EXACT_COULOMB, DIPOLE_TRUNCATED, COULOMB_TRUNCATED)


class FrameContext:
    """Shared operators for producing observable representations.

    Owns the matter basis and composite space; caches each representation
    per (observable, frame) pair and forms the P rows of R_01 once.  Products
    run on real factors: p/omega is -i times its cached D (x) I/omega.
    """

    def __init__(self, basis: MatterBasis, space: CompositeSpace):
        check_space(basis, space)
        self.basis = basis
        self.space = space
        self.fock = fock_operators(space.n_ph, space.omega)
        self._cache: dict = {}

    def _real_factor(self, name: str, truncated: bool) -> np.ndarray:
        """The named real factor on the full space, or its P-block when truncated."""
        key = ("real", name, truncated)
        if key in self._cache:
            return self._cache[key]
        sp = self.space
        m = sp.m_levels if truncated else sp.n_mat
        eye_m = np.eye(m)
        if name == "n_et":
            mat = np.kron(eye_m, self.fock.number)
        elif name == "gamma":
            pop = np.ones(m)
            pop[0] = 0.0
            mat = np.kron(np.diag(pop), np.eye(sp.n_ph))
        elif name == "q_et":
            # i(a^dag - a), the field quadrature in photon units
            mat = np.kron(eye_m, np.sqrt(2 / sp.omega) * self.fock.momentum)
        elif name == "p_over_omega":
            mat = np.kron(self.basis.d_mat[:m, :m], np.eye(sp.n_ph)) / sp.omega
        elif name == "energy":
            mat = build_model("projected" if truncated else "exact", self.basis, sp, 0.0)
        else:
            raise MissingContext(f"unknown observable {name!r}")
        self._cache[key] = mat
        return mat

    @cached_property
    def _p_rows_r01(self) -> np.ndarray:
        """P R_01, the P rows of the Coulomb-to-dipole rotation."""
        return rotation(0.0, 1.0, self.basis, self.space)[: self.space.sub_dim]

    def represent(self, name: str, frame: str) -> np.ndarray:
        """Matrix of the named observable under the `FRAME_TAGS` label `frame`,
        cached per pair."""
        if frame not in FRAME_TAGS:
            raise MissingContext(f"unknown frame {frame!r}; expected one of {FRAME_TAGS}")
        key = ("rep", name, frame)
        if key not in self._cache:
            if frame == DIPOLE_TRUNCATED:
                s = self._p_rows_r01
                rep = s @ self._real_factor(name, truncated=False) @ s.T
            else:
                rep = self._real_factor(name, truncated=frame != EXACT_COULOMB)
            self._cache[key] = -1j * rep if name == "p_over_omega" else rep
        return self._cache[key]


def boltzmann_weights(energies: np.ndarray, temperature: float) -> np.ndarray:
    """Normalized exp(-(E-E0)/T); T = 0 selects the ground state."""
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
    w = np.zeros(len(energies))
    if temperature == 0:
        w[0] = 1.0
        return w
    w = np.exp(-(energies - energies[0]) / temperature)
    return w / w.sum()


def thermal_average(obs, frame: str, context: FrameContext,
                    eigensystem: EigenSystem, temperatures: Sequence[float]) -> list:
    """tr(rho_T rep) for each T, rho_T the Gibbs state over the eigensystem's space.

    A temperature above zero needs the full spectrum (SpaceMismatch on a
    partial set); T = 0 reads only the ground state.  Temperatures are quoted
    in energy units with the Boltzmann constant set to one; with omega0 = 1
    that is units of the mode frequency.  All of them share one pass over
    the states.
    """
    if eigensystem.count < eigensystem.dim and any(t > 0 for t in temperatures):
        raise SpaceMismatch(f"a Gibbs sum above T = 0 needs all {eigensystem.dim} "
                            f"eigenpairs, have {eigensystem.count}")
    diag = eigensystem.expectations(context.represent(obs, frame))
    return [float(boltzmann_weights(eigensystem.energies, t) @ diag)
            for t in temperatures]


def transition_energies(eigensystem: EigenSystem, count: int, omega: float) -> np.ndarray:
    """First `count` normalized transition energies (E_i - E_0)/omega."""
    if eigensystem.count < count + 1:
        raise SpaceMismatch(f"need {count + 1} levels, have {eigensystem.count}")
    return (eigensystem.energies[1 : count + 1] - eigensystem.energies[0]) / omega


# ---------------------------------------------------------------------------
# Convergence escalation
# ---------------------------------------------------------------------------

CELL_FLOOR = 1e-12  # the least magnitude a cell counts as when compared (see converge)


@dataclass
class ConvergenceReport:
    """Cutoffs tried and the row computed at each; the last two rows agree to `rtol`."""

    cutoffs: list
    values: list
    rtol: float


def converge(compute: Callable[[int, int], float | Sequence[float]],
             schedule: Sequence[tuple[int, int]],
             rtol: float = 1e-6) -> ConvergenceReport:
    """Escalate (n_mat, n_ph) until two successive rows agree in every cell.

    `compute(n_mat, n_ph)` gives a row of values; a scalar is a one-cell row.
    A cell settles when it moves by at most `rtol` times the larger of its
    two magnitudes and CELL_FLOOR = 1e-12.  So a cell that vanishes (rounding
    noise of 1e-28 at eta = 0) meets the absolute floor rtol * 1e-12, far
    below the smallest physical cell a figure writes (6.5e-5 omega).  Raises
    CutoffCeiling when the schedule is exhausted unsettled, with the attribute
    `cell`: the index of the cell that moved most, so measured, on the last rung.
    """
    schedule = list(schedule)
    if len(schedule) < 2:
        raise ValueError("schedule needs at least two cutoff points")
    values, tried = [], []
    for cut in schedule:
        tried.append(tuple(cut))
        values.append([float(v) for v in np.atleast_1d(compute(*cut))])
        if len(values) >= 2:
            scale = np.maximum(np.abs(values[-2:]).max(axis=0), CELL_FLOOR)
            moves = np.abs(np.subtract(*values[-2:])) / scale
            if moves.max() <= rtol:
                return ConvergenceReport(tried, values, rtol)
    exc = CutoffCeiling(f"not converged to rtol={rtol:g} within schedule {schedule}; "
                        f"the worst cell moved {moves.max():.3g} relative on the last rung")
    exc.cell = int(moves.argmax())
    raise exc
