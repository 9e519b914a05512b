"""Eigen-analysis, fidelities, subspace bounds, frame-resolved averages.

A "frame prescription" fixes how an abstract observable (specified by its
Coulomb-gauge matrix O_0 on the full space) is represented when paired with
a given model's eigenvectors:

  exact_gauge(alpha)   R_{0 alpha} O_0 R_{0 alpha}^dag        (full space)
  dipole_truncated     P R_01 O_0 R_01^dag P                  (P-block)
  rotated_correct      T_10 (P R_01 O_0 R_01^dag P) T_10^dag  (P-block)
  rotated_as_coulomb   P O_0 P                                (P-block)
  naive_coulomb        P O_0 P, paired with standard(0) states

`rotated_as_coulomb` deliberately reproduces the identification this
laboratory falsifies: treating the rotated two-level model as if it were a
Coulomb-gauge theory.

Eigensolves exploit a diagonal phase rotation (i^n on the photon index)
under which every catalogued Hamiltonian becomes real symmetric; the solver
detects this, runs the real-symmetric LAPACK path, and rotates back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigh

from .errors import (CutoffCeiling, MissingContext, NotNormalized, SolverFailure,
                     SpaceMismatch)
from .fockspace import CompositeOperator, CompositeSpace, fock_operators, restrict
from .gauge import (ModelSpec, build_h_alpha, build_model,
                    conjugate_by_gauge_unitary, delta_operator)
from .matter1d import MatterBasis

NORMALIZATION_TOL = 1e-10
RESIDUAL_TOL = 1e-9
DEGENERACY_FLAG_GAP = 1e-6  # in units of omega, for sweep-pairing guards


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenpairs of a Hermitian operator (possibly a partial set).

    Vector phases are fixed by making the largest-magnitude component of each
    column real positive.
    """

    energies: np.ndarray
    states: np.ndarray  # column k is the k-th eigenvector
    n_mat: int
    n_ph: int
    model: ModelSpec | None = None

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

    def degenerate_flags(self, omega: float) -> np.ndarray:
        """True where a level's gap to a neighbour is below the pairing guard."""
        gaps = np.diff(self.energies)
        flags = np.zeros(self.count, dtype=bool)
        small = gaps < DEGENERACY_FLAG_GAP * omega
        flags[:-1] |= small
        flags[1:] |= small
        return flags


_PHOTON_PHASES = np.array([1, 1j, -1, -1j])


def _photon_phase_vector(n_mat: int, n_ph: int) -> np.ndarray:
    """i^n on the photon index, looked up because 1j ** n is inexact from n = 100."""
    return np.tile(_PHOTON_PHASES[np.arange(n_ph) % 4], n_mat)


def _fix_phases(states: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(states), axis=0)
    lead = states[idx, np.arange(states.shape[1])]
    phases = np.where(np.abs(lead) > 0, lead / np.abs(lead), 1.0)
    return states * phases.conj()[None, :]


def eigensolve(target, k: int | None = None, n_mat: int | None = None,
               n_ph: int | None = None, check: bool = True) -> EigenSystem:
    """Full or lowest-k eigensystem of a Hermitian model/operator/matrix.

    Contracts verified on the lowest few vectors: residual below
    1e-9*(1+|E|) and orthonormality to 1e-10 (SolverFailure otherwise).
    """
    model = None
    if isinstance(target, ModelSpec):
        model = target
        matrix = target.matrix
        n_mat = target.operator.n_mat
        n_ph = target.operator.n_ph
    elif isinstance(target, CompositeOperator):
        matrix = target.matrix
        n_mat, n_ph = target.n_mat, target.n_ph
    else:
        matrix = np.asarray(target)
        if n_mat is None or n_ph is None:
            n_mat, n_ph = matrix.shape[0], 1

    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or dim != n_mat * n_ph:
        raise SpaceMismatch(f"matrix shape {matrix.shape} vs n_mat*n_ph = {n_mat * n_ph}")

    phase = _photon_phase_vector(n_mat, n_ph)
    rotated = (phase[:, None] * matrix) * phase.conj()[None, :]
    scale = max(1.0, float(np.abs(rotated.real).max()))
    use_real = float(np.abs(rotated.imag).max()) < 1e-12 * scale

    work = rotated.real if use_real else matrix
    if k is None:
        energies, states = np.linalg.eigh(work)
    else:
        energies, states = eigh(work, subset_by_index=(0, k - 1))
    if use_real:
        states = phase.conj()[:, None] * states

    states = _fix_phases(states.astype(complex))
    out = EigenSystem(energies=energies, states=states, n_mat=n_mat, n_ph=n_ph,
                      model=model)
    if check:
        m = min(8, out.count)
        probe = EigenSystem(out.energies[:m], out.states[:, :m], n_mat, n_ph)
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


def cs_bound(state: np.ndarray, projector) -> float:
    """Fidelity ceiling ||P state||^2 for any normalized vector in the P-subspace.

    `projector` may be a projector matrix (CompositeOperator or ndarray) or a
    CompositeSpace, in which case the material-truncation block is used.
    """
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"state has norm {norm!r}")
    if isinstance(projector, CompositeSpace):
        seg = state[: projector.sub_dim]
        return float(np.real(np.vdot(seg, seg)))
    mat = projector.matrix if isinstance(projector, CompositeOperator) else np.asarray(projector)
    ps = mat @ state
    return float(np.real(np.vdot(ps, ps)))


# ---------------------------------------------------------------------------
# Observables and frame prescriptions
# ---------------------------------------------------------------------------

OBSERVABLE_NAMES = ("n_et", "gamma", "q_et", "p_over_omega", "energy")

FRAME_TAGS = ("exact_gauge", "dipole_truncated", "rotated_correct",
              "rotated_as_coulomb", "naive_coulomb")


@dataclass(frozen=True)
class Observable:
    """An observable fixed by its Coulomb-gauge matrix on the full space."""

    name: str
    coulomb_matrix: np.ndarray


@dataclass(frozen=True)
class FramePrescription:
    tag: str
    alpha: float | None = None

    def __post_init__(self):
        if self.tag not in FRAME_TAGS:
            raise ValueError(f"unknown frame tag {self.tag!r}")
        if self.tag == "exact_gauge" and self.alpha is None:
            raise ValueError("exact_gauge frame needs alpha")

    @property
    def on_subspace(self) -> bool:
        return self.tag != "exact_gauge"

    @property
    def label(self) -> str:
        if self.tag == "exact_gauge":
            return f"exact_gauge(a={self.alpha:g})"
        return self.tag


def exact_gauge(alpha: float) -> FramePrescription:
    return FramePrescription("exact_gauge", alpha)


DIPOLE_TRUNCATED = FramePrescription("dipole_truncated")
ROTATED_CORRECT = FramePrescription("rotated_correct")
ROTATED_AS_COULOMB = FramePrescription("rotated_as_coulomb")
NAIVE_COULOMB = FramePrescription("naive_coulomb")


class FrameContext:
    """Shared operators for producing observable representations.

    Owns the matter basis and composite space, and caches representations so
    sweeps pay the rotation cost once per (observable, frame) pair.
    """

    def __init__(self, basis: MatterBasis, space: CompositeSpace):
        if space.n_mat > basis.n_mat:
            raise MissingContext(
                f"space wants {space.n_mat} matter levels, basis has {basis.n_mat}")
        self.basis = basis
        self.space = space
        self.fock = fock_operators(space.mode())
        self._cache: dict = {}

    def observable(self, name: str) -> Observable:
        """Built-in observables by name, as Coulomb-gauge full-space matrices."""
        key = ("obs", name)
        if key in self._cache:
            return self._cache[key]
        sp = self.space
        eye_m = np.eye(sp.n_mat)
        if name == "n_et":
            mat = np.kron(eye_m, self.fock.a_dag @ self.fock.a)
        elif name == "gamma":
            pop = np.ones(sp.n_mat)
            pop[0] = 0.0
            mat = np.kron(np.diag(pop), np.eye(sp.n_ph))
        elif name == "q_et":
            mat = np.kron(eye_m, 1j * (self.fock.a_dag - self.fock.a))
        elif name == "p_over_omega":
            mat = np.kron(self.basis.p_mat[: sp.n_mat, : sp.n_mat],
                          np.eye(sp.n_ph)) / sp.omega
        elif name == "energy":
            mat = build_h_alpha(0.0, self.basis, sp).matrix
        else:
            raise MissingContext(f"unknown observable {name!r}")
        obs = Observable(name, mat.astype(complex))
        self._cache[key] = obs
        return obs

    def represent(self, obs: Observable | str, frame: FramePrescription) -> np.ndarray:
        if isinstance(obs, str):
            obs = self.observable(obs)
        key = ("rep", obs.name, frame.tag, frame.alpha)
        if key in self._cache and obs.name != "custom":
            return self._cache[key]
        mat = self._represent(obs, frame)
        if obs.name != "custom":
            self._cache[key] = mat
        return mat

    def _represent(self, obs: Observable, frame: FramePrescription) -> np.ndarray:
        o0 = obs.coulomb_matrix
        basis, space = self.basis, self.space
        if frame.tag == "exact_gauge":
            if frame.alpha == 0.0:
                return o0
            return conjugate_by_gauge_unitary(o0, 0.0, frame.alpha, basis, space)
        if frame.tag in ("rotated_as_coulomb", "naive_coulomb"):
            return restrict(o0, space)
        o1_block = restrict(conjugate_by_gauge_unitary(o0, 0.0, 1.0, basis, space),
                            space)
        if frame.tag == "dipole_truncated":
            return o1_block
        # rotated_correct
        return conjugate_by_gauge_unitary(o1_block, 1.0, 0.0, basis, space,
                                          truncated=True)


def represent(obs, frame: FramePrescription, context: FrameContext) -> np.ndarray:
    """Matrix representation of `obs` under `frame`; see FrameContext."""
    return context.represent(obs, frame)


def average(obs, frame: FramePrescription, context: FrameContext,
            state: np.ndarray) -> float:
    """<state| rep |state>, checked real."""
    rep = context.represent(obs, frame)
    if state.shape != (rep.shape[0],):
        raise SpaceMismatch(
            f"state dim {state.shape} vs representation dim {rep.shape[0]}")
    val = complex(np.vdot(state, rep @ state))
    if abs(val.imag) > 1e-10 * (1.0 + abs(val.real)):
        raise SolverFailure(f"average has imaginary part {val.imag:.3e}")
    return float(val.real)


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


def _diagonal(eigensystem: EigenSystem, matrix: np.ndarray) -> np.ndarray:
    """Real parts of <v_i| matrix |v_i> over the eigenvectors."""
    return np.einsum("ij,jk,ki->i", eigensystem.states.conj().T, matrix,
                     eigensystem.states, optimize=True).real


def thermal_average(obs, frame: FramePrescription, context: FrameContext,
                    eigensystem: EigenSystem, temperature):
    """tr(rho_T rep) with rho_T built from the available eigenpairs.

    Temperatures are quoted in energy units with the Boltzmann constant set
    to one; with omega0 = 1 that is units of the mode frequency.  A sequence
    of temperatures gives a list of averages from one pass over the states.
    """
    rep = context.represent(obs, frame)
    if eigensystem.dim != rep.shape[0]:
        raise SpaceMismatch(
            f"eigensystem dim {eigensystem.dim} vs representation dim {rep.shape[0]}")
    diag = _diagonal(eigensystem, rep)
    if np.ndim(temperature) == 0:
        return float(boltzmann_weights(eigensystem.energies, temperature) @ diag)
    return [float(boltzmann_weights(eigensystem.energies, t) @ diag)
            for t in temperature]


def transition_energies(eigensystem: EigenSystem, count: int, omega: float) -> np.ndarray:
    """First `count` normalized transition energies (E_i - E_0)/omega."""
    if eigensystem.count < count + 1:
        raise SpaceMismatch(f"need {count + 1} levels, have {eigensystem.count}")
    return (eigensystem.energies[1 : count + 1] - eigensystem.energies[0]) / omega


def delta_variation(basis: MatterBasis, space: CompositeSpace, i_max: int,
                    delta_matrix: np.ndarray | None = None,
                    eigensystem: EigenSystem | None = None) -> np.ndarray:
    """<Delta>_i - <Delta>_0 over the standard dipole-truncated eigenstates."""
    if delta_matrix is None:
        delta_matrix = delta_operator(basis, space, "closed").matrix
    if eigensystem is None:
        eigensystem = eigensolve(build_model("standard", basis, space, 1.0),
                                 k=i_max + 1)
    vals = _diagonal(eigensystem, delta_matrix)
    return vals[1 : i_max + 1] - vals[0]


# ---------------------------------------------------------------------------
# Convergence escalation
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    cutoffs: list
    values: list
    converged: bool
    rtol: float

    @property
    def final_cutoffs(self):
        return self.cutoffs[-1]

    @property
    def value(self) -> float:
        return self.values[-1]


def converge(compute: Callable[[int, int], float],
             schedule: Sequence[tuple[int, int]],
             rtol: float = 1e-6) -> ConvergenceReport:
    """Escalate (n_mat, n_ph) until successive target values agree to `rtol`.

    Raises CutoffCeiling when the schedule is exhausted unconverged.
    """
    schedule = list(schedule)
    if len(schedule) < 2:
        raise ValueError("schedule needs at least two cutoff points")
    values: list[float] = []
    tried: list[tuple[int, int]] = []
    for cut in schedule:
        tried.append(tuple(cut))
        values.append(float(compute(*cut)))
        if len(values) >= 2:
            prev, curr = values[-2], values[-1]
            if abs(curr - prev) <= rtol * max(abs(curr), abs(prev), 1e-300):
                return ConvergenceReport(tried, values, True, rtol)
    raise CutoffCeiling(
        f"not converged to rtol={rtol:g} within schedule {schedule}; values={values}")
