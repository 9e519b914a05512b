"""Gap-resolved Lindblad dynamics for a zero-temperature flat bath.

The dissipator uses eigenbasis-resolved jump operators: for each cluster of
equal transition gaps E (grouped within `gap_tol`),

    O^+(E) = sum_{i>j, E_i-E_j = E} <i|O|j> |i><j|,   O^-(E) = (O^+(E))^dag,

and rho' = -i[H, rho] + kappa * sum_E [O^- rho O^+ - {O^+ O^-, rho}/2].
Only strictly positive gaps enter, so jumps are purely downward.

Everything lives in the truncated eigenbasis of the chosen model; downward-
only jumps never repopulate dropped levels provided the initial state is
supported on the kept block.  This module holds the closed forms the figures
read, `decay_rate` and `first_excited_population`.  The master equation
itself (jump operators, generator, integration, stationary states) is the
reference the tests hold them to, in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import EigenSystem
from .errors import DegenerateGapAmbiguity, DimensionMismatch


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
                     gap_tol: float) -> LindbladSystem:
    """Project a state-space coupling operator into the eigenbasis of `es`.

    `gap_tol` is absolute, in the units of the energies.
    """
    if coupling_matrix.shape != (es.dim, es.dim):
        raise DimensionMismatch(
            f"coupling shape {coupling_matrix.shape} != ({es.dim}, {es.dim})")
    v = es.states
    tilde = v.conj().T @ coupling_matrix @ v
    tilde = (tilde + tilde.conj().T) / 2
    return LindbladSystem(energies=es.energies.copy(), coupling=tilde,
                          kappa=kappa, gap_tol=gap_tol)


def decay_rate(sys: LindbladSystem, i: int) -> float:
    """Total downward channel rate kappa * sum_{E_j < E_i} |<j|O|i>|^2."""
    if not 0 < i < sys.n_lev:
        raise ValueError("initial index must satisfy 0 < i < n_lev")
    down = sys.energies[i] - sys.energies[:i] > sys.gap_tol
    amps = sys.coupling[:i, i][down]
    return float(sys.kappa * np.sum(np.abs(amps) ** 2))


def first_excited_rate(sys: LindbladSystem) -> float:
    """decay_rate(sys, 1), refused when level 1 is degenerate with level 2.

    Raises DegenerateGapAmbiguity when E_2 - E_1 <= gap_tol: level 1 is then
    not unique, and a gap cluster couples it to its partner.
    """
    gap = sys.energies[2] - sys.energies[1]
    if gap <= sys.gap_tol:
        raise DegenerateGapAmbiguity(
            f"levels 1 and 2 are {gap:.3g} apart, within gap_tol = "
            f"{sys.gap_tol:.3g}; the first excited eigenstate is not unique")
    return decay_rate(sys, 1)


def first_excited_population(sys: LindbladSystem, times) -> np.ndarray:
    """Population of level 1 after starting in |1><1|: exp(-Gamma_1 t).

    A non-degenerate |1> jumps only to |0> and no gap cluster couples it to
    another level, so the state stays (1 - p)|0><0| + p|1><1| exactly.
    """
    return np.exp(-first_excited_rate(sys) * np.asarray(times, dtype=float))
