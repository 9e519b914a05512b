"""Photonic mode operators and the matter (x) photon product space.

Ordering convention: matter index major, photon index minor, i.e. the
composite basis state (mu, n) sits at flat index mu*n_ph + n.  With that
ordering the material-truncation projector P (lowest m_levels matter states)
selects the leading contiguous block: the P-block of a Kronecker product is
the product with its matter factor sliced to the lowest m_levels levels.

Photon phase convention: Fock state |n> carries the phase i^n relative to
the textbook basis, so a = -i*diag(sqrt(n), 1).  The mode amplitude A is
then imaginary while the conjugate field Pi, a^dag a and h_ph are real, and
every Hamiltonian built from them is real symmetric (the Rabi model's
structure; Braak, PRL 107, 100401 (2011)).

The mode normalisation is v = 1: at fixed eta q grows as sqrt(v), so qA, q*Pi,
q^2/v and sqrt(2v/omega)*Pi, and with them every output, are free of v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatch


def _check_mode(n_ph: int, omega: float) -> None:
    """One photonic mode needs a positive frequency and at least 8 Fock states."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    if n_ph < 8:
        raise ValueError("n_ph must be at least 8")


@dataclass(frozen=True)
class FockOperators:
    """Dense n_ph x n_ph matrices for one mode.

    `a_dag` is the exact conjugate transpose of `a`; `amplitude` and
    `momentum` are the vector-potential and conjugate-field quadratures
    (a+a^dag)/sqrt(2*omega) (imaginary) and i*sqrt(omega/2)*(a^dag-a)
    (real); `number` = a^dag a and `h_ph` = omega*(a^dag a + 1/2) are real.
    """

    a: np.ndarray
    a_dag: np.ndarray
    amplitude: np.ndarray
    momentum: np.ndarray
    number: np.ndarray
    h_ph: np.ndarray


def fock_operators(n_ph: int, omega: float) -> FockOperators:
    """The operators of one mode with `n_ph` Fock states and frequency `omega`."""
    _check_mode(n_ph, omega)
    a = -1j * np.diag(np.sqrt(np.arange(1, n_ph)), 1)
    a_dag = a.conj().T
    amp = (a + a_dag) / np.sqrt(2 * omega)
    mom = (1j * np.sqrt(omega / 2) * (a_dag - a)).real
    number = (a_dag @ a).real
    h_ph = omega * (number + 0.5 * np.eye(n_ph))
    return FockOperators(a, a_dag, amp, mom, number, h_ph)


@dataclass(frozen=True)
class CompositeSpace:
    """Dimension bookkeeping for the matter (x) photon space.

    `m_levels` = M+1 is the number of retained matter levels of the
    truncation projector; `charge` is fixed by the dimensionless coupling
    through q = eta*sqrt(2*omega)/x10.
    """

    n_mat: int
    n_ph: int
    m_levels: int
    eta: float
    charge: float
    omega: float
    x10: float

    @classmethod
    def create(cls, n_mat: int, n_ph: int, omega: float, m_levels: int, eta: float,
               x10: float) -> "CompositeSpace":
        _check_mode(n_ph, omega)
        if not 1 <= m_levels <= n_mat:
            raise ValueError("m_levels must satisfy 1 <= m_levels <= n_mat")
        if eta < 0:
            raise ValueError("eta must be nonnegative")
        charge = eta * np.sqrt(2 * omega) / x10
        return cls(n_mat=n_mat, n_ph=n_ph, m_levels=m_levels, eta=eta,
                   charge=charge, omega=omega, x10=x10)

    @property
    def dim(self) -> int:
        return self.n_mat * self.n_ph

    @property
    def sub_dim(self) -> int:
        """Dimension of the truncated (P) block."""
        return self.m_levels * self.n_ph


def lift(vec: np.ndarray, space: CompositeSpace) -> np.ndarray:
    """Pad a truncated-space vector with zeros up to the full dimension, keeping its dtype."""
    if vec.shape != (space.sub_dim,):
        raise SpaceMismatch(f"vector shape {vec.shape} != ({space.sub_dim},)")
    out = np.zeros(space.dim, dtype=vec.dtype)
    out[: space.sub_dim] = vec
    return out
