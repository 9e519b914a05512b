"""Photonic mode operators and the matter (x) photon product space.

Ordering convention: matter index major, photon index minor, i.e. the
composite basis state (mu, n) sits at flat index mu*n_ph + n.  With that
ordering the material-truncation projector P (lowest m_levels matter states)
selects the leading contiguous block, so restriction to the truncated space
is a plain slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class ModeSpec:
    """Single photonic mode: frequency, mode volume, Fock cutoff."""

    omega: float
    volume: float = 1.0
    n_ph: int = 40

    def validate(self) -> None:
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.volume <= 0:
            raise ValueError("volume must be positive")
        if self.n_ph < 8:
            raise ValueError("n_ph must be at least 8")


@dataclass(frozen=True)
class FockOperators:
    """Dense n_ph x n_ph matrices for one mode.

    `a_dag` is the exact transpose of `a`; `amplitude` and `momentum` are the
    vector-potential and conjugate-field quadratures (a+a^dag)/sqrt(2*omega*v)
    and i*sqrt(omega/2v)*(a^dag-a); `h_ph` = omega*(a^dag a + 1/2).
    """

    a: np.ndarray
    a_dag: np.ndarray
    amplitude: np.ndarray
    momentum: np.ndarray
    h_ph: np.ndarray


def fock_operators(mode: ModeSpec) -> FockOperators:
    mode.validate()
    n = mode.n_ph
    a = np.diag(np.sqrt(np.arange(1, n)), 1)
    a_dag = a.T.copy()
    amp = (a + a_dag) / np.sqrt(2 * mode.omega * mode.volume)
    mom = 1j * np.sqrt(mode.omega / (2 * mode.volume)) * (a_dag - a)
    h_ph = mode.omega * (a_dag @ a + 0.5 * np.eye(n))
    return FockOperators(a=a, a_dag=a_dag, amplitude=amp, momentum=mom, h_ph=h_ph)


@dataclass(frozen=True)
class CompositeSpace:
    """Dimension bookkeeping for the matter (x) photon space.

    `m_levels` = M+1 is the number of retained matter levels of the
    truncation projector; `charge` is fixed by the dimensionless coupling
    through q = eta*sqrt(2*omega*volume)/x10.
    """

    n_mat: int
    n_ph: int
    m_levels: int
    eta: float
    charge: float
    omega: float
    volume: float
    x10: float

    @classmethod
    def create(cls, n_mat: int, mode: ModeSpec, m_levels: int, eta: float,
               x10: float) -> "CompositeSpace":
        mode.validate()
        if not 1 <= m_levels <= n_mat:
            raise ValueError("m_levels must satisfy 1 <= m_levels <= n_mat")
        if eta < 0:
            raise ValueError("eta must be nonnegative")
        charge = eta * np.sqrt(2 * mode.omega * mode.volume) / x10
        return cls(n_mat=n_mat, n_ph=mode.n_ph, m_levels=m_levels, eta=eta,
                   charge=charge, omega=mode.omega, volume=mode.volume, x10=x10)

    @property
    def dim(self) -> int:
        return self.n_mat * self.n_ph

    @property
    def sub_dim(self) -> int:
        """Dimension of the truncated (P) block."""
        return self.m_levels * self.n_ph

    def mode(self) -> ModeSpec:
        return ModeSpec(omega=self.omega, volume=self.volume, n_ph=self.n_ph)


@dataclass(frozen=True)
class CompositeOperator:
    """Dense operator on the composite (or truncated-composite) space."""

    matrix: np.ndarray
    n_mat: int
    n_ph: int
    hermitian: bool = False
    _skip_check: bool = field(default=False, repr=False)

    def __post_init__(self):
        d = self.n_mat * self.n_ph
        if self.matrix.shape != (d, d):
            raise DimensionMismatch(
                f"matrix shape {self.matrix.shape} != ({d}, {d})")
        if self.hermitian and not self._skip_check:
            dev = np.abs(self.matrix - self.matrix.conj().T).max()
            if dev > HERMITIAN_TOL:
                raise ValueError(f"hermitian flag set but deviation {dev:.3e}")

    @property
    def dim(self) -> int:
        return self.n_mat * self.n_ph

    def to_json_dict(self) -> dict:
        pairs = np.stack([self.matrix.real, self.matrix.imag], axis=-1)
        return {"n_mat": self.n_mat, "n_ph": self.n_ph,
                "hermitian": self.hermitian, "matrix": pairs.tolist()}


def embed(op: np.ndarray, space: CompositeSpace, kind: str | None = None) -> CompositeOperator:
    """Kronecker-embed a matter or photon operator into the composite space.

    The factor is inferred from the operand dimension; pass `kind` ("matter"
    or "photon") explicitly when n_mat == n_ph makes that ambiguous.
    """
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DimensionMismatch(f"operand must be square, got {op.shape}")
    n = op.shape[0]
    if kind is None:
        if n == space.n_mat and n == space.n_ph:
            raise DimensionMismatch(
                "n_mat == n_ph: pass kind='matter' or kind='photon'")
        if n == space.n_mat:
            kind = "matter"
        elif n == space.n_ph:
            kind = "photon"
        else:
            raise DimensionMismatch(
                f"operand dim {n} matches neither n_mat={space.n_mat} nor n_ph={space.n_ph}")
    if kind == "matter":
        if n != space.n_mat:
            raise DimensionMismatch(f"matter operand dim {n} != {space.n_mat}")
        full = np.kron(op, np.eye(space.n_ph))
    elif kind == "photon":
        if n != space.n_ph:
            raise DimensionMismatch(f"photon operand dim {n} != {space.n_ph}")
        full = np.kron(np.eye(space.n_mat), op)
    else:
        raise ValueError("kind must be 'matter' or 'photon'")
    herm = bool(np.abs(op - op.conj().T).max() <= HERMITIAN_TOL)
    return CompositeOperator(full, space.n_mat, space.n_ph, hermitian=herm,
                             _skip_check=True)


def projector(space: CompositeSpace) -> tuple[CompositeOperator, CompositeOperator]:
    """Material truncation projector P onto the lowest m_levels, and Q = I - P."""
    diag = np.zeros(space.dim)
    diag[: space.sub_dim] = 1.0
    p = np.diag(diag)
    q = np.eye(space.dim) - p
    return (CompositeOperator(p, space.n_mat, space.n_ph, hermitian=True, _skip_check=True),
            CompositeOperator(q, space.n_mat, space.n_ph, hermitian=True, _skip_check=True))


def restrict(matrix: np.ndarray, space: CompositeSpace) -> np.ndarray:
    """P-block of a full-space matrix as a sub_dim x sub_dim array."""
    d = space.sub_dim
    if matrix.shape != (space.dim, space.dim):
        raise DimensionMismatch(
            f"matrix shape {matrix.shape} != ({space.dim}, {space.dim})")
    return matrix[:d, :d].copy()


def lift(vec: np.ndarray, space: CompositeSpace) -> np.ndarray:
    """Pad a truncated-space vector with zeros up to the full dimension."""
    if vec.shape != (space.sub_dim,):
        raise DimensionMismatch(f"vector shape {vec.shape} != ({space.sub_dim},)")
    out = np.zeros(space.dim, dtype=complex)
    out[: space.sub_dim] = vec
    return out
