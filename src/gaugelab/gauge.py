"""Gauge-parametrized Hamiltonians, gauge-fixing conjugations, truncated models.

The gauge family is indexed by one real parameter alpha (0 = Coulomb,
1 = dipole).  On the composite space the exact Hamiltonian reads

    H_alpha = (p - q(1-alpha)A)^2/2 + V(x)
              + (1/2)[(Pi + q*alpha*x)^2 + omega^2 A^2]

assembled from the solved matter matrices: p^2/2 + V(x) enters as the
diagonal of solved energies, x^2 as its true matrix elements, and the cross
terms as Kronecker products.  The charge q carries the Pi-shift so that
conjugation by R = exp[i q (alpha-alpha') x A] maps alpha-representations
exactly onto alpha'-representations (verified numerically by the
cross-construction tests).

Every model kind is one matter block of the same Kronecker-term table
(energies, x, x^2, d/dx): `hamiltonian_blocks` returns its coupling-independent
(H_free, K1, K2), and `assemble` forms H_free + q*K1 + q^2*K2 at the space's
charge.  `build_model` is the two in one call; a caller that sweeps eta (the
Workbench) keeps the blocks.

  * exact:     H_alpha on all n_mat levels.
  * projected: P H_alpha P, i.e. the table on the P-block (lowest m_levels
    states) with the true x^2.
  * standard:  the table on the P-block with x^2 replaced by (PxP)^2; at
    alpha = 1, m_levels = 2 this is the quantum Rabi model.

A rotation inside the truncated space, T = exp[i q (alpha-alpha') PxP A],
gives a unitarily equivalent model, not another gauge: T H T^T has H's
energies and the states T V.  So no kind conjugates by T;
`experiments.Workbench.eigensystem` reads a rotated model off the
eigensystem of the model it rotates.

In the i^n photon basis (see fockspace) every model is real symmetric by
construction: the cross terms pair two imaginary factors (p (x) A, built as
the real D (x) Im A with p = -i*D) or two real ones (x (x) Pi).  R and T are
real orthogonal as well.  `rotation` forms either one densely from per-level
factors, the eigensystems of x and A with one real n_ph x n_ph block per
matter level, and every conjugation is the real product S O S^T.  The
dipole-truncated frame of analysis takes the P rows of R_01.
"""

from __future__ import annotations

import numpy as np

from .errors import ClosedFormNeedsTwoLevels, SpaceMismatch, UnsupportedKind
from .fockspace import CompositeSpace, fock_operators
from .matter1d import MatterBasis

MODEL_KINDS = ("exact", "standard", "projected")


def hamiltonian_blocks(kind: str, alpha: float, basis: MatterBasis,
                       space: CompositeSpace):
    """Coupling-independent (H_free, K1, K2) of a `MODEL_KINDS` model.

    The model is H = H_free + q*K1 + q^2*K2 (see `assemble`).  p = -i*D and
    A are imaginary, so p (x) A = D (x) Im A is built from real factors; A^2
    is real with an imaginary part of exactly zero, which `.real` drops.
    """
    check_space(basis, space)
    if kind not in MODEL_KINDS:
        raise UnsupportedKind(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    m = space.n_mat if kind == "exact" else space.m_levels
    x = basis.x_mat[:m, :m]
    # The P-block of every exact Kronecker term is its matter-block slice; the
    # standard map differs only in squaring PxP instead of slicing x^2.
    x2 = x @ x if kind == "standard" else basis.x2_mat[:m, :m]
    ops = fock_operators(space.n_ph, space.omega)
    eye_m = np.eye(m)
    eye_ph = np.eye(space.n_ph)
    a2 = (ops.amplitude @ ops.amplitude).real
    h_free = np.kron(np.diag(basis.energies[:m]), eye_ph) + np.kron(eye_m, ops.h_ph)
    k1 = -(1 - alpha) * np.kron(basis.d_mat[:m, :m], ops.amplitude.imag) \
        + alpha * np.kron(x, ops.momentum)
    k2 = ((1 - alpha) ** 2 / 2) * np.kron(eye_m, a2) \
        + (alpha**2 / 2) * np.kron(x2, eye_ph)
    return h_free, k1, k2


def assemble(blocks, space: CompositeSpace) -> np.ndarray:
    """H_free + q*K1 + q^2*K2 at the space's charge."""
    h_free, k1, k2 = blocks
    q = space.charge
    return h_free + q * k1 + (q * q) * k2


def check_space(basis: MatterBasis, space: CompositeSpace) -> None:
    """SpaceMismatch unless `basis` solves every matter level `space` keeps."""
    if space.n_mat > basis.n_mat:
        raise SpaceMismatch(
            f"space wants {space.n_mat} matter levels, basis has {basis.n_mat}")


def rotation(alpha: float, alpha_prime: float, basis: MatterBasis,
             space: CompositeSpace, truncated: bool = False) -> np.ndarray:
    """Dense R = exp[i q (alpha-alpha') x (x) A], or T with PxP in place of x.

    Maps alpha-gauge representations to alpha'-gauge ones, O' = R O R^T.
    With x = U diag(lam) U^T, R = (U (x) I) E (U^T (x) I), where
    E[k] = exp(i c lam_k A) is one real orthogonal n_ph x n_ph block per
    level (A is imaginary, so i*A is real antisymmetric); R is real
    orthogonal.
    """
    check_space(basis, space)
    m = space.m_levels if truncated else space.n_mat
    lam_x, u_x = np.linalg.eigh(basis.x_mat[:m, :m])
    lam_a, v_a = np.linalg.eigh(fock_operators(space.n_ph, space.omega).amplitude)
    phases = np.exp(1j * space.charge * (alpha - alpha_prime) * np.outer(lam_x, lam_a))
    e = np.einsum("jm,km,lm->kjl", v_a, phases, v_a.conj(), optimize=True).real
    dim = m * space.n_ph
    return np.einsum("ia,ajl,ka->ijkl", u_x, e, u_x, optimize=True).reshape(dim, dim)


def build_model(kind: str, basis: MatterBasis, space: CompositeSpace,
                alpha: float) -> np.ndarray:
    """Construct one of the catalogued models; see module docstring."""
    return assemble(hamiltonian_blocks(kind, alpha, basis, space), space)


def delta_operator(basis: MatterBasis, space: CompositeSpace) -> np.ndarray:
    """Photon-number discrepancy operator on the two-level block, in closed form.

    Orientation: eta^2 (Px^2P/(PxP)^2 - I) (x) I_ph with (PxP)^-2 read as the
    scalar x10^-2, which equals (projected(1) - standard(1))/omega and, on
    low-photon blocks, P R_01 n R_01^dag P - T_01 n T_01^dag (the tests
    build both routes as references).
    """
    if space.m_levels != 2:
        raise ClosedFormNeedsTwoLevels(
            f"delta operator defined for two retained levels, got {space.m_levels}")
    x2_t = basis.x2_mat[:2, :2]
    return space.eta**2 * np.kron(x2_t / space.x10**2 - np.eye(2),
                                  np.eye(space.n_ph))
