"""Simultaneous diagonalization and S-lemma constraint generation.

The robust quadratic constraint

    z^T D z + 2 e^T z + f >= 0   for all z with  z^T A z + 2 b^T z + c >= 0

admits, under a strict feasibility (Slater) point of the inner set, the
classical certificate: some multiplier lam >= 0 makes the bordered matrix

    [[D - lam*A, e - lam*b], [(e - lam*b)^T, f - lam*c]]

positive semidefinite.  When A and D are simultaneously diagonalizable by a
congruence S, that matrix inequality collapses to one linear constraint plus
per-coordinate hyperbolic constraints, which is what
:func:`emit_simplified_slemma` appends to a conic program.  For positive
definite A, :func:`simultaneous_diagonalize` finds S by one LAPACK ``dsygvd``
call, the Cholesky reduction of the generalized eigenproblem (by one
``dsyevd`` when A is the identity), with the diagonal of S^T D S ascending.
The bordered matrix itself is kept purely as a numerical verification
oracle (:func:`assemble_classical_lmi` + :func:`check_psd`); it is never
solved as a semidefinite program.
:func:`assemble_classical_lmi` is the package's only layout of it: the
robust LQC certificate (``lqc.robust_certificate_matrix``) is the same
matrix of a lifted pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import (
    ConicProgramBuilder,
    DimensionMismatch,
    NotPositiveDefinite,
    hyperbolic_rows,
    unit_rows,
)


class DegenerateInput(ValueError):
    """Empty or structurally unusable input."""


def symmetrize(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    scale = max(1.0, np.linalg.norm(M))
    if np.linalg.norm(M - M.T) > 1e-12 * scale * M.shape[0] * 100:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class QuadForm:
    """Quadratic function z -> z^T A z + 2 b^T z + c."""

    A: np.ndarray
    b: np.ndarray
    c: float

    def __post_init__(self):
        object.__setattr__(self, "A", symmetrize(self.A))
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        object.__setattr__(self, "c", float(self.c))
        if self.A.shape[0] != self.b.shape[0]:
            raise DimensionMismatch("QuadForm: A and b dimensions differ")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @staticmethod
    def ball(radius: float, dim: int) -> "QuadForm":
        """The set ||z|| <= radius written as radius^2 - z^T z >= 0."""
        if not 0 < radius < np.inf:
            raise ValueError(f"radius must be positive and finite, got {radius!r}")
        return QuadForm(-np.eye(dim), np.zeros(dim), radius**2)


@dataclass(frozen=True)
class SimulDiag:
    """Congruence S with S^T A S = diag(alpha) and S^T D S = diag(delta)."""

    S: np.ndarray
    alpha: np.ndarray
    delta: np.ndarray

    @property
    def dim(self) -> int:
        return self.S.shape[0]


def simultaneous_diagonalize(A: np.ndarray, D: np.ndarray) -> SimulDiag:
    """Diagonalize the pair (A, D) by a single congruence, A positive definite.

    This is the symmetric-definite generalized eigenproblem D s = delta A s,
    solved by one LAPACK ``dsygvd`` call: with A = L L^T and L^{-1} D L^{-T}
    = Q diag(delta) Q^T, the congruence S = L^{-T} Q gives S^T A S = I and
    S^T D S = diag(delta) (Golub & Van Loan, *Matrix Computations*, 8.7).
    delta comes in ascending order.  S S^T = A^{-1}, so cond(S) =
    sqrt(cond(A)); the positive-definiteness guard, which needs
    lambda_min(A) > 1e-10 max(1, ||A||_F) >= 1e-10 lambda_max(A), keeps it
    below 1e5.  For the identity, the A of every LQC ball pair, the problem
    is the plain one D s = delta s, solved by ``np.linalg.eigh`` (``dsyevd``)
    with no guard and no Cholesky reduction; S is then orthogonal.
    """
    A = symmetrize(A)
    D = symmetrize(D)
    n = A.shape[0]
    if n == 0:
        raise DegenerateInput("empty matrix pair")
    if D.shape[0] != n:
        raise DimensionMismatch("A and D sizes differ")
    if np.array_equal(A, np.eye(n)):
        # the pair of every LQC ball: a plain symmetric eigenproblem
        delta, S = np.linalg.eigh(D)
    else:
        evals_a = np.linalg.eigvalsh(A)
        if evals_a[0] <= 1e-10 * max(1.0, np.linalg.norm(A)):
            raise NotPositiveDefinite("first matrix of the pair must be positive definite")
        delta, S = scipy.linalg.eigh(D, A)
    # row-major S: the builders' products with S^T depend on its layout in
    # their last bits
    return SimulDiag(np.ascontiguousarray(S), np.ones(n), delta)


@dataclass(frozen=True)
class SLemmaBlock:
    """Record of the variables appended by the emitter."""

    lambda_index: int
    t_indices: np.ndarray


def emit_simplified_slemma(inner: QuadForm, e_rows, f_rows, sd: SimulDiag,
                           builder: ConicProgramBuilder) -> SLemmaBlock:
    """Append the certificate for the robust constraint

        z^T D z + 2 e(x)^T z + f(x) >= 0  for all z in {inner(z) >= 0}

    where e(x) = E x + e0 and f(x) = f_row @ x + f0 are affine in the program
    variables, given as ``e_rows = (E, e0)`` with E (n, w) and
    ``f_rows = (f_row, f0)`` with f_row (w,), both over the first
    w <= num_vars variables, and ``sd`` diagonalizes the numeric pair
    (inner.A, D), so D enters through ``sd`` alone.  Appends fresh lam >= 0
    and t variables, the row f(x) - lam*c >= sum(t), and one hyperbolic
    block per coordinate:

        ([S^T e(x)]_i - lam*[S^T b]_i)^2 <= t_i * (delta_i - lam*alpha_i).

    Feasible assignments of the enlarged program project exactly onto the
    x satisfying the robust constraint (given a Slater point of the inner
    set, which the caller asserts).
    """
    n = inner.dim
    if sd.dim != n:
        raise DimensionMismatch("forms and diagonalization disagree in size")
    E, e0 = (np.atleast_1d(np.asarray(v, dtype=float)) for v in e_rows)
    f_row, f0 = np.atleast_1d(np.asarray(f_rows[0], dtype=float)), float(f_rows[1])
    if (E.ndim != 2 or E.shape[0] != n or e0.shape != (n,) or f_row.ndim != 1
            or max(E.shape[1], len(f_row)) > builder.num_vars):
        raise DimensionMismatch("linear-term rows need E (n, w), e0 (n,) and f_row (w,) "
                                "with w <= num_vars")
    if np.allclose(inner.b, 0.0) and inner.c <= 0.0:
        raise DegenerateInput("inner set has no Slater point at the origin")

    lam_idx = builder.add_var()
    t_idx = builder.add_vars(n)
    w = builder.num_vars

    # lam >= 0 and the budget f(x) - lam*c - sum(t) >= 0
    rows = np.zeros((2, w))
    rows[0, lam_idx] = 1.0
    rows[1, : len(f_row)] = f_row
    rows[1, lam_idx] = -inner.c
    rows[1, t_idx] = -1.0
    builder.add_block_rows(rows[:, None], np.array([[0.0], [f0]]))

    # head_i = [S^T e(x)]_i - lam*[S^T b]_i, slack_i = delta_i - lam*alpha_i
    heads = np.zeros((n, w))
    heads[:, : E.shape[1]] = E
    heads = sd.S.T @ heads
    heads[:, lam_idx] -= sd.S.T @ inner.b
    slacks = np.zeros((n, w))
    slacks[:, lam_idx] = -sd.alpha
    A, b = hyperbolic_rows(heads, sd.S.T @ e0, unit_rows(t_idx, w), np.zeros(n), slacks, sd.delta)
    builder.add_block_rows(A, b)
    return SLemmaBlock(lam_idx, t_idx)


def assemble_classical_lmi(
    inner: QuadForm, D: np.ndarray, e: np.ndarray, f: float, lam: float
) -> np.ndarray:
    """Bordered matrix of the classical S-lemma at a numeric multiplier."""
    D = symmetrize(D)
    e = np.atleast_1d(np.asarray(e, dtype=float))
    n = inner.dim
    if D.shape[0] != n or e.shape[0] != n:
        raise DimensionMismatch("outer form dimensions disagree with inner")
    M = np.empty((n + 1, n + 1))
    M[:n, :n] = D - lam * inner.A
    M[:n, n] = e - lam * inner.b
    M[n, :n] = e - lam * inner.b
    M[n, n] = f - lam * inner.c
    return M


def psd_margin(M: np.ndarray) -> tuple[float, float]:
    """The smallest eigenvalue of M's symmetric part and the scale
    1 + ||M||_F that :func:`check_psd` measures it against."""
    M = np.asarray(M, dtype=float)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0]), 1.0 + float(np.linalg.norm(M))


def check_psd(M: np.ndarray, tol: float = 1e-7) -> bool:
    """True iff the smallest eigenvalue is >= -tol * (1 + ||M||_F)."""
    lam_min, scale = psd_margin(M)
    return lam_min >= -tol * scale
