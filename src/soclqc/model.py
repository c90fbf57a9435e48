"""Conic program representation and second-order cone modeling helpers.

A program is a convex quadratic objective ``||F x||^2 + c^T x`` over real
variables subject to cone blocks, the quadratic part held as its factor F
(so ``P = F^T F`` needs no check).  Each block is an affine map of the
variables into R^{d},

    (head, tail) = (c^T x + d0, A x + b),

required to satisfy ``head >= ||tail||_2``: d alone names the cone, d = 1
(no tail) being the nonnegative ray.  There are no equality rows; a builder
poses its program in their null space.  Hyperbolic constraints are lowered
onto this form with the classical transform of Lobo et al. (1998).

:class:`ConicProgram` holds all blocks as one slack map ``h - G x`` in the
layout the solver works on.  :class:`ConicProgramBuilder` takes coefficient
rows only: stacks of k blocks of dimension d, with ``A`` of shape (k, d, w)
over the w variables that exist when they are added, which it sorts into
that layout once, in :meth:`ConicProgramBuilder.build`.  Applications emit
whole stacks with :meth:`ConicProgramBuilder.add_block_rows`;
:func:`hyperbolic_rows` forms the stack of per-coordinate hyperbolic blocks
that the S-lemma needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

class DimensionMismatch(ValueError):
    """Shapes of supplied matrices/vectors are inconsistent."""


class NotPositiveDefinite(ValueError):
    """A matrix required to be positive definite is not."""


def check_finite(**arrays) -> None:
    """Raise ``ValueError`` naming the first argument with a non-finite entry."""
    for name, value in arrays.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")


def unit_rows(indices, num_vars: int) -> np.ndarray:
    """Coefficient rows ``(len, num_vars)`` selecting the given variables."""
    indices = np.atleast_1d(indices)
    rows = np.zeros((len(indices), num_vars))
    rows[np.arange(len(indices)), indices] = 1.0
    return rows


def _stack_rows(mats, num_vars: int) -> np.ndarray:
    """The rows of 2-D matrices, padded with zero columns to num_vars, stacked."""
    out = np.zeros((sum(len(M) for M in mats), num_vars))
    row = 0
    for M in mats:
        out[row : row + len(M), : M.shape[1]] = M
        row += len(M)
    return out


@dataclass(frozen=True)
class ConeBlock:
    """View of one cone block ``(A @ x + b) in cone``; row 0 is the head."""

    A: np.ndarray
    b: np.ndarray
    tag: str = ""

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ConicProgram:
    """Immutable conic program ``min ||obj_F x||^2 + obj^T x + obj_offset``
    subject to ``h - G x in K``.

    K is laid out as the solver works on it: ``nn`` nonnegative rows first,
    then for each ``(k, d)`` in ``soc`` (increasing d) k second-order blocks
    of dimension d, block after block, head first.  ``tags`` names the
    blocks in that order.  Every entry of the data must be finite.
    ``obj_F``, ``G`` and ``h`` are made read-only, so one program can be
    shared by concurrent solves.
    """

    obj: np.ndarray  # one entry per variable
    obj_offset: float
    obj_F: np.ndarray  # (r, num_vars); r = 0 for a linear objective
    G: np.ndarray
    h: np.ndarray
    nn: int
    soc: tuple[tuple[int, int], ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if self.obj.ndim != 1:
            raise DimensionMismatch("objective must be a vector")
        if self.obj_F.ndim != 2 or self.obj_F.shape[1] != self.num_vars:
            raise DimensionMismatch("objective factor needs num_vars columns")
        if self.h.ndim != 1 or self.G.shape != (len(self.h), self.num_vars):
            raise DimensionMismatch("cone rows G, h shapes inconsistent")
        if any(k < 1 or d < 2 for k, d in self.soc):
            raise DimensionMismatch("second-order groups need k >= 1 blocks of dimension d >= 2")
        if self.nn < 0 or self.nn + sum(k * d for k, d in self.soc) != len(self.h):
            raise DimensionMismatch("cone layout does not match the cone rows")
        if len(self.tags) != self.nn + sum(k for k, _ in self.soc):
            raise DimensionMismatch("cone layout needs one tag per block")
        check_finite(obj=self.obj, obj_offset=self.obj_offset, obj_F=self.obj_F, G=self.G,
                     h=self.h)
        for a in (self.obj_F, self.G, self.h):
            a.setflags(write=False)

    @property
    def num_vars(self) -> int:
        return len(self.obj)

    @property
    def blocks(self) -> tuple[ConeBlock, ...]:
        """One view per block, in layout order."""
        dims = [1] * self.nn + [d for k, d in self.soc for _ in range(k)]
        A, h = -self.G, self.h
        return tuple(ConeBlock(A[end - d : end], h[end - d : end], tag)
                     for d, end, tag in zip(dims, np.cumsum(dims).tolist(), self.tags))


class ConicProgramBuilder:
    """Incrementally assembles a :class:`ConicProgram`.

    Rows are stored as stacks of cone blocks ``(A (k, d, w), b (k, d),
    tags)``, where w is the variable count when they were added.
    :meth:`build` pads every stack with zero columns to the final variable
    count, so variables may be added after the rows that precede them, and
    sorts the stacks into the program's layout.
    Single rows are stacks of one, e.g. ``x[i] >= 0`` is
    ``add_block_rows(unit_rows([i], num_vars)[:, None], [[0.0]])``.
    """

    def __init__(self):
        self._num_vars = 0
        self._obj = (np.zeros(0), 0.0, np.zeros((0, 0)))
        self._blocks: list[tuple[np.ndarray, np.ndarray, list[str]]] = []

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def add_var(self) -> int:
        self._num_vars += 1
        return self._num_vars - 1

    def add_vars(self, n: int) -> np.ndarray:
        idx = np.arange(self._num_vars, self._num_vars + n)
        self._num_vars += n
        return idx

    def set_objective_row(self, c, offset: float = 0.0, F=None) -> None:
        """Objective ``||F x[:w]||^2 + c @ x[:len(c)] + offset``; the factor
        ``F`` is (r, w) over the first w <= num_vars variables (none: a
        linear objective)."""
        c = np.array(c, dtype=float)
        F = np.zeros((0, 0)) if F is None else np.array(F, dtype=float)
        if c.ndim != 1 or len(c) > self._num_vars:
            raise DimensionMismatch("objective row longer than the variable count")
        if F.ndim != 2 or F.shape[1] > self._num_vars:
            raise DimensionMismatch(f"objective factor needs F (r, w <= {self._num_vars})")
        self._obj = (c, float(offset), F)

    def add_block_rows(self, A, b, tag: str | Sequence[str] = "") -> None:
        """Append k cone blocks ``A[i] @ x + b[i]`` of dimension d.

        ``A`` is (k, d, w) over the first w <= num_vars variables and ``b`` is
        (k, d); ``tag`` is one string for all k blocks or k strings.  d = 1
        gives nonnegative rows and d >= 2 second-order blocks.
        """
        A = np.array(A, dtype=float)
        b = np.array(b, dtype=float)
        if A.ndim != 3 or b.shape != A.shape[:2] or A.shape[1] < 1 or A.shape[2] > self._num_vars:
            raise DimensionMismatch(
                f"row blocks need A (k, d >= 1, w <= {self._num_vars}) and b (k, d); "
                f"got {A.shape} and {b.shape}"
            )
        k = len(A)
        tags = [tag] * k if isinstance(tag, str) else [str(t) for t in tag]
        if len(tags) != k:
            raise DimensionMismatch(f"{len(tags)} tags for {k} blocks")
        self._blocks.append((A, b, tags))

    def build(self) -> ConicProgram:
        n = self._num_vars
        c, offset, F = self._obj
        # sorted by d, stably: stacks of one dimension keep their added order
        stacks = sorted(self._blocks, key=lambda stack: stack[0].shape[1])
        counts: dict[int, int] = {}
        for A, _, tags in stacks:
            counts[A.shape[1]] = counts.get(A.shape[1], 0) + len(tags)
        nn = counts.pop(1, 0)
        rows = [A.reshape(len(A) * A.shape[1], A.shape[2]) for A, _, _ in stacks]  # w may be 0
        return ConicProgram(
            _stack_rows([c[None]], n)[0], offset, _stack_rows([F], n), -_stack_rows(rows, n),
            np.concatenate([np.zeros(0), *(b.ravel() for _, b, _ in stacks)]),
            nn, tuple((k, d) for d, k in counts.items() if k),
            tuple(t for *_, tags in stacks for t in tags),
        )


def hyperbolic_rows(head_A, head_b, y_A, y_b, z_A, z_b) -> tuple[np.ndarray, np.ndarray]:
    """Row blocks for k hyperbolic constraints ``||head_i||^2 <= y_i * z_i``.

    Block i is ``[y_i + z_i; 2 head_i; y_i - z_i]``, the second-order form
    ``||(2 head, y - z)|| <= y + z`` (which implies y, z >= 0).  Heads are
    scalar rows ``head_A`` (k, w) with constants (k,), or vectors (k, m, w)
    with (k, m); ``y`` and ``z`` are (k, w) rows with (k,) constants.
    Returns ``A`` (k, m + 2, w) and ``b`` (k, m + 2) for
    :meth:`ConicProgramBuilder.add_block_rows`.
    """
    head_A = np.asarray(head_A, dtype=float)
    head_b = np.asarray(head_b, dtype=float)
    if head_A.ndim == 2:
        head_A, head_b = head_A[:, None], head_b[:, None]
    k, m, w = head_A.shape
    y_A, y_b, z_A, z_b = (np.asarray(v, dtype=float) for v in (y_A, y_b, z_A, z_b))
    if head_b.shape != (k, m) or not y_A.shape == z_A.shape == (k, w) or not (
        y_b.shape == z_b.shape == (k,)
    ):
        raise DimensionMismatch("hyperbolic rows: head, y and z shapes inconsistent")
    A = np.empty((k, m + 2, w))
    b = np.empty((k, m + 2))
    A[:, 0], b[:, 0] = y_A + z_A, y_b + z_b
    A[:, 1:-1], b[:, 1:-1] = 2.0 * head_A, 2.0 * head_b
    A[:, -1], b[:, -1] = y_A - z_A, y_b - z_b
    return A, b


def cholesky_factor(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of a positive-definite matrix.

    Raises :class:`NotPositiveDefinite` when the smallest pivot falls at or
    below ``1e-12 * ||M||``.
    """
    M = np.asarray(M, dtype=float)
    try:
        L = np.linalg.cholesky(0.5 * (M + M.T))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name} is not positive definite") from exc
    scale = np.linalg.norm(M)
    if np.min(np.diag(L)) ** 2 <= 1e-12 * scale:
        raise NotPositiveDefinite(f"{name} has a near-zero Cholesky pivot")
    return L


def psd_sqrt_factor(M: np.ndarray) -> np.ndarray:
    """Matrix F with F^T F = M for symmetric PSD M, via eigendecomposition.

    Eigenvalues in [-1e-10 * max(1, ||M||), 0) are clamped to zero; lower raise.
    """
    M = 0.5 * (np.asarray(M, dtype=float) + np.asarray(M, dtype=float).T)
    vals, vecs = np.linalg.eigh(M)
    floor = -1e-10 * max(1.0, np.linalg.norm(M))
    if np.min(vals) < floor:
        raise NotPositiveDefinite("matrix has a significantly negative eigenvalue")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T
