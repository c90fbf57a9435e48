"""The simplified S-lemma at work.

A robust quadratic constraint (one quadratic must be nonnegative wherever
another one is) classically certifies via a multiplier making a bordered
matrix positive semidefinite.  When the two quadratic forms diagonalize
under one congruence, that matrix condition collapses to a handful of
scalar hyperbolic constraints -- cheap enough to embed in a cone program.

This script finds the smallest offset f such that

    z' D z + 2 e' z + f >= 0   whenever   z' A z + 2 b' z + c >= 0

by optimizing over the emitted certificate, then cross-checks with a brute
multiplier scan of the bordered matrix.
"""

import numpy as np

from soclqc import (
    ConicProgramBuilder,
    QuadForm,
    assemble_classical_lmi,
    check_psd,
    emit_simplified_slemma,
    simultaneous_diagonalize,
    solve,
)


def main():
    rng = np.random.default_rng(7)
    n = 3
    M = rng.standard_normal((n, n))
    A = M.T @ M + 0.5 * np.eye(n)          # positive definite inner form
    b = rng.standard_normal(n)
    c = -0.8                               # rewards an active multiplier
    lam_true = 1.7
    W = rng.standard_normal((n + 1, n + 1))
    W = W.T @ W + 0.2 * np.eye(n + 1)       # certificate built to be valid
    D = W[:n, :n] + lam_true * A
    e = W[:n, n] + lam_true * b

    inner = QuadForm(A, b, c)
    sd = simultaneous_diagonalize(A, D)
    print("diagonal of S'AS:", np.round(sd.alpha, 9))
    print("diagonal of S'DS:", np.round(sd.delta, 6))

    # one variable f; e(x) = 0 f + e and f(x) = 1 f + 0 as coefficient rows
    builder = ConicProgramBuilder()
    builder.add_var()
    block = emit_simplified_slemma(inner, (np.zeros((n, 1)), e), ([1.0], 0.0), sd, builder)
    builder.set_objective_row([1.0])
    sol = solve(builder.build())
    print(f"\nsolver status      {sol.status.value}")
    print(f"smallest valid f   {sol.objective:.9f}")

    # brute scan: smallest f whose bordered matrix is PSD for some multiplier
    lams = np.linspace(0, 50, 200_001)
    best = np.inf
    for lam in lams:
        # with everything else fixed, PSD in f is monotone: the critical f
        # makes the Schur complement vanish
        Mtop = D - lam * A
        evals = np.linalg.eigvalsh(Mtop)
        if evals[0] <= 1e-12:
            continue
        v = e - lam * b
        crit = lam * c + v @ np.linalg.solve(Mtop, v)
        best = min(best, crit)
    print(f"scan lower bound   {best:.9f}")
    print(f"difference         {abs(best - sol.objective):.2e}")

    lam_opt = sol.x[block.lambda_index]
    lmi = assemble_classical_lmi(inner, D, e, sol.objective, lam_opt)
    print(f"\nsolved multiplier  {lam_opt:.6f}")
    print(f"bordered matrix PSD at the solved multiplier: {check_psd(lmi, 1e-6)}")

    # sample the inner region and confirm the outer form is nonnegative
    zs = rng.standard_normal((200_000, n)) * rng.uniform(0.5, 8, (200_000, 1))
    keep = np.einsum("ij,jk,ik->i", zs, A, zs) + 2 * zs @ b + c >= 0
    zs = zs[keep]
    outer = np.einsum("ij,jk,ik->i", zs, D, zs) + 2 * zs @ e + sol.objective
    print(f"min outer value over {len(zs)} sampled inner points: {outer.min():.3e}")


if __name__ == "__main__":
    main()
