"""Checks of a solved result against independent oracles.

``verify_result`` replays a result of ``soclqc solve --out`` against its
problem and returns one ``Check`` per test: the exact ball maximizer, the
certificate matrices (residual -lambda_min / (1 + ||M||_F) against
``PSD_TOL``), sampling, and the constraint and dynamics residuals.
``worst_case`` gives the exact worst case (robust kernel) or worst-case
regret (regret kernel) at a fixed input; it shares no code with the program
builder.  ``lqc`` and ``oracle`` functions are looked up through their
modules at call time, so a wrapper installed there sees the calls.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import lqc, oracle
from .problemfile import _numbers, require_kind
from .slemma import QuadForm, assemble_classical_lmi, psd_margin

# relative eigenvalue tolerance of the certificate-matrix checks
PSD_TOL = 1e-6


class Check(NamedTuple):
    """One line of a verification report; ``ok`` means residual <= tol."""

    name: str
    residual: float
    tol: float
    ok: bool


def _check(name: str, residual: float, tol: float) -> Check:
    return Check(name, residual, tol, residual <= tol)


def _psd(name: str, M: np.ndarray) -> Check:
    """The residual is -lambda_min / (1 + ||M||_F); the verdict is
    ``check_psd(M, PSD_TOL)``'s, taken before that division."""
    lam_min, scale = psd_margin(M)
    return Check(name, -lam_min / scale, PSD_TOL, lam_min >= -PSD_TOL * scale)


class WorstCase(NamedTuple):
    """The worst case at a fixed input is the maximum of
    ``w' quad w + 2 lin' w + base`` over the disturbance ball."""

    quad: np.ndarray
    lin: np.ndarray
    base: float

    def value(self, gamma: float) -> float:
        """Exact maximum over the ball of radius gamma."""
        return oracle.max_quad_over_ball(self.quad, self.lin, gamma).value + self.base


def worst_case(cc: lqc.CompactCost, kernel: str, u) -> WorstCase:
    """The worst-case kernel at the input ``u``: the cost itself (robust) or
    the cost minus the clairvoyant unconstrained optimum (regret)."""
    u = np.asarray(u, dtype=float)
    base = float(u @ cc.u_quad @ u + 2 * cc.u_lin @ u)
    if kernel == "robust":
        return WorstCase(cc.w_quad, cc.w_lin + cc.cross.T @ u, base + cc.constant)
    if kernel == "regret":
        uq_inv_ulin = np.linalg.solve(cc.u_quad, cc.u_lin)
        return WorstCase(cc.cross.T @ np.linalg.solve(cc.u_quad, cc.cross),
                         cc.cross.T @ (uq_inv_ulin + u),
                         base + float(cc.u_lin @ uq_inv_ulin))
    raise ValueError(f"unknown worst-case kernel {kernel!r}")


def _field(result: dict, name: str, shape: tuple, default=None) -> np.ndarray:
    """A numeric result field as a finite float array of the given shape.
    Its entries must be JSON numbers, as in a problem file; a numpy value,
    as an in-process caller passes it, counts as the Python value it holds."""
    if name not in result and default is None:
        raise ValueError(f"result file missing field {name!r}")
    value = result.get(name, default)
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    entries = np.array(value, dtype=object)
    if entries.shape != shape:
        raise ValueError(f"result field {name!r}: expected shape {shape}, got {entries.shape}")
    return _numbers(list(entries.ravel()), f"result field {name!r}").reshape(shape)


def verify_result(spec, amb, result) -> list[Check]:
    """The report of a parsed result against ``problemfile.load_problem``'s
    output; ``ValueError`` naming the field when the result is malformed."""
    if not isinstance(result, dict):
        raise ValueError("result file must hold a JSON object")
    mode = result.get("mode")
    if not isinstance(mode, str):
        raise ValueError("result field 'mode': expected a string")
    require_kind(mode, spec)
    return _verify_mpc(spec, result) if mode == "mpc" else _verify_lqc(spec, amb, mode, result)


# the sampled check's normal draws and radii, and the per-row scales of each
# dimension asked for; the tuple is replaced as a whole (see _ball_samples)
_draws = (np.empty((10_000, 0)), np.random.default_rng(1).random(10_000), {})


def _ball_samples(n_w: int):
    """The sampled check's draws for disturbance dimension n_w, seeded and
    read-only: 10 000 normal directions Z and per-row scales r^(1/n_w) / ||Z||.
    The rows of ``gamma * scale * Z`` are uniform in the ball of radius gamma.

    Z is the leading n_w columns of one draw at the largest dimension asked
    for so far.  The draw fills it column by column from one seeded stream,
    so a column does not depend on how many follow it: a larger dimension
    draws once again, and the columns it shares with the old draw come out
    the same.  A verify that alternates dimensions therefore draws only when
    a new largest dimension comes, each dimension's samples are the same
    whatever ran before, and two threads that grow the draw at once make
    equal arrays.  The scales of each dimension are kept, 10 000 entries
    per dimension up to the largest."""
    global _draws
    Z, radii, scales = _draws
    if Z.shape[1] < n_w:
        Z = np.random.default_rng(0).standard_normal((n_w, 10_000)).T
        Z.flags.writeable = False
        _draws = (Z, radii, scales)
    Z = Z[:, :n_w]
    scale = scales.get(n_w)
    if scale is None:
        scale = radii ** (1.0 / n_w) / np.sqrt(np.einsum("ij,ij->i", Z, Z))
        scale.flags.writeable = False
        scales[n_w] = scale
    return Z, scale


def _verify_lqc(spec, amb, mode: str, result: dict) -> list[Check]:
    kernel, amb = lqc.lqc_mode(mode, amb)
    m = amb.num_moments if amb is not None else 0
    x0 = _field(result, "x0", (spec.n_x,))
    u = _field(result, "u", (spec.stacked_input_dim,))
    lam = float(_field(result, "lam", ()))
    t = _field(result, "t", (spec.stacked_dist_dim,))
    beta = _field(result, "beta", (m,), default=[])
    obj = float(_field(result, "objective", ()))
    gamma = spec.gamma

    # the moment multipliers beta shift the disturbance heads and add mu'beta
    shift, extra = (0.5 * amb.H.T @ beta, float(amb.mu @ beta)) if m else (0.0, 0.0)
    cc = lqc.build_compact_cost(spec, x0)
    quad, lin, base = worst_case(cc, kernel, u)
    h_eff = lin - shift
    # the epigraph bound certified by (lam, t) must dominate the exact ball
    # maximum of the shifted disturbance quadratic
    wc = oracle.max_quad_over_ball(quad, h_eff, gamma).value
    bound = float(np.sum(t)) + gamma**2 * lam
    report = [
        _check("input-set feasibility",
               float(np.max(spec.u_poly_G @ u - spec.u_poly_h, initial=0.0)), 1e-6),
        _check("multiplier nonnegative", -lam, 1e-9),
        _check("epigraph dominates ball maximum", wc - bound, 1e-6 * (1 + abs(wc))),
        _check("objective consistency", abs(obj - (base + bound + extra)), 1e-5 * (1 + abs(obj))),
    ]
    if amb is None:
        # without moment information the bound is tight at the optimum
        report.append(_check("objective matches ball oracle",
                             abs(obj - (base + wc + extra)), 1e-5 * (1 + abs(obj))))

    # classical matrix-inequality certificate at the reported multiplier
    lmi = assemble_classical_lmi(QuadForm.ball(gamma, len(lin)), -quad, -h_eff, bound, lam)
    report.append(_psd("certificate matrix PSD", lmi))
    if mode == "robust":
        report.append(_psd("bordered certificate PSD",
                           lqc.robust_certificate_matrix(spec, cc, u, lam, t)))
    if mode == "regret":
        report.append(_check("regret nonnegative", -obj, 1e-8))

    # sampled disturbances w = s z, s = gamma * scale, never beat the
    # reported bound; w'Qw + 2 h'w = s^2 z'Qz + 2 s h'z, so no scaled copy of
    # Z is formed beside the cached one
    Z, scale = _ball_samples(len(lin))
    s = gamma * scale
    # z'Qz as one BLAS product and a two-operand einsum; the three-operand
    # einsum would run as an unoptimized loop
    vals = s * s * np.einsum("ij,ij->i", Z @ quad, Z) + 2.0 * s * (Z @ h_eff)
    report.append(_check("sampled disturbances below bound", float(np.max(vals)) - bound,
                         1e-6 * (1 + abs(bound))))
    return report


def _verify_mpc(spec, result: dict) -> list[Check]:
    N = spec.N
    x0 = _field(result, "x0", (spec.n_x,))
    states = _field(result, "states", (N + 1, spec.n_x))
    inputs = _field(result, "inputs", (N, spec.n_u))
    c = _field(result, "center", (spec.n_x,))
    r = float(_field(result, "radius", ()))
    obj = float(_field(result, "objective", ()))
    P, A_cl = spec.P, spec.A_cl

    xN = states[-1]
    cost = float(np.einsum("ki,ij,kj->", states[:-1], spec.Q, states[:-1])
                 + np.einsum("ki,ij,kj->", inputs, spec.R, inputs) + xN @ spec.Q_f @ xN)
    report = [
        _check("dynamics residual", float(np.max(np.abs(
            states[:-1] @ spec.A.T + inputs @ spec.B.T - states[1:]))), 1e-6),
        _check("initial state match", float(np.max(np.abs(states[0] - x0))), 1e-9),
        _check("path state constraints",
               float(np.max(states[1:N] @ spec.E.T - spec.f)) if N > 1 else 0.0, 1e-6),
        _check("input constraints", float(np.max(inputs @ spec.G.T - spec.h)), 1e-6),
        _check("terminal membership", float((xN - c) @ P @ (xN - c)) - r**2, 1e-6),
        _check("terminal radius nonnegative", -r, 1e-9),
        _check("objective consistency", abs(obj - cost), 1e-5 * (1 + abs(obj))),
    ]

    rng = np.random.default_rng(0)
    D = rng.standard_normal((1000, spec.n_x))
    D /= np.linalg.norm(D, axis=1)[:, None]
    X = c + r * (D @ spec.p_inv_sqrt)
    Y = X @ A_cl.T - c
    inv_viol = float(np.max(np.einsum("ij,jk,ik->i", Y, P, Y))) - r**2
    report += [
        _check("terminal set invariance (sampled)", inv_viol, 1e-7 * (1 + r**2)),
        _check("terminal set in state set (sampled)",
               float(np.max(spec.E @ X.T - spec.f[:, None])), 1e-7),
        _check("terminal controller in input set (sampled)",
               float(np.max(spec.G @ spec.K @ X.T - spec.h[:, None])), 1e-7),
    ]

    x, worst = xN, -np.inf
    for _ in range(50):
        x = A_cl @ x
        worst = max(worst, float((x - c) @ P @ (x - c)) - r**2)
    report.append(_check("closed loop stays in terminal set", worst, 1e-6))
    return report
