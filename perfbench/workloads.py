"""The three workloads: seeded inputs, the timed operations, and the checks.

Each workload is a list of operations fixed by the seed and the number of
rounds.  ``run`` performs them against soclqc and returns one latency per
timed unit plus the raw outputs; ``check`` then compares every output with
the reference computations in :mod:`reference`, which do not use soclqc.
Library functions are looked up as module attributes at call time so that a
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from reference import LqcData, StackedCost, ball_samples, ellipsoid_boundary

# relative tolerances of the checks, against 1 + |value|
TOL_SET = 1e-7        # input, state and terminal set membership
TOL_OBJ = 1e-6        # objective against the reference ball maximum
TOL_DYN = 1e-6        # MPC dynamics residual
TOL_PLANT = 1e-9      # receding-horizon plant recursion
PERTURBATIONS = 3


def _scalar_data(N, decay, gamma, input_bound) -> LqcData:
    """The scalar family as documented: A = B = C = 1, weights decay^k."""
    one = np.ones((N, 1, 1))
    Q = decay ** np.arange(1, N + 1)
    R = decay ** np.arange(N)
    return LqcData(one, one, one, Q.reshape(N, 1, 1), np.zeros((N, 1)),
                   R.reshape(N, 1, 1), np.zeros((N, 1)), gamma, input_bound)


def _close(a, b, tol):
    return abs(a - b) <= tol * (1.0 + abs(b))


def _check_minmax(name, sc: StackedCost, mode, u, obj, rng, errors):
    """Input in its box, objective equal to the reference worst case at u,
    and no seeded feasible perturbation of u doing better."""
    d = sc.d
    if np.max(np.abs(u)) > d.u_bound * (1 + TOL_SET):
        errors.append(f"{name}: input outside its box")
    worst = sc.worst_case if mode == "robust" else sc.worst_regret
    ref, _ = worst(u)
    if not _close(obj, ref, TOL_OBJ):
        errors.append(f"{name}: objective {obj!r} != reference worst case {ref!r}")
    if mode == "regret" and obj < -TOL_OBJ:
        errors.append(f"{name}: negative regret {obj!r}")
    for _ in range(PERTURBATIONS):
        u2 = np.clip(u + 0.05 * d.u_bound * rng.standard_normal(u.shape), -d.u_bound, d.u_bound)
        if worst(u2)[0] < obj - TOL_OBJ * (1 + abs(obj)):
            errors.append(f"{name}: a feasible perturbation beats the objective")


# ---------------------------------------------------------------------------
# long-horizon: fresh scalar N=100 robust and regret programs


LONG_N = 100


@dataclass(frozen=True)
class LongOp:
    mode: str
    decay: float
    gamma: float
    bound: float
    x0: float


def long_inputs(rng, rounds: int, workdir: str) -> list[LongOp]:
    return [
        LongOp(mode, rng.uniform(0.85, 0.95), rng.uniform(0.05, 0.2),
               rng.uniform(0.3, 0.6), rng.uniform(-1.5, 1.5))
        for _ in range(rounds) for mode in ("robust", "regret")
    ]


def long_op(soclqc, op: LongOp):
    lqc = soclqc.lqc
    spec = lqc.scalar_benchmark_spec(LONG_N, op.decay, op.gamma, op.bound)
    build = lqc.build_robust_socp if op.mode == "robust" else lqc.build_regret_socp
    socp = build(spec, np.array([op.x0]))
    sol = soclqc.solver.solve(socp.program)
    return sol.status.value, socp.extract(sol)


def long_check(ops, outputs, rng) -> list[str]:
    errors: list[str] = []
    for i, (op, (status, ex)) in enumerate(zip(ops, outputs)):
        sc = StackedCost(_scalar_data(LONG_N, op.decay, op.gamma, op.bound), [op.x0])
        _check_minmax(f"op {i} {op.mode}", sc, op.mode, ex["u"], ex["objective"], rng, errors)
    return errors


# ---------------------------------------------------------------------------
# problem-files: small LQC files in all four modes and MPC files, via the CLI


LQC_MODES = ("robust", "regret", "dr", "dr-regret")


def _mat(M) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"rows": M.shape[0], "cols": M.shape[1], "data": [float(v) for v in M.ravel()]}


# one round of files: every (n_x, n_u, n_w) with n_x 1-3 and n_u, n_w 1-2, at
# horizons spread over 4-12, and MPC files at three horizons.  Every round has
# the same sizes, so rounds differ only in their seeded numbers
ROUND_LQC_SHAPES = [(n_x, n_u, n_w, 4 + 5 * i % 9) for i, (n_x, n_u, n_w) in
                    enumerate((a, b, c) for a in (1, 2, 3) for b in (1, 2) for c in (1, 2))]
ROUND_MPC_HORIZONS = (4, 7, 10)


def _random_lqc(rng, shape):
    """Contractive per-step dynamics (||A_k|| < 1), PD weights, box inputs,
    and one or two first-moment rows that the origin satisfies."""
    n_x, n_u, n_w, N = shape
    A = rng.standard_normal((N, n_x, n_x))
    A *= (rng.uniform(0.3, 0.9, N) / np.linalg.norm(A, 2, axis=(1, 2)))[:, None, None]
    B = rng.standard_normal((N, n_x, n_u))
    C = rng.standard_normal((N, n_x, n_w)) / np.sqrt(n_w)
    Mq = rng.standard_normal((N, n_x, n_x))
    Mr = rng.standard_normal((N, n_u, n_u))
    Q = Mq.transpose(0, 2, 1) @ Mq / n_x + 0.1 * np.eye(n_x)
    R = Mr.transpose(0, 2, 1) @ Mr / n_u + 0.5 * np.eye(n_u)
    d = LqcData(A, B, C, Q, 0.3 * rng.standard_normal((N, n_x)), R,
                0.3 * rng.standard_normal((N, n_u)), rng.uniform(0.2, 1.0),
                rng.uniform(0.5, 2.0))
    m = int(rng.integers(1, 3))
    H = rng.standard_normal((m, N * n_w))
    mu = rng.uniform(0.1, 0.5, m) * np.linalg.norm(H, axis=1) * d.gamma
    x0 = rng.standard_normal(n_x)
    nu = N * n_u
    tree = {
        "kind": "lqc", "horizon": N,
        "A": [_mat(M) for M in A], "B": [_mat(M) for M in B], "C": [_mat(M) for M in C],
        "Q": [_mat(M) for M in Q], "R": [_mat(M) for M in R],
        "q": d.q.tolist(), "r": d.r.tolist(), "gamma": d.gamma,
        "input_set": {"G": _mat(np.vstack([np.eye(nu), -np.eye(nu)])),
                      "h": [d.u_bound] * (2 * nu)},
        "ambiguity": {"H": _mat(H), "mu": mu.tolist()},
    }
    return tree, {"kind": "lqc", "data": d, "H": H, "mu": mu, "x0": x0}


@dataclass(frozen=True)
class MpcData:
    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    f: np.ndarray
    G: np.ndarray
    h: np.ndarray
    K: np.ndarray
    P: np.ndarray
    N: int
    Q: np.ndarray
    R: np.ndarray
    Q_f: np.ndarray


def _random_mpc(rng, N):
    """Double integrator with seeded bounds, weights and start."""
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.5], [1.0]])
    K = np.array([[-0.4, -1.2]])
    A_cl = A + B @ K
    x_bound, u_bound = rng.uniform(4.0, 6.0), rng.uniform(0.8, 1.5)
    Q = np.diag(rng.uniform(0.5, 2.0, 2))
    R = np.array([[rng.uniform(0.5, 2.0)]])
    m = MpcData(A, B, np.vstack([np.eye(2), -np.eye(2)]), np.full(4, x_bound),
                np.array([[1.0], [-1.0]]), np.full(2, u_bound), K,
                scipy.linalg.solve_discrete_lyapunov(A_cl.T, np.eye(2)),
                N, Q, R,
                scipy.linalg.solve_discrete_lyapunov(A_cl.T, Q + K.T @ R @ K))
    x0 = np.array([rng.uniform(-2.0, 2.0), rng.uniform(-0.5, 0.5)])
    tree = {
        "kind": "mpc", "horizon": m.N, "A": _mat(A), "B": _mat(B),
        "state_set": {"E": _mat(m.E), "f": m.f.tolist()},
        "input_set": {"G": _mat(m.G), "h": m.h.tolist()},
        "K": _mat(K), "P": _mat(m.P),
        "cost": {"Q": _mat(Q), "R": _mat(R), "Q_f": _mat(m.Q_f)},
    }
    return tree, {"kind": "mpc", "data": m, "x0": x0}


@dataclass(frozen=True)
class FileOp:
    problem: str
    mode: str
    x0: str
    out: str
    item: dict


def files_inputs(rng, rounds: int, workdir: str) -> list[FileOp]:
    """Per round: one LQC file of each shape in all four modes, then one MPC
    file at each horizon."""
    ops = []
    k = 0
    for _ in range(rounds):
        made = [_random_lqc(rng, shape) for shape in ROUND_LQC_SHAPES]
        made += [_random_mpc(rng, N) for N in ROUND_MPC_HORIZONS]
        for tree, item in made:
            path = os.path.join(workdir, f"p{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tree, fh)
            x0 = ",".join(repr(float(v)) for v in item["x0"])
            for mode in (LQC_MODES if item["kind"] == "lqc" else ("mpc",)):
                ops.append(FileOp(path, mode, x0, os.path.join(workdir, f"p{k}-{mode}.out.json"), item))
            k += 1
    return ops


def file_op(soclqc, op: FileOp):
    """``soclqc solve`` then ``soclqc verify``, in process; the initial state
    goes as ``--x0=...`` because a value starting with '-' after a space is
    taken for an option."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        solved = soclqc.cli.main(["solve", op.problem, "--mode", op.mode,
                                  f"--x0={op.x0}", "--out", op.out])
        verified = soclqc.cli.main(["verify", op.problem, op.out]) if solved == 0 else None
    return solved, verified, sink.getvalue()


def _check_lqc_file(i, op, res, rng, errors):
    item, mode = op.item, op.mode
    sc = StackedCost(item["data"], item["x0"])
    u, obj = np.array(res["u"]), float(res["objective"])
    name = f"op {i} {mode}"
    if mode in ("robust", "regret"):
        _check_minmax(name, sc, mode, u, obj, rng, errors)
        return
    # a Dirac at any feasible w is in the ambiguity set, and the ball
    # contains every support: max over such w <= objective <= worst case
    if np.max(np.abs(u)) > sc.d.u_bound * (1 + TOL_SET):
        errors.append(f"{name}: input outside its box")
    regret = mode == "dr-regret"
    upper, w_star = sc.worst_regret(u) if regret else sc.worst_case(u)
    W = np.vstack([ball_samples(rng, 64, sc.H.shape[1], sc.d.gamma), w_star])
    W = W[np.all(W @ item["H"].T <= item["mu"], axis=1)]
    lower = max(sc.regret_at(u, w) if regret else sc.cost(u, w) for w in W)
    if not lower - TOL_OBJ * (1 + abs(lower)) <= obj <= upper + TOL_OBJ * (1 + abs(upper)):
        errors.append(f"{name}: objective {obj!r} outside [{lower!r}, {upper!r}]")


def _check_mpc_file(i, op, res, rng, errors):
    m, x0 = op.item["data"], op.item["x0"]
    xs, us = np.array(res["states"]), np.array(res["inputs"])
    c, r = np.array(res["center"]), float(res["radius"])
    name = f"op {i} mpc"
    if np.max(np.abs(xs[0] - x0)) > TOL_PLANT or xs.shape != (m.N + 1, 2):
        errors.append(f"{name}: trajectory does not start at x0")
    dyn = xs[1:] - xs[:-1] @ m.A.T - us @ m.B.T
    if np.max(np.abs(dyn)) > TOL_DYN * (1 + np.max(np.abs(xs))):
        errors.append(f"{name}: dynamics violated by {np.max(np.abs(dyn)):.3e}")
    if np.max(xs[1:-1] @ m.E.T - m.f, initial=0.0) > TOL_SET * (1 + np.max(m.f)):
        errors.append(f"{name}: path state constraint violated")
    if np.max(us @ m.G.T - m.h) > TOL_SET * (1 + np.max(m.h)):
        errors.append(f"{name}: input constraint violated")
    e = xs[-1] - c
    if e @ m.P @ e > r * r + TOL_SET * (1 + r * r):
        errors.append(f"{name}: final state outside the terminal set")
    X = ellipsoid_boundary(m.P, c, r, 200, rng)
    Y = X @ (m.A + m.B @ m.K).T - c
    if np.max(np.einsum("ij,jk,ik->i", Y, m.P, Y)) > r * r + TOL_SET * (1 + r * r):
        errors.append(f"{name}: terminal set not invariant under the closed loop")
    if np.max(X @ m.E.T - m.f) > TOL_SET * (1 + np.max(m.f)):
        errors.append(f"{name}: terminal set leaves the state set")
    if np.max(X @ (m.G @ m.K).T - m.h) > TOL_SET * (1 + np.max(m.h)):
        errors.append(f"{name}: terminal controller leaves the input set")
    cost = (np.einsum("ki,ij,kj->", xs[:-1], m.Q, xs[:-1])
            + np.einsum("ki,ij,kj->", us, m.R, us) + xs[-1] @ m.Q_f @ xs[-1])
    if not _close(float(res["objective"]), float(cost), TOL_OBJ):
        errors.append(f"{name}: objective {res['objective']!r} != trajectory cost {cost!r}")


def files_check(ops, outputs, rng) -> list[str]:
    errors: list[str] = []
    objective = {}
    for i, (op, _) in enumerate(zip(ops, outputs)):
        with open(op.out, encoding="utf-8") as fh:
            res = json.load(fh)
        if res["status"] != "Optimal" or res["mode"] != op.mode:
            errors.append(f"op {i}: result file says {res['status']} / {res['mode']}")
            continue
        objective[op.problem, op.mode] = float(res["objective"])
        (_check_mpc_file if op.mode == "mpc" else _check_lqc_file)(i, op, res, rng, errors)
    for (problem, mode), obj in objective.items():
        if mode in ("dr", "dr-regret"):
            base = objective[problem, "robust" if mode == "dr" else "regret"]
            if obj > base + TOL_OBJ * (1 + abs(base)):
                errors.append(f"{problem}: {mode} {obj!r} above its non-DR value {base!r}")
    return errors


# ---------------------------------------------------------------------------
# receding-horizon: episodes re-solving one spec at a moving state


RH_STEPS = 10
SCALAR_RH = dict(N=30, decay=0.9, gamma=0.1, input_bound=0.4)


def _multi_state_data() -> LqcData:
    """A damped oscillator (spectral radius 0.92) with a force input and
    disturbances on both states, N = 15."""
    N = 15
    A = np.array([[0.9, 0.2], [-0.2, 0.9]])
    B = np.array([[0.0], [1.0]])
    C = 0.5 * np.eye(2)
    rep = lambda M: np.repeat(M[None], N, axis=0)  # noqa: E731
    return LqcData(rep(A), rep(B), rep(C), rep(np.eye(2)), np.zeros((N, 2)),
                   rep(np.array([[0.5]])), np.zeros((N, 1)), 0.3, 1.0)


@dataclass(frozen=True)
class Episode:
    spec: str          # "scalar" or "multi"
    controller: str
    x0: np.ndarray
    disturbances: np.ndarray


def rh_data(kind: str) -> LqcData:
    if kind == "scalar":
        return _scalar_data(**SCALAR_RH)
    return _multi_state_data()


def rh_inputs(rng, rounds: int, workdir: str) -> list[Episode]:
    """Per round one episode of each spec and controller."""
    episodes = []
    for _ in range(rounds):
        for kind in ("scalar", "multi"):
            d = rh_data(kind)
            n_x, n_w = d.A.shape[1], d.C.shape[2]
            for controller in ("robust", "regret"):
                x0 = rng.uniform(-1.5, 1.5, n_x)
                w = rng.uniform(-1.0, 1.0, (RH_STEPS, n_w)) * d.gamma / np.sqrt(d.N)
                episodes.append(Episode(kind, controller, x0, w))
    return episodes


def rh_spec(soclqc, kind: str):
    lqc = soclqc.lqc
    if kind == "scalar":
        return lqc.scalar_benchmark_spec(**SCALAR_RH)
    d = _multi_state_data()
    return lqc.time_invariant_spec(d.A[0], d.B[0], d.C[0], d.Q[0], d.q[0], d.R[0], d.r[0],
                                   d.N, d.gamma, lqc.box_polyhedron(d.u_bound, d.N))


@dataclass
class EpisodeRecord:
    states: list
    inputs: list
    objectives: list


def rh_op(soclqc, ep: Episode, lat: list):
    """Drive one episode through ``receding_horizon_simulate`` a step at a
    time, as a controller that learns each disturbance only after it acted,
    appending each step's latency to ``lat`` (the first step's includes
    making the spec)."""
    t0 = time.perf_counter()
    spec = rh_spec(soclqc, ep.spec)
    rec = EpisodeRecord([ep.x0], [], [])
    for k in range(RH_STEPS):
        step = soclqc.lqc.receding_horizon_simulate(spec, rec.states[-1],
                                                    ep.disturbances[k:k + 1], ep.controller)
        t1 = time.perf_counter()
        lat.append((t1 - t0) * 1e3)
        t0 = t1
        rec.states.append(step.states[-1])
        rec.inputs.append(step.inputs[0])
        rec.objectives.append(step.objectives[0])
    return rec


def rh_check(episodes, outputs, rng) -> list[str]:
    errors: list[str] = []
    for i, (ep, rec) in enumerate(zip(episodes, outputs)):
        d = rh_data(ep.spec)
        name = f"episode {i} {ep.spec} {ep.controller}"
        xs, us = np.asarray(rec.states), np.asarray(rec.inputs)
        x = ep.x0
        for k in range(RH_STEPS):
            if np.max(np.abs(xs[k] - x)) > TOL_PLANT * (1 + np.max(np.abs(x))):
                errors.append(f"{name}: state {k} does not follow the plant")
                break
            if np.max(np.abs(us[k])) > d.u_bound * (1 + TOL_SET):
                errors.append(f"{name}: input {k} outside its box")
            # the min-max value lies between the unconstrained nominal
            # minimum (regret: 0) and the worst case at the zero input
            sc = StackedCost(d, x)
            obj = rec.objectives[k]
            zero = np.zeros(sc.G.shape[1])
            if ep.controller == "robust":
                lower, upper = sc.nominal_min(), sc.worst_case(zero)[0]
            else:
                lower, upper = 0.0, sc.worst_regret(zero)[0]
            if not lower - TOL_OBJ * (1 + abs(lower)) <= obj <= upper + TOL_OBJ * (1 + abs(upper)):
                errors.append(f"{name}: step {k} objective {obj!r} outside [{lower!r}, {upper!r}]")
            x = d.A[0] @ x + d.B[0] @ us[k] + d.C[0] @ ep.disturbances[k]
        if np.max(np.abs(xs[RH_STEPS] - x)) > TOL_PLANT * (1 + np.max(np.abs(x))):
            errors.append(f"{name}: final state does not follow the plant")
    return errors


# ---------------------------------------------------------------------------
# timed execution


@dataclass
class Outcome:
    latencies_ms: list[float]   # one per operation (per step in receding-horizon)
    outputs: list               # aligned with the items; None where it failed
    attempted: int
    failed: int
    wall_s: float
    failures: list[str]


def _perform(name: str, soclqc, item):
    """One item: returns (output, operations in it, latencies in ms, error),
    with error None when it succeeded."""
    lat: list[float] = []
    if name == "receding-horizon":
        try:
            return rh_op(soclqc, item, lat), RH_STEPS, lat, None
        except soclqc.lqc.RecedingHorizonError as exc:
            return None, RH_STEPS, lat, str(exc)
    t0 = time.perf_counter()
    if name == "long-horizon":
        out = long_op(soclqc, item)
        error = None if out[0] == "Optimal" else f"status {out[0]}"
    else:
        out = file_op(soclqc, item)
        error = None if out[:2] == (0, 0) else f"solve/verify exit codes {out[:2]}: {out[2]}"
    return out, 1, [(time.perf_counter() - t0) * 1e3], error


def run(name: str, soclqc, items, tracer=None) -> Outcome:
    """Perform the items back to back; only this loop is timed."""
    lat, outputs, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.op = i
        out, ops, item_lat, error = _perform(name, soclqc, item)
        attempted += ops
        outputs.append(out if error is None else None)
        if error is None:
            lat.extend(item_lat)
        else:
            failed += ops
            failures.append(f"{name} item {i}: {error}")
    wall = time.perf_counter() - start
    return Outcome(lat, outputs, attempted, failed, wall, failures)


def warm_up(soclqc, name: str) -> None:
    """Small untimed calls that load what the first timed operation needs."""
    lqc = soclqc.lqc
    spec = lqc.scalar_benchmark_spec(3)
    soclqc.solver.solve(lqc.build_regret_socp(spec, np.array([-1.0])).program)
    if name == "receding-horizon":
        lqc.receding_horizon_simulate(spec, [-1.0], [[0.0]], "robust")
    if name == "problem-files":
        soclqc.problemfile.parse_problem(soclqc.problemfile.render_lqc(spec))
        _, item = _random_mpc(np.random.default_rng(0), 2)
        m = item["data"]
        mspec = soclqc.mpc.MpcSpec(m.A, m.B, m.E, m.f, m.G, m.h, m.K, m.P, m.N, m.Q, m.R, m.Q_f)
        soclqc.solver.solve(soclqc.mpc.build_mpc_socp(mspec, np.zeros(2)).program)
        soclqc.cli.make_parser()


INPUTS = {"long-horizon": long_inputs, "problem-files": files_inputs, "receding-horizon": rh_inputs}
CHECKS = {"long-horizon": long_check, "problem-files": files_check, "receding-horizon": rh_check}


def check(name: str, items, outcome: Outcome, rng) -> list[str]:
    """Compare every successful output with the reference computations."""
    pairs = [(it, out) for it, out in zip(items, outcome.outputs) if out is not None]
    return CHECKS[name]([p[0] for p in pairs], [p[1] for p in pairs], rng)
