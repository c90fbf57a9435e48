"""Strict JSON problem files for the command-line tools.

One canonical serialization: a key/value tree with every matrix spelled out
as {"rows": r, "cols": c, "data": [row-major floats]}.  Parsing is strict --
unknown keys, missing keys, dimension mismatches, non-finite numbers (JSON
parsers accept NaN and Infinity), and strings or booleans where a count or
number is due are rejected with the offending field named.  Numbers round-trip exactly
(repr-based JSON floats).
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .lqc import AmbiguitySpec, LqcSpec
from .mpc import MpcSpec


class ProblemFileError(ValueError):
    """Malformed problem file; the message names the offending field."""


def _require_keys(obj: dict, required: set[str], optional: set[str], where: str):
    if not isinstance(obj, dict):
        raise ProblemFileError(f"{where}: expected an object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ProblemFileError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    missing = required - set(obj)
    if missing:
        raise ProblemFileError(f"{where}: missing key {sorted(missing)[0]!r}")


# json gives exactly int, float, bool, str, None, list or dict, so counts and
# numbers are checked by exact type: bool is a subclass of int


def _numbers(values: list, where: str) -> np.ndarray:
    """The entries, JSON numbers, as a finite float array."""
    if not set(map(type, values)) <= {int, float}:
        raise ProblemFileError(f"{where}: non-numeric entry")
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:  # an integer literal beyond the float range
        finite = False
    if not finite:
        raise ProblemFileError(f"{where}: entries must be finite")
    return np.array(values, dtype=float)


def _matrix_shape(obj: Any, where: str) -> tuple[int, int]:
    """A matrix's (rows, cols), with its keys, counts and data length checked."""
    _require_keys(obj, {"rows", "cols", "data"}, set(), where)
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not (type(rows) is int and type(cols) is int) or rows < 0 or cols < 0:
        raise ProblemFileError(f"{where}: rows/cols must be nonnegative integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ProblemFileError(
            f"{where}: data length {len(data) if isinstance(data, list) else '?'} "
            f"does not match rows*cols = {rows * cols}"
        )
    return rows, cols


def _matrix(obj: Any, where: str) -> np.ndarray:
    shape = _matrix_shape(obj, where)
    return _numbers(obj["data"], where).reshape(shape)


def _vector(obj: Any, where: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise ProblemFileError(f"{where}: expected a list of numbers")
    return _numbers(obj, where)


def _matrix_list(obj: Any, count: int, where: str) -> np.ndarray:
    """The matrices as one (count, rows, cols) array.  Their structure is
    checked matrix by matrix, then all entries are converted by one
    :func:`_numbers` call; when that fails, the per-matrix conversion names
    the matrix."""
    if not isinstance(obj, list) or len(obj) != count:
        raise ProblemFileError(f"{where}: expected a list of {count} matrices")
    shapes = [_matrix_shape(m, f"{where}[{k}]") for k, m in enumerate(obj)]
    for k, shape in enumerate(shapes):
        if shape != shapes[0]:
            raise ProblemFileError(f"{where}[{k}]: shape {shape} differs from {where}[0]'s "
                                   f"{shapes[0]}")
    try:
        values = _numbers([v for m in obj for v in m["data"]], where)
    except ProblemFileError:
        for k, m in enumerate(obj):
            _numbers(m["data"], f"{where}[{k}]")
        raise
    return values.reshape(count, *shapes[0])


def _vector_list(obj: Any, count: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != count:
        raise ProblemFileError(f"{where}: expected a list of {count} vectors")
    return np.array([_vector(v, f"{where}[{k}]") for k, v in enumerate(obj)])


def _mat_dict(M: np.ndarray) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]),
            "data": [float(v) for v in M.ravel()]}


def _parse_lqc(tree: dict) -> LqcSpec:
    _require_keys(
        tree,
        {"kind", "horizon", "A", "B", "C", "Q", "q", "R", "r", "gamma", "input_set"},
        {"ambiguity"},
        "lqc problem",
    )
    N = tree["horizon"]
    if type(N) is not int or N < 1:
        raise ProblemFileError("horizon: must be a positive integer")
    A = _matrix_list(tree["A"], N, "A")
    B = _matrix_list(tree["B"], N, "B")
    C = _matrix_list(tree["C"], N, "C")
    Q = _matrix_list(tree["Q"], N, "Q")
    R = _matrix_list(tree["R"], N, "R")
    q = _vector_list(tree["q"], N, "q")
    r = _vector_list(tree["r"], N, "r")
    gamma = _numbers([tree["gamma"]], "gamma")[0]
    _require_keys(tree["input_set"], {"G", "h"}, set(), "input_set")
    G = _matrix(tree["input_set"]["G"], "input_set.G")
    h = _vector(tree["input_set"]["h"], "input_set.h")
    try:
        spec = LqcSpec(A, B, C, Q, q, R, r, float(gamma), G, h)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    return spec


def parse_ambiguity(tree: dict, n_w: int) -> AmbiguitySpec | None:
    if "ambiguity" not in tree:
        return None
    _require_keys(tree["ambiguity"], {"H", "mu"}, set(), "ambiguity")
    H = _matrix(tree["ambiguity"]["H"], "ambiguity.H")
    mu = _vector(tree["ambiguity"]["mu"], "ambiguity.mu")
    if H.shape[1] != n_w:
        raise ProblemFileError(
            f"ambiguity.H: {H.shape[1]} columns, expected the stacked disturbance dim {n_w}"
        )
    try:
        return AmbiguitySpec(H, mu)
    except ValueError as exc:
        raise ProblemFileError(f"ambiguity: {exc}") from exc


def _parse_mpc(tree: dict) -> MpcSpec:
    _require_keys(
        tree,
        {"kind", "horizon", "A", "B", "state_set", "input_set", "K", "P", "cost"},
        set(),
        "mpc problem",
    )
    N = tree["horizon"]
    if type(N) is not int or N < 1:
        raise ProblemFileError("horizon: must be a positive integer")
    A = _matrix(tree["A"], "A")
    B = _matrix(tree["B"], "B")
    _require_keys(tree["state_set"], {"E", "f"}, set(), "state_set")
    E = _matrix(tree["state_set"]["E"], "state_set.E")
    f = _vector(tree["state_set"]["f"], "state_set.f")
    _require_keys(tree["input_set"], {"G", "h"}, set(), "input_set")
    G = _matrix(tree["input_set"]["G"], "input_set.G")
    h = _vector(tree["input_set"]["h"], "input_set.h")
    K = _matrix(tree["K"], "K")
    P = _matrix(tree["P"], "P")
    _require_keys(tree["cost"], {"Q", "R", "Q_f"}, set(), "cost")
    Q = _matrix(tree["cost"]["Q"], "cost.Q")
    R = _matrix(tree["cost"]["R"], "cost.R")
    Q_f = _matrix(tree["cost"]["Q_f"], "cost.Q_f")
    try:
        return MpcSpec(A, B, E, f, G, h, K, P, N, Q, R, Q_f)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc


def parse_problem(text: str):
    """Return (LqcSpec, AmbiguitySpec|None) or (MpcSpec, None)."""
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(tree, dict) or "kind" not in tree:
        raise ProblemFileError("top level: missing key 'kind'")
    kind = tree["kind"]
    if kind == "lqc":
        spec = _parse_lqc(tree)
        return spec, parse_ambiguity(tree, spec.stacked_dist_dim)
    if kind == "mpc":
        return _parse_mpc(tree), None
    raise ProblemFileError(f"kind: must be 'lqc' or 'mpc', got {kind!r}")


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def require_kind(mode, spec) -> None:
    """Mode mpc needs an mpc problem (an MpcSpec), every other mode an lqc one."""
    need = "mpc" if mode == "mpc" else "lqc"
    if not isinstance(spec, MpcSpec if mode == "mpc" else LqcSpec):
        raise ProblemFileError(f"mode {mode!r} requires an {need} problem file")


def render_lqc(spec: LqcSpec, amb: AmbiguitySpec | None = None) -> str:
    tree = {
        "kind": "lqc",
        "horizon": int(spec.horizon),
        "A": [_mat_dict(m) for m in spec.A],
        "B": [_mat_dict(m) for m in spec.B],
        "C": [_mat_dict(m) for m in spec.C],
        "Q": [_mat_dict(m) for m in spec.Q],
        "q": [[float(v) for v in row] for row in spec.q],
        "R": [_mat_dict(m) for m in spec.R],
        "r": [[float(v) for v in row] for row in spec.r],
        "gamma": float(spec.gamma),
        "input_set": {"G": _mat_dict(spec.u_poly_G),
                      "h": [float(v) for v in spec.u_poly_h]},
    }
    if amb is not None:
        tree["ambiguity"] = {"H": _mat_dict(amb.H), "mu": [float(v) for v in amb.mu]}
    return json.dumps(tree, indent=2, sort_keys=True)


def render_mpc(spec: MpcSpec) -> str:
    tree = {
        "kind": "mpc",
        "horizon": int(spec.N),
        "A": _mat_dict(spec.A),
        "B": _mat_dict(spec.B),
        "state_set": {"E": _mat_dict(spec.E), "f": [float(v) for v in spec.f]},
        "input_set": {"G": _mat_dict(spec.G), "h": [float(v) for v in spec.h]},
        "K": _mat_dict(spec.K),
        "P": _mat_dict(spec.P),
        "cost": {"Q": _mat_dict(spec.Q), "R": _mat_dict(spec.R),
                 "Q_f": _mat_dict(spec.Q_f)},
    }
    return json.dumps(tree, indent=2, sort_keys=True)


def save_problem(path, spec, amb=None) -> None:
    if isinstance(spec, LqcSpec):
        text = render_lqc(spec, amb)
    elif isinstance(spec, MpcSpec):
        text = render_mpc(spec)
    else:
        raise TypeError("spec must be LqcSpec or MpcSpec")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
