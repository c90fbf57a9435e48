"""Second-order cone toolkit for robust quadratic constraints and control.

Core pieces:

* :mod:`soclqc.model` / :mod:`soclqc.solver` -- conic programs, held as the
  slack map ``h - G x`` in the cone layout the solver works on, and a dense
  primal-dual interior-point SOCP solver.
* :mod:`soclqc.slemma` -- simultaneous diagonalization and the simplified
  S-lemma constraint generator, with the classical matrix inequality kept as
  a numeric verification oracle.
* :mod:`soclqc.lqc` -- finite-horizon robust / regret-optimal /
  distributionally robust linear-quadratic control as SOCPs.
* :mod:`soclqc.mpc` -- MPC with an online-reconfigurable ellipsoidal
  terminal set.
* :mod:`soclqc.oracle` -- the exact ball maximizer, independent of the solver.
* :mod:`soclqc.verify` -- the checks of a solved result (``verify_result``)
  and the exact worst case at a fixed input (``worst_case``).
* :mod:`soclqc.problemfile` / :mod:`soclqc.cli` -- problem files and the
  ``soclqc`` command line (solve | verify | bench).
"""

from .model import (
    ConeBlock,
    ConicProgram,
    ConicProgramBuilder,
    DimensionMismatch,
    NotPositiveDefinite,
    cholesky_factor,
    hyperbolic_rows,
    psd_sqrt_factor,
    unit_rows,
)
from .solver import Solution, Status, solve
from .slemma import (
    DegenerateInput,
    QuadForm,
    SLemmaBlock,
    SimulDiag,
    assemble_classical_lmi,
    check_psd,
    emit_simplified_slemma,
    simultaneous_diagonalize,
)
from .oracle import (
    BallMaxResult,
    BisectionFailure,
    max_quad_over_ball,
)
from .lqc import (
    AmbiguitySpec,
    CompactCost,
    LqcSocp,
    LqcSpec,
    RecedingHorizonError,
    SimulationRecord,
    box_polyhedron,
    build_compact_cost,
    build_dr_regret_socp,
    build_dr_socp,
    build_regret_socp,
    build_robust_socp,
    receding_horizon_simulate,
    scalar_benchmark_spec,
    time_invariant_spec,
)
from .mpc import (
    MpcSocp,
    MpcSpec,
    TerminalDiag,
    build_mpc_socp,
    emit_input_containment,
    emit_invariance_constraints,
    emit_state_containment,
    max_fixed_radius,
)
from .problemfile import ProblemFileError, load_problem, parse_problem, save_problem
from .verify import Check, WorstCase, verify_result, worst_case

__version__ = "0.1.0"
