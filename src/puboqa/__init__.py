"""Constrained integer programs -> unconstrained binary polynomials -> QAOA.

The pipeline: declare a polynomial integer program (model), binarize it,
fold its constraints into the objective as penalties with compile_problem
(reformulate), tabulate the resulting pseudo-Boolean polynomial (pbf) over
the hypercube and minimize it with a simulated QAOA loop (qaoa). The extbp
module declares the extended bin packing benchmark as a Problem and encodes
it on the PUBO or QUBO route through that same path; harness is the
command-line front end.
"""

from .extbp import (
    Classification,
    EbpAssignment,
    EbpInstance,
    Encoding,
    brute_force,
    builtin_instance,
    classify,
    encode,
    is_feasible,
    objective_value,
)
from .model import BinCodec, Constraint, Problem, binarize, canonicalize
from .pbf import Polynomial
from .qaoa import (
    CostTable,
    QaoaConfig,
    RunRecord,
    build_cost_table,
    estimate_loss,
    evolve,
    optimize,
    run,
    sample,
)
from .reformulate import (
    compile_problem,
    compose_unconstrained,
    eq_penalty,
    ge_penalty,
    lambda_default,
    le_penalty,
    penalty_for,
    product_penalty,
    reduce_to_quadratic,
    slack_penalty,
)

__version__ = "0.1.0"

__all__ = [
    "BinCodec",
    "Classification",
    "Constraint",
    "CostTable",
    "EbpAssignment",
    "EbpInstance",
    "Encoding",
    "Polynomial",
    "Problem",
    "QaoaConfig",
    "RunRecord",
    "binarize",
    "brute_force",
    "build_cost_table",
    "builtin_instance",
    "canonicalize",
    "classify",
    "compile_problem",
    "compose_unconstrained",
    "encode",
    "eq_penalty",
    "estimate_loss",
    "evolve",
    "ge_penalty",
    "is_feasible",
    "lambda_default",
    "le_penalty",
    "objective_value",
    "optimize",
    "penalty_for",
    "product_penalty",
    "reduce_to_quadratic",
    "run",
    "sample",
    "slack_penalty",
]
