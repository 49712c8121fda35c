"""Causal effect identification in maximally oriented PDAGs.

Parse a partially directed graph, close it with background knowledge,
decide whether f(y | do(x)) is identifiable, emit and render the
symbolic identification formula, test the generalized adjustment
criterion, verify everything against brute-force oracles over the
represented equivalence class, and estimate effects from Gaussian data.
"""

from .buckets import Bucket, Buckets, pco
from .estimate import Dataset, EstimationError, gaussian_effect
from .formula import (
    Factor,
    FormulaError,
    IdFormula,
    parse_formula_json,
    render,
    structurally_equal,
)
from .graphs import (
    GraphError,
    GraphParseError,
    Pdag,
    UnknownNodeError,
    parse_graph,
    relatives,
)
from .identify import (
    AdjustmentResult,
    IdentifyResult,
    NotTruncatableError,
    adjustment_formula,
    check_adjustment,
    find_adjustment_set,
    identify,
    identify_long_form,
    truncated_factorization,
)
from .meek import (
    BackgroundKnowledge,
    InconsistentKnowledgeError,
    close,
    is_mpdag,
    parse_background_knowledge,
)
from .oracle import (
    AgreementReport,
    DegenerateConditioningError,
    DiscreteModel,
    GaussianModel,
    InterventionalTable,
    MarginalTable,
    cross_dag_agreement,
    enumerate_dags,
    gformula_table,
    id_formula_table,
    interventional_means,
    joint_table,
    model_from_joint,
    nonid_witness,
    random_model,
    simulate,
    wright_cov,
)
from .paths import (
    PathStatus,
    amenability_witness,
    classify_path,
    d_separated,
    exists_possibly_causal,
    forbidden_set,
    unblocked_proper_noncausal_path,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustmentResult",
    "AgreementReport",
    "BackgroundKnowledge",
    "Bucket",
    "Buckets",
    "Dataset",
    "DegenerateConditioningError",
    "DiscreteModel",
    "EstimationError",
    "Factor",
    "FormulaError",
    "GaussianModel",
    "GraphError",
    "GraphParseError",
    "IdFormula",
    "IdentifyResult",
    "InconsistentKnowledgeError",
    "InterventionalTable",
    "MarginalTable",
    "NotTruncatableError",
    "Pdag",
    "PathStatus",
    "UnknownNodeError",
    "adjustment_formula",
    "amenability_witness",
    "check_adjustment",
    "classify_path",
    "close",
    "cross_dag_agreement",
    "d_separated",
    "enumerate_dags",
    "exists_possibly_causal",
    "find_adjustment_set",
    "forbidden_set",
    "gaussian_effect",
    "gformula_table",
    "id_formula_table",
    "identify",
    "identify_long_form",
    "interventional_means",
    "is_mpdag",
    "joint_table",
    "model_from_joint",
    "nonid_witness",
    "parse_background_knowledge",
    "parse_formula_json",
    "parse_graph",
    "pco",
    "random_model",
    "relatives",
    "render",
    "simulate",
    "structurally_equal",
    "truncated_factorization",
    "unblocked_proper_noncausal_path",
    "wright_cov",
]
