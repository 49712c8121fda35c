"""Causal effect identification in maximally oriented PDAGs.

Parse a partially directed graph, close it with background knowledge,
decide whether f(y | do(x)) is identifiable, emit and render the
symbolic identification formula, test the generalized adjustment
criterion, verify everything against brute-force oracles over the
represented equivalence class, and estimate effects from Gaussian data.

The numpy-backed ``oracle`` and ``estimate`` modules, and the names taken
from them, load on first access, so importing the package loads no numpy.
"""

import importlib

from .buckets import Bucket, Buckets, pco
from .formula import (
    Factor,
    FormulaError,
    IdFormula,
    parse_formula_json,
    render,
    structurally_equal,
)
from .graphs import (
    DegenerateConditioningError,
    EstimationError,
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

# Name -> the numpy-backed module that defines it; see ``__getattr__``.
_LAZY = {
    "Dataset": "estimate",
    "gaussian_effect": "estimate",
    "AgreementReport": "oracle",
    "DiscreteModel": "oracle",
    "GaussianModel": "oracle",
    "InterventionalTable": "oracle",
    "MarginalTable": "oracle",
    "cross_dag_agreement": "oracle",
    "enumerate_dags": "oracle",
    "gformula_table": "oracle",
    "id_formula_table": "oracle",
    "interventional_means": "oracle",
    "joint_table": "oracle",
    "model_from_joint": "oracle",
    "nonid_witness": "oracle",
    "random_model": "oracle",
    "simulate": "oracle",
    "wright_cov": "oracle",
}

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


def __getattr__(name: str):
    """Import ``oracle`` or ``estimate``, or a name from one of them, on
    first access (PEP 562), and bind it here so later lookups skip this."""
    if name in ("estimate", "oracle"):
        value = importlib.import_module(f".{name}", __name__)
    elif name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
