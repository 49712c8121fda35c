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
from .formula import Factor, FormulaError, IdFormula, render
from .graphs import (
    DegenerateConditioningError,
    EstimationError,
    GraphError,
    GraphParseError,
    Pdag,
    UnknownNodeError,
    parse_graph,
)
from .identify import (
    AdjustmentResult,
    IdentifyResult,
    NotTruncatableError,
    check_adjustment,
    find_adjustment_set,
    identify,
    truncated_factorization,
)
from .meek import (
    BackgroundKnowledge,
    InconsistentKnowledgeError,
    close,
    enumerate_dags,
    is_mpdag,
    parse_background_knowledge,
)
from .paths import (
    amenability_witness,
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
    "cross_dag_agreement": "oracle",
    "gformula_table": "oracle",
    "id_formula_table": "oracle",
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
    "NotTruncatableError",
    "Pdag",
    "UnknownNodeError",
    "amenability_witness",
    "check_adjustment",
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
    "is_mpdag",
    "joint_table",
    "model_from_joint",
    "nonid_witness",
    "parse_background_knowledge",
    "parse_graph",
    "pco",
    "random_model",
    "render",
    "simulate",
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
