"""Causal effect identification and adjustment in MPDAGs.

``identify`` decides whether f(y | do(x)) is computable from every
observational density compatible with the graph, and emits the symbolic
factorization when it is.  ``check_adjustment`` and
``find_adjustment_set`` implement the generalized adjustment criterion,
which is sufficient but not necessary for identification.
"""

from __future__ import annotations

from typing import Iterable, Literal, Optional

from . import paths
from .buckets import pco
from .formula import Factor, IdFormula, _Frozen, _set
from .graphs import GraphError, Pdag, reach
from .meek import require_mpdag


class NotTruncatableError(GraphError):
    """An undirected edge joins the intervened set to the rest of the graph."""


class IdentifyResult(_Frozen):
    """Either a formula or a witness path proving non-identifiability.

    The witness is a proper possibly causal path from X to Y that starts
    with an undirected edge; any such path defeats identification.
    """

    __slots__ = ("formula", "witness")

    def __init__(
        self, formula: Optional[IdFormula] = None, witness: Optional[paths.Path] = None
    ):
        _set(self, "formula", formula)
        _set(self, "witness", witness)

    @property
    def identifiable(self) -> bool:
        return self.formula is not None


class AdjustmentResult(_Frozen):
    __slots__ = ("status", "adjustment", "reason")

    def __init__(
        self,
        status: Literal["set_found", "none_exists", "zero_effect"],
        adjustment: Optional[frozenset[str]] = None,
        reason: Optional[Literal["not_amenable", "blocked_path_unachievable"]] = None,
    ):
        _set(self, "status", status)
        _set(self, "adjustment", adjustment)
        _set(self, "reason", reason)


def _bucket_factors(g: Pdag, buckets) -> tuple[Factor, ...]:
    return tuple(Factor(targets=b, given=g.set_parents(b)) for b in buckets)


def _ancestor_formula(g: Pdag, xs: frozenset[str], ys: frozenset[str]) -> IdFormula:
    """f(b | pa(b)) over the PCO buckets of the ancestors of Y in G[V - X]."""
    ancestors = reach(ys, g._parents, xs)
    return IdFormula(
        factors=_bucket_factors(g, pco(g, ancestors)), intervened=xs, response=ys
    )


def identify(g: Pdag, X: Iterable[str], Y: Iterable[str]) -> IdentifyResult:
    """Decide identifiability of f(y | do(x)) in the MPDAG ``g``.

    When no proper possibly causal path from X to Y starts with an
    undirected edge, the effect is identifiable and the returned formula
    multiplies f(b_i | pa(b_i)) over the partial causal ordering of the
    ancestors of Y outside X, integrating out the non-response ancestors.
    With X empty this reduces to the observational ancestor factorization
    of the marginal of Y.  When X is nonempty and no possibly causal path
    from X to Y exists at all, the simplified formula f(y) is returned.
    """
    g = require_mpdag(g)
    xs = g.require(X)
    ys = g.require(Y)
    if not ys:
        raise GraphError("Y must be nonempty")
    if xs & ys:
        raise GraphError("X and Y must be disjoint")

    if xs:
        witness = paths.amenability_witness(g, xs, ys)
        if witness is not None:
            return IdentifyResult(witness=witness)
        if not paths.exists_possibly_causal(g, xs, ys):
            return IdentifyResult(
                formula=IdFormula(
                    factors=(Factor(targets=ys),), intervened=xs, response=ys
                )
            )
    return IdentifyResult(formula=_ancestor_formula(g, xs, ys))


def truncated_factorization(g: Pdag, X: Iterable[str]) -> IdFormula:
    """f(v' | do(x)) over the buckets containing no intervened node.

    Raises :class:`NotTruncatableError` when some undirected edge joins X
    to the rest of the graph, in which case the full interventional joint
    is not identifiable.  With X empty this is the observational
    factorization f(v).
    """
    g = require_mpdag(g)
    xs = g.require(X)
    rest = frozenset(g.nodes) - xs
    if not rest:
        raise GraphError("X covers the whole graph; nothing to factorize")
    for a, b in g.undirected:
        if (a in xs) != (b in xs):
            inside, outside = (a, b) if a in xs else (b, a)
            raise NotTruncatableError(
                f"undirected edge {inside} -- {outside} leaves the intervened set"
            )
    buckets = [b for b in pco(g, g.nodes) if not b & xs]
    return IdFormula(
        factors=_bucket_factors(g, buckets), intervened=xs, response=rest
    )


def check_adjustment(g: Pdag, X, Y, Z) -> bool:
    """Generalized adjustment criterion for Z relative to (X, Y).

    Z qualifies when (1) no proper possibly causal path from X to Y starts
    with an undirected edge, (2) Z avoids the forbidden set, and (3) Z
    blocks every proper non-causal definite-status path from X to Y.
    """
    g = require_mpdag(g)
    xs, ys = g.require(X), g.require(Y)
    zs = g.require(Z)
    if xs & ys or zs & (xs | ys) or not xs or not ys:
        raise GraphError("X, Y, Z must be pairwise disjoint; X, Y nonempty")
    if paths.amenability_witness(g, xs, ys) is not None:
        return False
    if zs & paths.forbidden_set(g, xs, ys):
        return False
    return not paths.unblocked_proper_noncausal_path(g, xs, ys, zs)


def find_adjustment_set(g: Pdag, X, Y) -> AdjustmentResult:
    """Search for an adjustment set relative to (X, Y).

    For singleton X and Y the parent set of X is complete: it is an
    adjustment set whenever any exists (and Y being a parent of X means
    the effect is zero).  For set-valued X or Y the constructive set
    PossAn(X ∪ Y) ∖ (X ∪ Y ∪ Forb) is an adjustment set whenever any
    exists (Perković, Textor, Kalisch & Maathuis 2018), so it is checked
    once and returned.
    """
    g = require_mpdag(g)
    xs, ys = g.require(X), g.require(Y)
    if not xs or not ys or xs & ys:
        raise GraphError("X and Y must be nonempty and disjoint")

    singleton = len(xs) == len(ys) == 1
    if singleton and ys <= g.set_parents(xs):
        return AdjustmentResult(status="zero_effect")
    if paths.amenability_witness(g, xs, ys) is not None:
        return AdjustmentResult(status="none_exists", reason="not_amenable")
    if singleton:
        return AdjustmentResult(status="set_found", adjustment=g.set_parents(xs))

    candidate = g.possible_ancestors(xs | ys) - xs - ys - paths.forbidden_set(g, xs, ys)
    if check_adjustment(g, xs, ys, candidate):
        return AdjustmentResult(status="set_found", adjustment=candidate)
    return AdjustmentResult(status="none_exists", reason="blocked_path_unachievable")
