"""Brute-force verification machinery.

Everything here favors being obviously correct over being fast: discrete
evaluation enumerates the full joint (capped at 2**20 configurations),
the equivalence class is enumerated DAG by DAG, and linear-Gaussian
covariances come from Wright's path rule, accumulated node by node over a
topological order.

A :class:`DiscreteModel` is immutable (it keeps read-only copies of its
tables), so what is derived from it is computed once per model and
memoised on it: each node's factor laid out over the joint's axes, the
joint itself, the joint's marginals by node set and the conditionals
formula factors take from them.  The tables built from the memo are
bit-identical to building them afresh, since every product and sum keeps
its operands and their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from . import paths
from .estimate import Dataset
from .formula import IdFormula
from .graphs import DegenerateConditioningError, GraphError, Pdag, topological_order
from .meek import InconsistentKnowledgeError, close, require_mpdag

CONFIG_CAP = 2**20


# ---------------------------------------------------------------------------
# Equivalence-class enumeration
# ---------------------------------------------------------------------------


def enumerate_dags(g: Pdag) -> list[Pdag]:
    """All DAGs represented by the MPDAG ``g``, in the order of their
    orientation bitstrings over the sorted skeleton (``a -> b`` with
    ``a < b`` before ``b -> a``), so the list is canonical.

    Every returned DAG has the adjacencies and unshielded colliders of
    ``g`` and contains all its directed edges.
    """
    return list(_depth_first(require_mpdag(g)))


def _first_dag(h: Pdag) -> Pdag:
    """``enumerate_dags(h)[0]`` for a closed ``h``, without enumerating
    past its first leaf."""
    return next(_depth_first(h))


def _depth_first(h: Pdag) -> Iterator[Pdag]:
    """The DAGs represented by the closed ``h``, depth first.

    It branches ``a -> b`` before ``b -> a`` on the least undirected edge
    ``(a, b)`` and re-closes.  Every skeleton edge below that one is
    already directed, so leaves come in orientation-bitstring order.  A
    branch whose closure fails, there or further down, holds no leaf.  A
    leaf is a closure without undirected edges, re-tagged ``dag``
    unchecked.
    """
    if not h.undirected:
        yield h._retag("dag")
        return
    a, b = min(h.undirected)
    for pair in ((a, b), (b, a)):
        try:
            branch = close(h, (pair,))
        except InconsistentKnowledgeError:
            continue
        yield from _depth_first(branch)


# ---------------------------------------------------------------------------
# Discrete models and g-formula evaluation
# ---------------------------------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Memo:
    """Tables derived from one model, each built on first use.

    ``factors[v]`` is ``cpts[v]`` laid out to broadcast over the axes of
    ``dag.nodes``; ``joint`` is their product; ``marginals[keep]`` is the
    joint summed over the nodes outside ``keep``, with every axis kept;
    ``conditionals[(targets, given)]`` is the marginal of ``targets | given``
    over its sum over ``targets``, or None when that sum has a zero.  Every
    array is read-only.  The memo holds no reference to its model, so no
    reference cycle outlives the model.
    """

    __slots__ = ("factors", "joint", "marginals", "conditionals")

    def __init__(self):
        self.factors: Optional[dict[str, np.ndarray]] = None
        self.joint: Optional[np.ndarray] = None
        self.marginals: dict[frozenset[str], np.ndarray] = {}
        self.conditionals: dict[tuple[frozenset[str], frozenset[str]], Optional[np.ndarray]] = {}


@dataclass(frozen=True)
class DiscreteModel:
    """Per-node conditional probability tables for a DAG.

    ``cpts[v]`` has axes ``(v, *sorted(parents))``; every column (fixed
    parent configuration) sums to one within 1e-12.  The model keeps
    read-only copies of ``cards`` and ``cpts``, so a caller's later change
    to its own arrays cannot make the memoised tables stale.
    """

    dag: Pdag
    cards: Mapping[str, int]
    cpts: Mapping[str, np.ndarray]
    _memo: _Memo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dag.undirected:
            raise GraphError("discrete models require a DAG")
        cards = MappingProxyType(dict(self.cards))
        cpts: dict[str, np.ndarray] = {}
        for v in self.dag.nodes:
            if cards.get(v, 0) < 2:
                raise GraphError(f"cardinality of {v} must be >= 2")
            cpt = np.array(self.cpts[v])
            expected = (cards[v],) + tuple(cards[p] for p in sorted(self.dag.parents_of(v)))
            if cpt.shape != expected:
                raise GraphError(f"cpt shape mismatch at {v}: {cpt.shape} != {expected}")
            # A NaN anywhere fails both comparisons.
            if not (cpt.min() >= 0 and np.abs(cpt.sum(axis=0) - 1.0).max() <= 1e-12):
                raise GraphError(f"cpt columns at {v} must be distributions")
            cpts[v] = _read_only(cpt)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "cpts", MappingProxyType(cpts))
        object.__setattr__(self, "_memo", _Memo())

    def _factors(self) -> dict[str, np.ndarray]:
        memo = self._memo
        if memo.factors is None:
            nodes = self.dag.nodes
            _check_cap(self.cards, nodes)
            memo.factors = {
                v: _read_only(_expand(nodes, self.cpts[v], [v] + sorted(self.dag.parents_of(v))))
                for v in nodes
            }
        return memo.factors

    def _joint(self) -> np.ndarray:
        memo = self._memo
        if memo.joint is None:
            nodes = self.dag.nodes
            factors = self._factors()
            full = np.ones([self.cards[n] for n in nodes])
            for v in nodes:
                full = full * factors[v]
            memo.joint = _read_only(full)
        return memo.joint

    def _marginal(self, keep: frozenset[str]) -> np.ndarray:
        marginals = self._memo.marginals
        table = marginals.get(keep)
        if table is None:
            drop = tuple(i for i, n in enumerate(self.dag.nodes) if n not in keep)
            table = marginals[keep] = _read_only(self._joint().sum(axis=drop, keepdims=True))
        return table

    def _conditional(self, targets: frozenset[str], given: frozenset[str]) -> Optional[np.ndarray]:
        """f(targets | given) laid out over the joint's axes; None when a
        configuration of ``given`` has probability zero."""
        conditionals = self._memo.conditionals
        key = (targets, given)
        if key not in conditionals:
            num = self._marginal(targets | given)
            nodes = self.dag.nodes
            den = num.sum(axis=tuple(i for i, n in enumerate(nodes) if n in targets), keepdims=True)
            conditionals[key] = None if (den == 0).any() else _read_only(num / den)
        return conditionals[key]


@dataclass(frozen=True)
class InterventionalTable:
    """f(y | do(x)) for every configuration jointly.

    Axes are ``x_nodes + y_nodes`` (each sorted); an x axis of size one
    means the quantity does not depend on that intervened variable.
    """

    x_nodes: tuple[str, ...]
    y_nodes: tuple[str, ...]
    table: np.ndarray

    def max_tv(self, other: "InterventionalTable") -> float:
        """Largest total-variation distance over intervened configurations."""
        if self.x_nodes != other.x_nodes or self.y_nodes != other.y_nodes:
            raise ValueError("tables are over different node sets")
        diff = np.abs(self.table - other.table)
        y_axes = tuple(range(diff.ndim - len(self.y_nodes), diff.ndim))
        tv = 0.5 * diff.sum(axis=y_axes) if y_axes else 0.5 * diff
        return float(tv.max())


def random_model(dag: Pdag, cardinalities: Mapping[str, int], seed: int) -> DiscreteModel:
    """CPT entries drawn column-wise from a symmetric Dirichlet(1).

    The generator is ``numpy.random.Generator(PCG64(seed))``, pinned so
    golden numbers stay stable across platforms.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    cpts: dict[str, np.ndarray] = {}
    for v in dag.nodes:
        pa = sorted(dag.parents_of(v))
        n_cols = math.prod(cardinalities[p] for p in pa) if pa else 1
        draw = rng.dirichlet(np.ones(cardinalities[v]), size=n_cols)
        cpts[v] = np.ascontiguousarray(
            draw.T.reshape((cardinalities[v],) + tuple(cardinalities[p] for p in pa))
        )
    return DiscreteModel(dag=dag, cards=dict(cardinalities), cpts=cpts)


def _check_cap(cards: Mapping[str, int], nodes: Sequence[str]) -> None:
    total = math.prod(cards[n] for n in nodes)
    if total > CONFIG_CAP:
        raise GraphError(f"joint has {total} configurations; cap is {CONFIG_CAP}")


def _expand(nodes: Sequence[str], table: np.ndarray, table_axes: Sequence[str]) -> np.ndarray:
    """Reshape ``table`` so it broadcasts over the full ``nodes`` space."""
    pos = {n: i for i, n in enumerate(nodes)}
    order = sorted(range(len(table_axes)), key=lambda i: pos[table_axes[i]])
    shape = [1] * len(nodes)
    for i in order:
        shape[pos[table_axes[i]]] = table.shape[i]
    return table.transpose(order).reshape(shape)


def joint_table(m: DiscreteModel) -> np.ndarray:
    """The observational joint, axes following ``m.dag.nodes``; the
    model's memoised, read-only array."""
    return m._joint()


def model_from_joint(
    joint: np.ndarray, nodes: Sequence[str], cards: Mapping[str, int], dag: Pdag
) -> DiscreteModel:
    """Refactor a joint according to another DAG over the same nodes.

    Conditionals at zero-probability parent configurations are filled
    uniformly; they carry no mass.
    """
    cpts: dict[str, np.ndarray] = {}
    for v in dag.nodes:
        keep = [v] + sorted(dag.parents_of(v))
        drop = tuple(i for i, n in enumerate(nodes) if n not in keep)
        marg = joint.sum(axis=drop)
        kept_in_order = [n for n in nodes if n in keep]
        marg = np.transpose(marg, [kept_in_order.index(n) for n in keep])
        den = marg.sum(axis=0, keepdims=True)
        cpt = np.divide(
            marg, den, out=np.full_like(marg, 1.0 / cards[v]), where=den > 0
        )
        cpts[v] = cpt
    return DiscreteModel(dag=dag, cards=dict(cards), cpts=cpts)


def gformula_table(m: DiscreteModel, X: Iterable[str], Y: Iterable[str]) -> InterventionalTable:
    """Truncated factorization f(y | do(x)) for all (x, y) at once."""
    xs = m.dag.require(X)
    ys = m.dag.require(Y)
    if xs & ys:
        raise GraphError("X and Y must be disjoint")
    factors = m._factors()
    nodes = m.dag.nodes
    full = np.ones([m.cards[n] for n in nodes])
    for v in nodes:
        if v not in xs:
            full = full * factors[v]
    xy = xs | ys
    drop = tuple(i for i, n in enumerate(nodes) if n not in xy)
    kept = [n for n in nodes if n in xy]
    x_nodes, y_nodes = tuple(sorted(xs)), tuple(sorted(ys))
    table = full.sum(axis=drop).transpose([kept.index(n) for n in x_nodes + y_nodes])
    return InterventionalTable(x_nodes, y_nodes, table)


def id_formula_table(f: IdFormula, m: DiscreteModel) -> InterventionalTable:
    """Evaluate a formula against the observational joint of ``m``.

    Every factor is a conditional of the joint, memoised on ``m``; the
    product is then summed over the formula's integration set.  Raises
    :class:`DegenerateConditioningError` when any needed conditional has a
    zero-probability conditioning configuration.
    """
    nodes = m.dag.nodes
    formula_nodes = set(f.intervened) | set(f.response)
    for factor in f.factors:
        formula_nodes |= factor.targets | factor.given
    for n in formula_nodes:
        if n not in m.dag:
            raise GraphError(f"formula node {n} missing from the model")

    prod = np.ones([1] * len(nodes))
    for factor in f.factors:
        conditional = m._conditional(factor.targets, factor.given)
        if conditional is None:
            raise DegenerateConditioningError("conditioning on a zero-probability event")
        prod = prod * conditional

    pos = {n: i for i, n in enumerate(nodes)}
    io_axes = tuple(pos[n] for n in f.integrate_over)
    table = prod.sum(axis=io_axes, keepdims=True) if io_axes else prod
    keep_nodes = f.intervened | f.response
    drop_axes = tuple(i for i, n in enumerate(nodes) if n not in keep_nodes)
    assert all(table.shape[i] == 1 for i in drop_axes)
    if drop_axes:
        table = table.squeeze(axis=drop_axes)
    kept = [n for n in nodes if n in keep_nodes]
    x_nodes, y_nodes = tuple(sorted(f.intervened)), tuple(sorted(f.response))
    table = table.transpose([kept.index(n) for n in x_nodes + y_nodes])
    return InterventionalTable(x_nodes, y_nodes, table)


# ---------------------------------------------------------------------------
# Linear-Gaussian models, covariances, and disagreement witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianModel:
    """Linear structural equation model with independent Gaussian noise.

    ``coeffs`` maps directed edges to their coefficients and
    ``noise_vars`` holds the residual variances.  The witness builder
    chooses residual variances so every variable has variance one, which
    is what :func:`wright_cov`'s recursion over a topological order
    assumes.
    """

    dag: Pdag
    coeffs: Mapping[tuple[str, str], float]
    noise_vars: Mapping[str, float]

    def __post_init__(self):
        if self.dag.undirected:
            raise GraphError("gaussian models require a DAG")
        for edge in self.coeffs:
            if edge not in self.dag.directed:
                raise GraphError(f"coefficient for non-edge {edge}")
        for v in self.dag.nodes:
            if self.noise_vars.get(v, -1.0) < 0:
                raise GraphError(f"noise variance of {v} must be nonnegative")

    def coeff(self, tail: str, head: str) -> float:
        return float(self.coeffs.get((tail, head), 0.0))

    def topological_order(self) -> list[str]:
        """The DAG's nodes in a topological order: of the nodes whose parents
        are all placed, the one earliest in ``dag.nodes`` is placed next."""
        dag = self.dag
        order = topological_order(dag.nodes, dag._parents, dag._children)
        if len(order) < len(dag.nodes):
            raise GraphError("cyclic model")
        return order


def wright_cov(m: GaussianModel) -> tuple[tuple[str, ...], np.ndarray]:
    """Covariance matrix by Wright's path rule, in its recursive form over
    a topological order: Cov(v, w) is the sum over parents p of v of
    coeff(p, v) * Cov(p, w), for every w placed before v.  Assumes the
    unit-variance construction, so the diagonal is one."""
    nodes = m.dag.nodes
    idx = {n: i for i, n in enumerate(nodes)}
    cov = np.eye(len(nodes))
    placed: list[int] = []
    for v in m.topological_order():
        i = idx[v]
        pa = [(idx[p], m.coeff(p, v)) for p in sorted(m.dag.parents_of(v))]
        for j in placed:
            cov[i, j] = cov[j, i] = sum(c * cov[p, j] for p, c in pa)
        placed.append(i)
    return nodes, cov


def simulate(m: GaussianModel, n: int, seed: int) -> Dataset:
    """Draw ``n`` rows from the SEM; columns follow the graph node order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cols = {v: None for v in m.dag.nodes}
    for v in m.topological_order():
        x = math.sqrt(m.noise_vars[v]) * rng.standard_normal(n)
        for p in m.dag.parents_of(v):
            c = m.coeff(p, v)
            if c != 0.0:
                x = x + c * cols[p]
        cols[v] = x
    return Dataset(columns=list(m.dag.nodes), rows=np.column_stack([cols[v] for v in m.dag.nodes]))


def nonid_witness(
    g: Pdag,
    X: Iterable[str],
    Y: Iterable[str],
    coeffs: Union[float, Sequence[float]] = 0.5,
) -> tuple[GaussianModel, GaussianModel, float]:
    """Two unit-variance Gaussian models with identical observational law
    and different interventional means.

    The amenability witness q = <X, V1, ..., Y> is realized as
    X -> V1 -> ... -> Y in one represented DAG and as X <- V1 -> ... -> Y
    in another (:class:`GraphError` when either closure fails); edge
    coefficients off the path are zero, so both models share the same
    covariance while E[Y | do(x)] differs by the product of the path
    coefficients (returned as ``delta``).
    """
    g = require_mpdag(g)
    xs = g.require(X)
    ys = g.require(Y)
    q = paths.amenability_witness(g, xs, ys)
    if q is None:
        raise GraphError("effect is identifiable; no witness path exists")
    forward = list(zip(q, q[1:]))
    flipped = [(q[1], q[0])] + forward[1:]
    try:
        d1 = _first_dag(close(g, forward))
        d2 = _first_dag(close(g, flipped))
    except InconsistentKnowledgeError:
        raise GraphError("the witness path is not realizable in both orientations") from None

    k = len(q) - 1
    if isinstance(coeffs, (int, float)):
        cs = [float(coeffs)] * k
    else:
        cs = [float(c) for c in coeffs]
        if len(cs) != k:
            raise GraphError(f"need {k} coefficients for a {k}-edge path")
    if any(not 0.0 < abs(c) < 1.0 for c in cs):
        raise GraphError("path coefficients must lie in (0, 1) in magnitude")

    def build(dag: Pdag, edges: Sequence[tuple[str, str]]) -> GaussianModel:
        coeff_map = {e: c for e, c in zip(edges, cs)}
        for e in coeff_map:
            if e not in dag.directed:
                raise GraphError(f"witness edge {e} missing after closure")
        noise = {}
        for v in dag.nodes:
            into = [c for (t, h), c in coeff_map.items() if h == v]
            assert len(into) <= 1, "witness path gives each node one parent"
            noise[v] = 1.0 - (into[0] ** 2 if into else 0.0)
        return GaussianModel(dag=dag, coeffs=coeff_map, noise_vars=noise)

    m1 = build(d1, forward)
    m2 = build(d2, flipped)
    delta = math.prod(abs(c) for c in cs)
    return m1, m2, delta


# ---------------------------------------------------------------------------
# Cross-DAG agreement sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgreementReport:
    n_dags: int
    n_models: int
    max_cross_dag_tv: float
    max_formula_tv: float


def cross_dag_agreement(
    g: Pdag,
    X: Iterable[str],
    Y: Iterable[str],
    formula: IdFormula,
    *,
    n_models: int = 20,
    seed: int = 0,
    card: int = 2,
    dags: Optional[list[Pdag]] = None,
) -> AgreementReport:
    """Check that every represented DAG assigns the same interventional law
    and that the formula reproduces it.

    For each random model (built on DAGs round-robin), the joint is
    refactored along every DAG in the class and the truncated
    factorization is compared across DAGs and against the formula, over
    all intervention configurations at once.
    """
    g = require_mpdag(g)
    xs, ys = g.require(X), g.require(Y)
    if dags is None:
        dags = enumerate_dags(g)
    cards = {n: card for n in g.nodes}
    max_tv = 0.0
    max_formula = 0.0
    for k in range(n_models):
        base = dags[k % len(dags)]
        model = random_model(base, cards, seed=seed + k)
        joint = joint_table(model)
        reference: Optional[InterventionalTable] = None
        for d in dags:
            refit = model if d is base else model_from_joint(joint, g.nodes, cards, d)
            table = gformula_table(refit, xs, ys)
            if reference is None:
                reference = table
            else:
                max_tv = max(max_tv, reference.max_tv(table))
        assert reference is not None
        formula_table = id_formula_table(formula, model)
        max_formula = max(max_formula, reference.max_tv(formula_table))
    return AgreementReport(len(dags), n_models, max_tv, max_formula)
