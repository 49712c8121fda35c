"""Brute-force verification machinery.

Everything here favors being obviously correct over being fast: discrete
evaluation enumerates the full joint (capped at 2**20 configurations),
agreement is checked over the class that ``meek.enumerate_dags`` lists,
and linear-Gaussian covariances come from Wright's path rule, accumulated
node by node over a topological order.

A :class:`DiscreteModel` is immutable (it keeps read-only copies of its
tables), so what is derived from it is computed once per model and
memoised on it: each node's factor laid out over the joint's axes, the
joint itself, the joint's marginals by node set and the conditionals
formula factors take from them.  The tables built from the memo are
bit-identical to building them afresh, since every product and sum keeps
its operands and their order.

Models are batched without changing a number.  A model may be a batch
of models over one DAG: its CPTs, and every table derived from it, carry
a leading model axis, and row i is bit for bit the table of model i
alone; a single model runs the same code without that axis.  One
``standard_exponential`` call draws each run of nodes of one cardinality
for every model of a batch, the CPTs of one cardinality are checked at
once (still naming the first failing node), and the axis bookkeeping of
refits and broadcast factors is cached per node tuple and family.

``cross_dag_agreement`` draws all models of a query from one generator,
batch after batch, refits the joints of a batch along one DAG per group
of DAGs with the same X-families, and refits each family once per batch:
a refit CPT depends only on the joints and the family, so every DAG with
that family shares it, bit for bit.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import paths
from .formula import IdFormula
from .graphs import DegenerateConditioningError, GraphError, Pdag, topological_order
from .meek import (
    InconsistentKnowledgeError,
    close,
    consistent_extension,
    enumerate_dags,
    require_mpdag,
)

if TYPE_CHECKING:
    from .estimate import Dataset

CONFIG_CAP = 2**20


# ---------------------------------------------------------------------------
# Discrete models and g-formula evaluation
# ---------------------------------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class DiscreteModel:
    """Per-node conditional probability tables for a DAG.

    ``cpts[v]`` has axes ``(v, *sorted(parents))``; every column (fixed
    parent configuration) sums to one within 1e-12.  With ``batch`` set,
    the model is that many models over ``dag`` and every CPT has a leading
    model axis of that length.  The model keeps read-only copies of
    ``cards`` and ``cpts``, so a caller's later change to its own arrays
    cannot make the memoised tables stale.
    """

    dag: Pdag
    cards: Mapping[str, int]
    cpts: Mapping[str, np.ndarray]
    batch: Optional[int] = None
    _lead: tuple[int, ...] = field(init=False, repr=False)
    # Memos of ``_marginal`` by the node set kept and of ``_conditional``
    # by (targets, given); the joint and the factors are cached properties.
    _marginals: dict = field(default_factory=dict, init=False, repr=False)
    _conditionals: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.dag.undirected:
            raise GraphError("discrete models require a DAG")
        if self.batch is not None and self.batch < 1:
            raise GraphError("a batch holds at least one model")
        cards = MappingProxyType(dict(self.cards))
        cpts: dict[str, np.ndarray] = {}
        lead = () if self.batch is None else (self.batch,)  # the model axis's shape
        for v in self.dag.nodes:
            try:
                if cards.get(v, 0) < 2:
                    raise GraphError(f"cardinality of {v} must be >= 2")
                cpt = np.array(self.cpts[v])
                expected = (*lead, cards[v], *[cards[p] for p in sorted(self.dag.parents_of(v))])
                if cpt.shape != expected:
                    raise GraphError(f"cpt shape mismatch at {v}: {cpt.shape} != {expected}")
            except Exception:
                # The first failing node in node order is reported, so an
                # earlier node's distribution check goes first.
                _check_distributions(cpts, len(lead))
                raise
            cpts[v] = _read_only(cpt)
        _check_distributions(cpts, len(lead))
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "cpts", MappingProxyType(cpts))
        object.__setattr__(self, "_lead", lead)

    def _axes(self, keep) -> tuple[int, ...]:
        """The axes of the joint that hold the nodes satisfying ``keep``."""
        lead = len(self._lead)
        return tuple(lead + i for i, n in enumerate(self.dag.nodes) if keep(n))

    @functools.cached_property
    def _factors(self) -> dict[str, np.ndarray]:
        """Each node's CPT laid out to broadcast over the joint's axes."""
        nodes = self.dag.nodes
        _check_cap(self.cards, nodes)
        return {
            v: _read_only(_expand(nodes, self.cpts[v], (v, *sorted(self.dag.parents_of(v)))))
            for v in nodes
        }

    @functools.cached_property
    def _joint(self) -> np.ndarray:
        return _read_only(self._product(()))

    def _product(self, skip) -> np.ndarray:
        """The product of the factors of the nodes outside ``skip``, in
        node order, over the full joint's shape."""
        factors = self._factors
        full = np.ones([*self._lead, *[self.cards[n] for n in self.dag.nodes]])
        for v in self.dag.nodes:
            if v not in skip:
                full = full * factors[v]
        return full

    def _marginal(self, keep: frozenset[str]) -> np.ndarray:
        """The joint summed over the nodes outside ``keep``, every axis kept."""
        table = self._marginals.get(keep)
        if table is None:
            drop = self._axes(lambda n: n not in keep)
            table = self._marginals[keep] = _read_only(self._joint.sum(axis=drop, keepdims=True))
        return table

    def _conditional(self, targets: frozenset[str], given: frozenset[str]) -> Optional[np.ndarray]:
        """f(targets | given) laid out over the joint's axes; None when a
        configuration of ``given`` has probability zero in any model."""
        key = (targets, given)
        if key not in self._conditionals:
            num = self._marginal(targets | given)
            den = num.sum(axis=self._axes(targets.__contains__), keepdims=True)
            self._conditionals[key] = None if (den == 0).any() else _read_only(num / den)
        return self._conditionals[key]


def _is_distribution(columns: np.ndarray) -> bool:
    # Axis -2 holds a node's values, so each column sums along it.  A NaN
    # anywhere fails both comparisons.
    return bool(columns.min() >= 0 and np.abs(columns.sum(axis=-2) - 1.0).max() <= 1e-12)


def _check_distributions(cpts: Mapping[str, np.ndarray], lead: int) -> None:
    """Raise :class:`GraphError` naming the first CPT, in model order and then
    mapping order, with a column that is not a distribution; the CPTs have
    ``lead`` model axes.  The CPTs of one cardinality are checked at once as
    ``(card, -1)`` column blocks per model; a node is looked for only when
    a block fails."""
    columns = {v: cpt.reshape(*cpt.shape[: lead + 1], -1) for v, cpt in cpts.items()}
    blocks: dict[int, list[np.ndarray]] = {}
    for c in columns.values():
        blocks.setdefault(c.shape[-2], []).append(c)
    if all(_is_distribution(np.concatenate(b, axis=-1)) for b in blocks.values()):
        return
    for model in zip(*(c.reshape(-1, *c.shape[-2:]) for c in columns.values())):
        for v, c in zip(columns, model):
            if not _is_distribution(c):
                raise GraphError(f"cpt columns at {v} must be distributions")


@dataclass(frozen=True, eq=False)
class InterventionalTable:
    """f(y | do(x)) for every configuration jointly.

    Axes are ``x_nodes + y_nodes`` (each sorted), after the leading model
    axis of a batch; an x axis of size one means the quantity does not
    depend on that intervened variable.
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
        return float((0.5 * diff.sum(axis=y_axes)).max())


def random_model(
    dag: Pdag,
    cardinalities: Mapping[str, int],
    seed: Union[int, np.random.Generator],
    batch: Optional[int] = None,
) -> DiscreteModel:
    """CPT entries drawn column-wise from a symmetric Dirichlet(1).

    An int ``seed`` draws from ``numpy.random.Generator(PCG64(seed))``,
    pinned so golden numbers stay stable across platforms; a ``Generator``
    is drawn from where its stream stands, so calls on one generator draw
    one model after another.  Each run of consecutive nodes of one
    cardinality is drawn by one ``standard_exponential`` call and sliced
    per node; the generator draws the rows of a call in order, so this is
    the stream of one call per node.  Each row is summed left to right and
    multiplied by the reciprocal of its sum, which is how numpy's
    ``dirichlet`` draws Dirichlet(1): the draws are bit-identical to one
    ``dirichlet(np.ones(card), n_columns)`` call per node.  With ``batch``
    set, each run's call draws that run of every model, model after model,
    and the model axis leads; when all nodes share one cardinality (one
    run), row i is the model the i-th of ``batch`` calls without
    ``batch`` on the same generator would draw.
    """
    if batch is not None and batch < 1:
        raise GraphError("a batch holds at least one model")
    if isinstance(seed, np.random.Generator):
        rng = seed
    elif isinstance(seed, (int, np.integer)):
        rng = np.random.Generator(np.random.PCG64(seed))
    else:
        raise TypeError("seed must be an int or a numpy.random.Generator")
    lead = () if batch is None else (batch,)
    shapes = {
        v: (cardinalities[v], *(cardinalities[p] for p in sorted(dag.parents_of(v))))
        for v in dag.nodes
    }
    cpts: dict[str, np.ndarray] = {}
    for card, run in itertools.groupby(dag.nodes, key=lambda v: shapes[v][0]):
        n_cols = {v: math.prod(shapes[v][1:]) for v in run}
        draw = rng.standard_exponential((*lead, sum(n_cols.values()), card))
        total = draw[..., 0].copy()
        for i in range(1, card):
            total += draw[..., i]
        draw *= (1 / total)[..., None]
        row = 0
        for v, n in n_cols.items():
            cpt = draw[..., row : row + n, :].swapaxes(-1, -2).reshape(*lead, *shapes[v])
            cpts[v] = np.ascontiguousarray(cpt)
            row += n
    return DiscreteModel(dag, dict(cardinalities), cpts, batch=batch)


def _check_cap(cards: Mapping[str, int], nodes: Sequence[str]) -> None:
    total = math.prod(cards[n] for n in nodes)
    if total > CONFIG_CAP:
        raise GraphError(f"joint has {total} configurations; cap is {CONFIG_CAP}")


def _expand(nodes: Sequence[str], table: np.ndarray, table_axes: Sequence[str]) -> np.ndarray:
    """Reshape ``table``, after its leading model axes, to broadcast over ``nodes``."""
    lead = table.ndim - len(table_axes)
    order, slots = _expand_layout(tuple(nodes), tuple(table_axes), lead)
    shape = list(table.shape[:lead]) + [1] * len(nodes)
    for i, slot in slots:
        shape[slot] = table.shape[i]
    return table.transpose(order).reshape(shape)


@functools.lru_cache(maxsize=4096)
def _expand_layout(
    nodes: tuple[str, ...], table_axes: tuple[str, ...], lead: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The axes of a table with ``lead`` model axes, the rest put in
    ``nodes`` order, and each of the rest with its broadcast slot."""
    pos = {n: i for i, n in enumerate(nodes)}
    order = sorted(range(len(table_axes)), key=lambda i: pos[table_axes[i]])
    slots = tuple((lead + i, lead + pos[table_axes[i]]) for i in order)
    return (*range(lead), *(lead + i for i in order)), slots


def joint_table(m: DiscreteModel) -> np.ndarray:
    """The observational joint, axes following ``m.dag.nodes``; the
    model's memoised, read-only array."""
    return m._joint


def model_from_joint(
    joint: np.ndarray,
    nodes: Sequence[str],
    cards: Mapping[str, int],
    dag: Pdag,
    fits: Optional[dict[tuple[str, ...], np.ndarray]] = None,
) -> DiscreteModel:
    """Refactor a joint according to another DAG over the same nodes.

    A joint with a leading model axis gives a batch of that many models.
    Conditionals at zero-probability parent configurations are filled
    uniformly; they carry no mass.  ``fits``, when given, holds CPTs
    already refit from this same ``joint``, keyed by family
    ``(v, *sorted(parents))``: a family found there is not refit again,
    and each family refit here is added, so the DAGs of a class refit a
    family they share once.  A dict serves one joint only.
    """
    nodes = tuple(nodes)
    lead = joint.ndim - len(nodes)
    fits = {} if fits is None else fits
    cpts: dict[str, np.ndarray] = {}
    for v in dag.nodes:
        family = (v, *sorted(dag.parents_of(v)))
        if family not in fits:
            fits[family] = _refit_family(joint, nodes, family, cards[v], lead)
        cpts[v] = fits[family]
    return DiscreteModel(dag, dict(cards), cpts, batch=joint.shape[0] if lead else None)


def _refit_family(
    joint: np.ndarray, nodes: tuple[str, ...], family: tuple[str, ...], card: int, lead: int
) -> np.ndarray:
    """The CPT of ``family`` (node first, then its sorted parents) in a
    joint with ``lead`` model axes, uniform where the parents have no mass."""
    drop, perm = _family_layout(nodes, family, lead)
    marg = joint.sum(axis=drop).transpose(perm)
    den = marg.sum(axis=lead, keepdims=True)
    if den.all():
        return marg / den
    return np.divide(marg, den, out=np.full_like(marg, 1.0 / card), where=den > 0)


@functools.lru_cache(maxsize=4096)
def _family_layout(
    nodes: tuple[str, ...], keep: tuple[str, ...], lead: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axes outside ``keep`` of a joint with ``lead`` model axes, and the
    permutation that puts the rest after the model axes in ``keep`` order."""
    drop = tuple(lead + i for i, n in enumerate(nodes) if n not in keep)
    kept_in_order = [n for n in nodes if n in keep]
    return drop, (*range(lead), *(lead + kept_in_order.index(n) for n in keep))


def gformula_table(m: DiscreteModel, X: Iterable[str], Y: Iterable[str]) -> InterventionalTable:
    """Truncated factorization f(y | do(x)) for all (x, y) at once."""
    xs, ys = m.dag.require(X), m.dag.require(Y)
    if xs & ys:
        raise GraphError("X and Y must be disjoint")
    full = m._product(xs)
    x_nodes, y_nodes = tuple(sorted(xs)), tuple(sorted(ys))
    drop, perm = _family_layout(m.dag.nodes, x_nodes + y_nodes, len(m._lead))
    return InterventionalTable(x_nodes, y_nodes, full.sum(axis=drop).transpose(perm))


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

    lead = len(m._lead)
    prod = np.ones([1] * (lead + len(nodes)))
    for factor in f.factors:
        conditional = m._conditional(factor.targets, factor.given)
        if conditional is None:
            raise DegenerateConditioningError("conditioning on a zero-probability event")
        prod = prod * conditional

    # No factor targets X, so every axis outside X ∪ Y is integrated over
    # or, off the formula, of size one: one sum gives the table.
    x_nodes, y_nodes = tuple(sorted(f.intervened)), tuple(sorted(f.response))
    drop, perm = _family_layout(nodes, x_nodes + y_nodes, lead)
    return InterventionalTable(x_nodes, y_nodes, prod.sum(axis=drop).transpose(perm))


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
        return topological_order(dag.nodes, dag._parents, dag._children)


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
    """Draw ``n`` rows from the SEM; columns follow the graph node order.
    Only this function needs ``estimate``, so ``verify`` starts without
    it."""
    from .estimate import Dataset

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
    g: Pdag, X: Iterable[str], Y: Iterable[str]
) -> tuple[GaussianModel, GaussianModel, float]:
    """Two unit-variance Gaussian models with identical observational law
    and different interventional means.

    The amenability witness q = <X, V1, ..., Y> is realized as
    X -> V1 -> ... -> Y in the DAG ``meek.consistent_extension`` finds for
    the closure of ``g`` under that orientation, and as X <- V1 -> ... -> Y
    in the one it finds for the other closure (:class:`GraphError` when
    either closure fails).  Each path edge has coefficient 0.5 and every
    other edge zero, so both models share the same covariance while
    E[Y | do(x)] differs by the product of the path coefficients (returned
    as ``delta``).
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
        d1 = consistent_extension(close(g, forward))
        d2 = consistent_extension(close(g, flipped))
    except InconsistentKnowledgeError:
        raise GraphError("the witness path is not realizable in both orientations") from None

    def build(dag: Pdag, edges: list[tuple[str, str]]) -> GaussianModel:
        # A path gives each node at most one parent, so a path edge's head
        # keeps variance one with noise 1 - 0.5 ** 2.
        heads = {h for _, h in edges}
        noise = {v: 0.75 if v in heads else 1.0 for v in dag.nodes}
        return GaussianModel(dag=dag, coeffs=dict.fromkeys(edges, 0.5), noise_vars=noise)

    return build(d1, forward), build(d2, flipped), 0.5 ** len(forward)


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
) -> AgreementReport:
    """Check that every represented DAG assigns the same interventional law
    and that the formula reproduces it.

    Every node is binary.  Random model k is drawn on ``dags[k % len(dags)]``
    of ``dags = enumerate_dags(g)``, its base DAG.  The models are taken in
    passes of at most ``CONFIG_CAP`` stacked joint cells.  All come from
    the one generator ``Generator(PCG64(seed))``: in each pass, the models
    of each base DAG, in base order, as one batch.  The truncated
    factorization of ``dags[0]`` is the reference; it is compared with the
    formula's table and with the tables of the other DAGs, over all
    intervention configurations at once.

    A DAG's truncated factorization of a strictly positive joint depends
    on the DAG only through its X-families ``(x, pa(x))``, since the DAGs
    of a class are Markov equivalent (Maathuis, Kalisch & Bühlmann 2009).
    So the DAGs are grouped by their X-families, and only the first DAG
    of each group refits the joints of a pass, all at once; the DAGs share
    the CPT of each family they have in common, refit once per pass.  A
    base model keeps its drawn CPTs in the table of its base DAG.  A later
    DAG of a group is skipped, unless it is a base DAG: then its models'
    own table is compared with the reference's rows of those models, so
    every drawn model is checked across two DAGs.  A pass whose joints
    hold a zero cell refits along every DAG, since ``model_from_joint``
    fills parent configurations without mass uniformly.
    """
    if n_models < 1:
        raise GraphError("n_models must be at least 1")
    g = require_mpdag(g)
    xs, ys = g.require(X), g.require(Y)
    dags = enumerate_dags(g)
    cards = dict.fromkeys(g.nodes, 2)
    firsts: dict[tuple, int] = {}  # X-families -> the first DAG that has them
    for b, d in enumerate(dags):
        firsts.setdefault(tuple((x, frozenset(d._parents[x])) for x in sorted(xs)), b)
    later = set(range(len(dags))) - set(firsts.values())
    rng = np.random.Generator(np.random.PCG64(seed))
    max_tv = max_formula = 0.0
    step = max(1, CONFIG_CAP // 2 ** len(g.nodes))
    for start in range(0, n_models, step):
        ks = range(start, min(start + step, n_models))
        counts = collections.Counter(k % len(dags) for k in ks)  # models per base DAG
        models = {b: random_model(dags[b], cards, rng, batch=counts[b]) for b in sorted(counts)}
        joints = np.concatenate([joint_table(m) for m in models.values()])
        bounds = itertools.accumulate((m.batch for m in models.values()), initial=0)
        rows = dict(zip(models, itertools.pairwise(bounds)))
        fits: dict[tuple[str, ...], np.ndarray] = {}  # family -> CPT refit from ``joints``
        grouped = joints.all()  # the X-family identity needs a strictly positive joint
        reference = None
        for b, d in enumerate(dags):
            if grouped and b in later:
                if b in models:
                    own = gformula_table(models[b], xs, ys)
                    ref_rows = replace(reference, table=reference.table[slice(*rows[b])])
                    max_tv = max(max_tv, ref_rows.max_tv(own))
                continue
            if len(models) == 1 and b in models:
                table = gformula_table(models[b], xs, ys)
            else:
                table = gformula_table(model_from_joint(joints, g.nodes, cards, d, fits), xs, ys)
                if b in models:
                    # A base model keeps its drawn CPTs, not their refit.
                    table.table[slice(*rows[b])] = gformula_table(models[b], xs, ys).table
            if reference is None:
                reference = table
            else:
                max_tv = max(max_tv, reference.max_tv(table))
        formulas = [id_formula_table(formula, m) for m in models.values()]
        formula_table = replace(formulas[0], table=np.concatenate([t.table for t in formulas]))
        max_formula = max(max_formula, reference.max_tv(formula_table))
    return AgreementReport(len(dags), n_models, max_tv, max_formula)
