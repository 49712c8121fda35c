"""Plug-in estimation of total effects from multivariate Gaussian data.

Each factor of an identification formula is fitted by ordinary least
squares (the conditional expectation of a Gaussian is linear in the
conditioners), and the per-factor linear maps are composed in formula
order, substituting conditional means for the integrated-out variables.
The result is the gradient of E[Y | do(x)] with respect to x.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .formula import IdFormula
from .graphs import EstimationError


@dataclass(frozen=True)
class Dataset:
    """Numeric columns keyed by node name: ``rows`` is n x p."""

    columns: Sequence[str]
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "columns", list(self.columns))
        shape_error = EstimationError("rows must be an n x p matrix matching the header")
        try:
            rows = np.asarray(self.rows, dtype=float)
        except ValueError:  # ragged rows
            raise shape_error from None
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise shape_error
        if len(set(self.columns)) != len(self.columns):
            raise EstimationError("duplicate column names")
        if rows.shape[0] <= rows.shape[1]:
            raise EstimationError(
                f"need more data rows than columns: {rows.shape[0]} rows, "
                f"{rows.shape[1]} columns"
            )
        if not np.isfinite(rows).all():
            raise EstimationError("data contains missing or non-finite values")

    def column(self, name: str) -> np.ndarray:
        try:
            return self.rows[:, self.columns.index(name)]
        except ValueError:
            raise EstimationError(f"no data column for node {name}") from None

    @classmethod
    def from_csv(cls, text: str) -> "Dataset":
        """Comma-separated, header row of node names, ``.`` decimal point."""
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise EstimationError("empty CSV") from None
        header = [h.strip() for h in header]
        rows = _loadtxt_body(text, len(header))
        if rows is None:
            rows = _csv_body(reader, len(header))
        return cls(columns=header, rows=rows)


def _loadtxt_body(text: str, width: int) -> Optional[np.ndarray]:
    """The rows after the header line, parsed by ``np.loadtxt``; None when
    the ``csv`` loop must decide, so that it gives every error message:
    quotes (a quoted header may span lines), a body without data lines
    (``loadtxt`` warns on it), any row ``loadtxt`` refuses, or a width
    other than the header's."""
    if '"' in text:
        return None
    body = text.partition("\n")[2]
    if not body.strip("\r\n"):
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2, comments=None, dtype=float)
    except ValueError:
        return None
    return rows if rows.shape[1] == width else None


def _csv_body(reader, width: int) -> np.ndarray:
    """The rows left in ``reader``, converted cell by cell with ``float``."""
    body = []
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise EstimationError(f"line {reader.line_num}: {len(row)} cells, header has {width}")
        try:
            body.append([float(cell) for cell in row])
        except ValueError as exc:
            raise EstimationError(f"non-numeric cell: {exc}") from exc
    # Shaped (0, p) when no data row follows the header, so that the
    # row count, not the shape, is what gets reported.
    return np.array(body, dtype=float).reshape(len(body), width)


def _ols(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Least-squares coefficients; rejects rank-deficient designs."""
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise EstimationError("singular regression design")
    beta, *_ = np.linalg.lstsq(design, response, rcond=None)
    return beta


def gaussian_effect(
    f: IdFormula, data: Dataset, X: Sequence[str], Y: Iterable[str]
) -> np.ndarray:
    """Gradient of E[Y | do(x)] with respect to x, aligned with ``X``.

    ``f`` must come from identification of (X, Y) on the same graph, with
    a singleton response.  Regressions include intercepts, so the data
    need not be centered; the gradient is intercept-free by linearity.
    """
    ys = frozenset(Y)
    xs_list = list(X)
    if len(ys) != 1:
        raise EstimationError("response must be a single node")
    if frozenset(xs_list) != f.intervened or len(xs_list) != len(set(xs_list)):
        raise EstimationError("X must list each intervened node exactly once")
    if ys != f.response:
        raise EstimationError("Y must match the formula response")
    (y,) = ys

    n_x = len(xs_list)
    # Affine value per known node: [intercept, d/dx_1, ..., d/dx_k].
    affine: dict[str, np.ndarray] = {}
    for i, x in enumerate(xs_list):
        vec = np.zeros(n_x + 1)
        vec[i + 1] = 1.0
        affine[x] = vec

    for factor in f.factors:
        given = sorted(factor.given)
        for c in given:
            if c not in affine:
                raise EstimationError(f"conditioner {c} precedes its factor")
        design = np.column_stack(
            [np.ones(data.rows.shape[0])] + [data.column(c) for c in given]
        )
        targets = sorted(factor.targets)
        beta = _ols(design, np.column_stack([data.column(t) for t in targets]))
        for j, t in enumerate(targets):
            vec = np.zeros(n_x + 1)
            vec[0] = beta[0, j]
            for i, c in enumerate(given):
                vec = vec + beta[i + 1, j] * affine[c]
            affine[t] = vec

    return affine[y][1:].copy()
