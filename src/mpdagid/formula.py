"""Symbolic identification formulas and their renderings.

An :class:`IdFormula` is an ordered product of conditional density
factors together with an integration set, the intervened set, and the
response set.  Rendering is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Literal

Style = Literal["text", "latex", "json"]


class FormulaError(ValueError):
    """Structurally invalid formula."""


@dataclass(frozen=True)
class Factor:
    """The conditional density f(targets | given)."""

    targets: frozenset[str]
    given: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "targets", frozenset(self.targets))
        object.__setattr__(self, "given", frozenset(self.given))
        if not self.targets:
            raise FormulaError("factor with empty target set")
        if self.targets & self.given:
            raise FormulaError("factor targets and conditioners overlap")


@dataclass(frozen=True)
class IdFormula:
    """f(response | do(intervened)) = ∫ Π factors d(integrate_over)."""

    factors: tuple[Factor, ...]
    intervened: frozenset[str] = field(default_factory=frozenset)
    response: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "intervened", frozenset(self.intervened))
        object.__setattr__(self, "response", frozenset(self.response))
        if not self.factors:
            raise FormulaError("formula needs at least one factor")
        targets_seen: set[str] = set()
        for f in self.factors:
            if f.targets & targets_seen:
                raise FormulaError("a node is a target of two factors")
            targets_seen |= f.targets
        # Factor order is presentational (the product commutes), so the
        # closure condition on conditioners is order-free here; identified
        # formulas additionally condition only on strictly earlier buckets.
        for f in self.factors:
            for c in f.given:
                if c not in self.intervened and c not in targets_seen:
                    raise FormulaError(
                        f"conditioner {c} is neither intervened nor a factor target"
                    )
        if not self.response or not self.response <= targets_seen:
            raise FormulaError("response must be covered by the factor targets")
        if self.response & self.intervened:
            raise FormulaError("response and intervened sets overlap")

    @property
    def integrate_over(self) -> frozenset[str]:
        """Union of factor targets minus the response."""
        out: set[str] = set()
        for f in self.factors:
            out |= f.targets
        return frozenset(out) - self.response


def _names(xs: Iterable[str]) -> list[str]:
    return sorted(x.lower() for x in xs)


def _given_order(factor: Factor, intervened: frozenset[str]) -> list[str]:
    """Intervened conditioners first, then the rest, each sorted."""
    fixed = sorted(x.lower() for x in factor.given & intervened)
    rest = sorted(x.lower() for x in factor.given - intervened)
    return fixed + rest


def _render_text(f: IdFormula) -> str:
    lhs = "f(" + ",".join(_names(f.response))
    if f.intervened:
        lhs += "|do(" + ",".join(_names(f.intervened)) + ")"
    lhs += ")"
    parts = []
    for factor in f.factors:
        s = "f(" + ",".join(_names(factor.targets))
        given = _given_order(factor, f.intervened)
        if given:
            s += "|" + ",".join(given)
        s += ")"
        parts.append(s)
    rhs = " ".join(parts)
    io = f.integrate_over
    if io:
        rhs = "∫ " + rhs + " d(" + ",".join(_names(io)) + ")"
    return lhs + " = " + rhs


def _tex_name(x: str) -> str:
    base = x.lower()
    head = base.rstrip("0123456789")
    if head and head != base:
        return head + "_{" + base[len(head):] + "}"
    return base


def _render_latex(f: IdFormula) -> str:
    def group(xs):
        return ",".join(sorted(_tex_name(x) for x in xs))

    lhs = "f(" + group(f.response)
    if f.intervened:
        lhs += r" \mid do(" + group(f.intervened) + ")"
    lhs += ")"
    parts = []
    for factor in f.factors:
        s = "f(" + group(factor.targets)
        given = [_tex_name(x) for x in _given_order(factor, f.intervened)]
        if given:
            s += r" \mid " + ",".join(given)
        s += ")"
        parts.append(s)
    rhs = r"\, ".join(parts)
    io = f.integrate_over
    if io:
        rhs = r"\int " + rhs + r"\, d(" + group(io) + ")"
    return lhs + " = " + rhs


def _render_json(f: IdFormula) -> str:
    payload = {
        "factors": [
            {"targets": sorted(fc.targets), "given": sorted(fc.given)}
            for fc in f.factors
        ],
        "integrate_over": sorted(f.integrate_over),
        "do": sorted(f.intervened),
        "response": sorted(f.response),
    }
    return json.dumps(payload, sort_keys=True)


def render(f: IdFormula, style: Style = "text") -> str:
    """Deterministic rendering; identical inputs give identical strings."""
    if style == "text":
        return _render_text(f)
    if style == "latex":
        return _render_latex(f)
    if style == "json":
        return _render_json(f)
    raise FormulaError(f"unknown style: {style!r}")

