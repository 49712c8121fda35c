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


def _tex_name(x: str) -> str:
    base = x.lower()
    head = base.rstrip("0123456789")
    if head and head != base:
        return head + "_{" + base[len(head):] + "}"
    return base


# Per style: the name transform, then the tokens that open the conditioners,
# the intervention, the next factor, the integral and its measure.
_STYLES = {
    "text": (str.lower, "|", "|do(", " ", "∫ ", " d("),
    "latex": (_tex_name, r" \mid ", r" \mid do(", r"\, ", r"\int ", r"\, d("),
}


def _render_styled(f: IdFormula, name, given_sep, do, times, integral, measure) -> str:
    """A node group is sorted by its rendered names; the conditioners of a
    factor come intervened first, then the rest, each sorted by lower-case
    name."""

    def group(xs: Iterable[str]) -> str:
        return ",".join(sorted(map(name, xs)))

    lhs = "f(" + group(f.response)
    if f.intervened:
        lhs += do + group(f.intervened) + ")"
    lhs += ")"
    parts = []
    for factor in f.factors:
        s = "f(" + group(factor.targets)
        given = sorted(factor.given & f.intervened, key=str.lower)
        given += sorted(factor.given - f.intervened, key=str.lower)
        if given:
            s += given_sep + ",".join(map(name, given))
        s += ")"
        parts.append(s)
    rhs = times.join(parts)
    io = f.integrate_over
    if io:
        rhs = integral + rhs + measure + group(io) + ")"
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
    if style == "json":
        return _render_json(f)
    if style not in _STYLES:
        raise FormulaError(f"unknown style: {style!r}")
    return _render_styled(f, *_STYLES[style])

