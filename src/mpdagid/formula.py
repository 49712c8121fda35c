"""Symbolic identification formulas and their renderings.

An :class:`IdFormula` is an ordered product of conditional density
factors together with an integration set, the intervened set, and the
response set.  Rendering is deterministic.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Literal

Style = Literal["text", "latex", "json"]


class FormulaError(ValueError):
    """Structurally invalid formula."""


_set = object.__setattr__  # how a constructor writes past ``_Frozen.__setattr__``


class _Frozen:
    """An immutable value made of the fields named in ``__slots__``: equal
    to, and hashed like, an instance of its own class with equal fields,
    and shown as ``Name(field=value, ...)``, as a frozen dataclass is.
    Importing ``dataclasses`` would load ``inspect`` and ``ast`` into every
    start-up of the command line."""

    __slots__ = ()

    def __init_subclass__(cls):
        # The tuple of field values, read in one C call; a subclass names
        # at least two fields, or ``attrgetter`` would not return a tuple.
        cls._fields = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return self.__class__, self._fields


class Factor(_Frozen):
    """The conditional density f(targets | given)."""

    __slots__ = ("targets", "given")

    def __init__(self, targets: Iterable[str], given: Iterable[str] = frozenset()):
        _set(self, "targets", frozenset(targets))
        _set(self, "given", frozenset(given))
        if not self.targets:
            raise FormulaError("factor with empty target set")
        if self.targets & self.given:
            raise FormulaError("factor targets and conditioners overlap")


class IdFormula(_Frozen):
    """f(response | do(intervened)) = ∫ Π factors d(integrate_over), where,
    as in a truncated factorization, no factor targets an intervened node."""

    __slots__ = ("factors", "intervened", "response")

    def __init__(
        self,
        factors: Iterable[Factor],
        intervened: Iterable[str] = frozenset(),
        response: Iterable[str] = frozenset(),
    ):
        _set(self, "factors", tuple(factors))
        _set(self, "intervened", frozenset(intervened))
        _set(self, "response", frozenset(response))
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
        if targets_seen & self.intervened:
            raise FormulaError("a factor targets an intervened node")

    @property
    def integrate_over(self) -> frozenset[str]:
        """Union of factor targets minus the response."""
        return frozenset().union(*(f.targets for f in self.factors)) - self.response


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
    import json

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

