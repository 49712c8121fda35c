import json

import pytest

from mpdagid import Factor, FormulaError, IdFormula, identify, render

import oracles
from conftest import query_pairs

STYLES = ("text", "latex", "json")


def two_response_formula():
    return IdFormula(
        factors=(
            Factor(targets={"Y1"}),
            Factor(targets={"Y2"}, given={"X", "Y1"}),
        ),
        intervened={"X"},
        response={"Y1", "Y2"},
    )


def integral_formula():
    return IdFormula(
        factors=(
            Factor(targets={"V1", "V2"}),
            Factor(targets={"Y"}, given={"X", "V1", "V2"}),
        ),
        intervened={"X"},
        response={"Y"},
    )


def zero_effect_formula():
    return IdFormula(
        factors=(Factor(targets={"Y"}),), intervened={"X"}, response={"Y"}
    )


def test_text_render_no_integral():
    assert render(two_response_formula(), "text") == "f(y1,y2|do(x)) = f(y1) f(y2|x,y1)"


def test_text_render_with_integral():
    assert (
        render(integral_formula(), "text")
        == "f(y|do(x)) = ∫ f(v1,v2) f(y|x,v1,v2) d(v1,v2)"
    )


def test_text_render_zero_effect():
    assert render(zero_effect_formula(), "text") == "f(y|do(x)) = f(y)"


def test_intervened_conditioners_render_first():
    f = IdFormula(
        factors=(
            Factor(targets={"V4"}, given={"X1"}),
            Factor(targets={"Y"}, given={"X1", "X2", "V4"}),
        ),
        intervened={"X1", "X2"},
        response={"Y"},
    )
    assert render(f, "text") == "f(y|do(x1,x2)) = ∫ f(v4|x1) f(y|x1,x2,v4) d(v4)"


def test_render_deterministic():
    f = integral_formula()
    for style in ("text", "latex", "json"):
        assert render(f, style) == render(f, style)


def test_latex_render_subscripts():
    s = render(integral_formula(), "latex")
    assert "v_{1}" in s and r"\int" in s and r"\mid" in s


def test_mixed_names_sort_per_style():
    f = IdFormula(
        factors=(
            Factor(targets={"A_b", "x10"}, given={"X1", "x_b", "Z2"}),
            Factor(targets={"Z2"}, given={"x_b"}),
        ),
        intervened={"X1", "x_b"},
        response={"A_b", "x10"},
    )
    for style in STYLES:
        assert render(f, style) == oracles.reference_render(f, style)
    assert render(f, "text") == (
        "f(a_b,x10|do(x1,x_b)) = ∫ f(a_b,x10|x1,x_b,z2) f(z2|x_b) d(z2)"
    )
    assert render(f, "latex") == (
        r"f(a_b,x_{10} \mid do(x_b,x_{1})) = "
        r"\int f(a_b,x_{10} \mid x_{1},x_b,z_{2})\, f(z_{2} \mid x_b)\, d(z_{2})"
    )


def _identified_formulas(graphs):
    for g in graphs:
        for xs, ys in query_pairs(g.nodes):
            res = identify(g, xs, ys)
            if res.identifiable:
                yield res.formula


def test_render_matches_reference_on_identified_formulas(sweep):
    larger = oracles.random_mpdags(seed=88, count=12, n_nodes=(6, 7, 8))
    checked = 0
    for graphs in ([g for g, _ in sweep], larger):
        for f in _identified_formulas(graphs):
            for style in STYLES:
                assert render(f, style) == oracles.reference_render(f, style)
            checked += 1
    assert checked > 2000


def test_json_round_trip_structural():
    for f in (two_response_formula(), integral_formula(), zero_effect_formula()):
        payload = json.loads(render(f, "json"))
        back = IdFormula(
            factors=[Factor(fc["targets"], fc["given"]) for fc in payload["factors"]],
            intervened=payload["do"],
            response=payload["response"],
        )
        assert oracles.structurally_equal(f, back)
        assert payload["integrate_over"] == sorted(f.integrate_over)


def test_json_is_sorted_and_stable():
    s = render(two_response_formula(), "json")
    assert s.index('"do"') < s.index('"factors"') < s.index('"response"')


def test_structural_equality_commutes():
    a = two_response_formula()
    b = IdFormula(
        factors=(
            Factor(targets={"Y2"}, given={"X", "Y1"}),
            Factor(targets={"Y1"}),
        ),
        intervened={"X"},
        response={"Y1", "Y2"},
    )
    assert oracles.structurally_equal(a, b)
    assert not oracles.structurally_equal(a, integral_formula())


def test_integrate_over_derived():
    assert integral_formula().integrate_over == {"V1", "V2"}
    assert two_response_formula().integrate_over == set()


def test_factor_validation():
    with pytest.raises(FormulaError):
        Factor(targets=set())
    with pytest.raises(FormulaError):
        Factor(targets={"A"}, given={"A"})


def test_formula_validation():
    with pytest.raises(FormulaError):  # response not covered
        IdFormula(factors=(Factor(targets={"A"}),), response={"B"})
    with pytest.raises(FormulaError):  # conditioner neither do() nor earlier target
        IdFormula(
            factors=(Factor(targets={"A"}, given={"Z"}),),
            intervened={"X"},
            response={"A"},
        )
    with pytest.raises(FormulaError):  # duplicated target
        IdFormula(
            factors=(Factor(targets={"A"}), Factor(targets={"A"})),
            response={"A"},
        )
    with pytest.raises(FormulaError):  # response inside do()
        IdFormula(factors=(Factor(targets={"A"}),), intervened={"A"}, response={"A"})



def test_formula_needs_a_factor():
    with pytest.raises(FormulaError, match="at least one factor"):
        IdFormula(factors=(), response={"A"})


def test_render_refuses_an_unknown_style():
    with pytest.raises(FormulaError, match="unknown style: 'html'"):
        render(zero_effect_formula(), "html")
