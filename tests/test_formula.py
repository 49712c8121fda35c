import copy
import json
import pickle

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


def test_factor_and_formula_are_values():
    f = Factor(targets=["A", "B"], given=("X",))
    assert f == Factor({"B", "A"}, {"X"}) and hash(f) == hash(Factor({"B", "A"}, {"X"}))
    assert f != Factor({"A", "B"})
    assert f != (frozenset({"A", "B"}), frozenset({"X"}))
    assert len({f, Factor(targets={"A", "B"}, given={"X"})}) == 1
    a, b = two_response_formula(), two_response_formula()
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != integral_formula()
    assert a != (a.factors, a.intervened, a.response)
    assert a != a.factors[0] and a.factors[0] != a


def test_constructors_coerce_their_arguments():
    f = Factor(targets=["A"], given=["X", "X"])
    assert type(f.targets) is frozenset and type(f.given) is frozenset
    assert f.given == {"X"}
    assert Factor(targets={"A"}).given == frozenset()
    g = IdFormula(factors=[f], intervened=["X"], response=["A"])
    assert type(g.factors) is tuple and g.factors == (f,)
    assert type(g.intervened) is frozenset and type(g.response) is frozenset
    assert IdFormula([Factor({"A"})], (), ("A",)) == IdFormula(
        factors=(Factor({"A"}),), response={"A"}
    )


@pytest.mark.parametrize(
    "make, field", [(lambda: Factor({"A"}), "targets"), (zero_effect_formula, "response")]
)
def test_factor_and_formula_are_frozen(make, field):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, frozenset({"B"}))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make()


def test_factor_and_formula_repr_like_a_dataclass():
    f = Factor(targets={"Y"}, given={"X"})
    assert repr(f) == "Factor(targets=frozenset({'Y'}), given=frozenset({'X'}))"
    assert repr(zero_effect_formula()) == (
        "IdFormula(factors=(Factor(targets=frozenset({'Y'}), given=frozenset()),), "
        "intervened=frozenset({'X'}), response=frozenset({'Y'}))"
    )


def test_factor_and_formula_survive_pickle_and_copy():
    for value in (Factor({"Y"}, {"X"}), integral_formula()):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.copy(value) == value and copy.deepcopy(value) == value


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Factor(targets=set()), "factor with empty target set"),
        (lambda: Factor(targets={"A"}, given={"A", "B"}),
         "factor targets and conditioners overlap"),
        (lambda: IdFormula(factors=(), intervened={"A"}, response={"A"}),
         "formula needs at least one factor"),
        (lambda: IdFormula(factors=(Factor({"A"}), Factor({"A", "B"}, {"Z"})), response={"C"}),
         "a node is a target of two factors"),
        (lambda: IdFormula(factors=(Factor({"A"}, {"Z"}),), intervened={"B"}, response={"B"}),
         "conditioner Z is neither intervened nor a factor target"),
        (lambda: IdFormula(factors=(Factor({"A"}),), intervened={"B"}, response={"B"}),
         "response must be covered by the factor targets"),
        (lambda: IdFormula(factors=(Factor({"A"}),), intervened={"X"}),
         "response must be covered by the factor targets"),
        (lambda: IdFormula(factors=(Factor({"A"}),), intervened={"A"}, response={"A"}),
         "response and intervened sets overlap"),
        (lambda: IdFormula(factors=(Factor({"A", "B"}),), intervened={"A"}, response={"B"}),
         "a factor targets an intervened node"),
    ],
)
def test_formula_error_messages_in_check_order(build, message):
    # An input that breaks several checks gets the message of the first.
    with pytest.raises(FormulaError) as exc:
        build()
    assert str(exc.value) == message
