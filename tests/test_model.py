import numpy as np
import pytest

from conftest import make_toy3
from hubloc.formulations import build_nc
from hubloc.milp import solve_milp
from hubloc.model import (GE, LinearModel, Violation, check_feasibility,
                          dump_model, with_extra_constraint)
from hubloc.simplex import solve_lp


def test_duplicate_variable_names_rejected():
    m = LinearModel()
    m.add_variable("x")
    with pytest.raises(ValueError, match="duplicate"):
        m.add_variable("x")


@pytest.mark.parametrize("lb, ub", [(-np.inf, -np.inf), (0.0, -np.inf),
                                    (np.inf, np.inf), (0.0, np.nan)])
def test_bounds_that_admit_no_finite_value_rejected(lb, ub):
    # an upper bound of -inf once reached solve_lp, which raised a
    # misleading "phase-1 ray" SimplexError
    with pytest.raises(ValueError, match="bad bounds for 'x'"):
        LinearModel().add_variable("x", lb=lb, ub=ub)


@pytest.mark.parametrize("kind", ["Binary", "integer", None])
def test_unknown_variable_kind_rejected(kind):
    # "Binary" once gave a continuous column on [0, inf): max x subject to
    # x <= 0.5 then solved "optimal" at x = 0.5
    with pytest.raises(ValueError, match=f"bad kind {kind!r} for 'x'"):
        LinearModel().add_variable("x", kind)


@pytest.mark.parametrize("term", [(-1, 1.0), (1, 1.0), (0, np.nan),
                                  (0.5, 1.0), ("0", "2"),
                                  (0, "2"), (None, 1.0), (0, None)],
                         ids=["negative-index", "index-past-the-end", "nan",
                              "fractional-index",
                              "string-term", "string-coefficient",
                              "no-index", "no-coefficient"])
def test_bad_terms_rejected_when_the_model_is_built(term):
    # the objective once took any term: index -1 priced the last variable,
    # and the other two raised only when an LP was solved
    m = LinearModel()
    m.add_variable("x")
    with pytest.raises(ValueError, match=r"^bad term .* in objective$"):
        m.set_objective([term])
    assert m.objective == []
    with pytest.raises(ValueError, match=r"^bad term .* in row$"):
        m.add_constraint("row", [term], GE, 0.0)
    assert m.constraints == []


def test_a_fractional_index_is_not_truncated():
    # (1.9, 1.0) once became a term on column 1
    m = LinearModel()
    m.add_variable("x")
    m.add_variable("y")
    with pytest.raises(ValueError, match=r"^bad term \(1\.9, 1\.0\) in row$"):
        m.add_constraint("row", [(0, 1.0), (1.9, 1.0)], GE, 0.0)


def test_numeric_terms_become_plain_int_and_float():
    # an integral index of any number type passes, and a zero term is
    # dropped unread
    m = LinearModel()
    m.add_variable("x")
    m.add_variable("y")
    m.set_objective([(np.int64(1), np.float64(2.5)), (np.float32(0.0), 3),
                     (1.5, 0.0)])
    assert m.objective == [(1, 2.5), (0, 3.0)]
    assert [type(v) for t in m.objective for v in t] == [int, float] * 2


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_value_is_a_bound_violation(value):
    # a NaN point once passed: every "err > tol" test is False for NaN
    m = LinearModel()
    m.add_variable("x")
    m.add_variable("y")
    m.add_constraint("row", [(0, 1.0), (1, 1.0)], GE, 1.0)
    assert check_feasibility(m, {"x": value, "y": 1.0}) == [
        Violation("bound[x]", np.inf)]


def test_feasibility_of_solver_output(toy3):
    model = build_nc(toy3)
    sol = solve_milp(model)
    assert check_feasibility(model, sol.values) == []


def test_all_zeros_violates_supply(toy3):
    model = build_nc(toy3)
    bad = check_feasibility(model, np.zeros(model.num_variables))
    labels = {v.label for v in bad}
    assert "eq2[i=0]" in labels


def test_dimension_mismatch():
    model = build_nc(make_toy3())
    with pytest.raises(ValueError, match="values"):
        check_feasibility(model, np.zeros(3))
    with pytest.raises(ValueError, match="unknown variable"):
        check_feasibility(model, {"nope": 1.0})


def test_bound_violations_reported(toy3):
    model = build_nc(toy3)
    values = {name: 0.0 for name in model.name_index}
    values["H[0]"] = 2.0
    labels = {v.label for v in check_feasibility(model, values)}
    assert "bound[H[0]]" in labels


def test_with_extra_constraint_leaves_original_alone(toy3):
    model = build_nc(toy3)
    rows_before = len(model.constraints)
    clone = with_extra_constraint(model, "extra[h]",
                                  [(model.name_index["H[0]"], 1.0)], GE, 1.0)
    assert len(model.constraints) == rows_before
    assert len(clone.constraints) == rows_before + 1
    assert solve_lp(clone).status == "optimal"


def test_dump_model_is_deterministic(toy3):
    model = build_nc(toy3)
    text = dump_model(model)
    assert text == dump_model(build_nc(toy3))
    assert text.startswith("minimize:")
    assert "eq4[k=0]" in text
    assert "binary: H[0] H[1] H[2]" in text
