import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import brute_force_nc, make_toy3
from hubloc import milp, simplex
from hubloc.formulations import build_nc, build_ocu
from hubloc.instance import GeneratorConfig, generate_instance
from hubloc.milp import solve_milp
from hubloc.model import EQ, GE, LE, LinearModel
from hubloc.regret import compute_baselines
from hubloc.simplex import (BASIC, NB_LOWER, NB_UPPER, SimplexError,
                            _refine_basics, _standardize, _subtract_in_order,
                            solve_lp, verify_certificate)


def lp(objective, constraints, variables):
    m = LinearModel()
    for name, lb, ub in variables:
        m.add_variable(name, lb=lb, ub=ub)
    for label, terms, rel, rhs in constraints:
        m.add_constraint(label, [(m.name_index[v], c) for v, c in terms], rel, rhs)
    m.set_objective([(m.name_index[v], c) for v, c in objective])
    return m


def test_one_variable_lp():
    m = lp([("x", 1.0)], [("eq1[a]", [("x", 1.0)], GE, 3.0)],
           [("x", 0.0, math.inf)])
    r = solve_lp(m)
    assert r.status == "optimal"
    assert r.x[0] == pytest.approx(3.0)
    assert r.objective == pytest.approx(3.0)


def test_contradictory_bounds_infeasible():
    m = lp([("x", 1.0)],
           [("eq1[a]", [("x", 1.0)], LE, 1.0),
            ("eq1[b]", [("x", 1.0)], GE, 2.0)],
           [("x", 0.0, math.inf)])
    assert solve_lp(m).status == "infeasible"


def test_ray_unbounded():
    m = lp([("x", -1.0)], [], [("x", 0.0, math.inf)])
    assert solve_lp(m).status == "unbounded"


def test_degenerate_cycling_guard():
    # Beale's cycling example; must terminate at the optimum
    m = LinearModel()
    for name in ("x1", "x2", "x3", "x4"):
        m.add_variable(name, lb=0.0, ub=math.inf)
    ix = m.name_index
    m.add_constraint("eq1[a]", [(ix["x1"], 0.25), (ix["x2"], -60.0),
                                (ix["x3"], -1.0 / 25.0), (ix["x4"], 9.0)], LE, 0.0)
    m.add_constraint("eq1[b]", [(ix["x1"], 0.5), (ix["x2"], -90.0),
                                (ix["x3"], -1.0 / 50.0), (ix["x4"], 3.0)], LE, 0.0)
    m.add_constraint("eq1[c]", [(ix["x3"], 1.0)], LE, 1.0)
    m.set_objective([(ix["x1"], -0.75), (ix["x2"], 150.0),
                     (ix["x3"], -1.0 / 50.0), (ix["x4"], 6.0)])
    r = solve_lp(m)
    assert r.status == "optimal"
    assert r.objective == pytest.approx(-0.05)


def test_free_variable_split():
    m = lp([("a", 2.0), ("b", 1.0)],
           [("eq1[c]", [("a", 1.0), ("b", 1.0)], EQ, 4.0),
            ("eq2[d]", [("a", 1.0), ("b", -1.0)], GE, -2.0)],
           [("a", 0.0, math.inf), ("b", -math.inf, math.inf)])
    r = solve_lp(m)
    assert r.status == "optimal"
    assert r.objective == pytest.approx(5.0)
    assert r.x == pytest.approx([1.0, 3.0])


def test_extra_bounds_fix_variable():
    m = lp([("x", 1.0), ("y", 1.0)],
           [("eq1[a]", [("x", 1.0), ("y", 1.0)], GE, 4.0)],
           [("x", 0.0, math.inf), ("y", 0.0, math.inf)])
    r = solve_lp(m, extra_bounds={0: (3.0, 3.0)})
    assert r.x[0] == pytest.approx(3.0)
    assert r.objective == pytest.approx(4.0)
    assert solve_lp(m, extra_bounds={0: (5.0, 2.0)}).status == "infeasible"


def test_certificate_passes_on_optimal(toy3):
    model = build_nc(toy3)
    r = solve_lp(model)
    assert r.status == "optimal"
    rep = verify_certificate(model, r)
    assert rep.passed, rep.failures
    # LP relaxation is a lower bound on the integer optimum pinned at 25
    assert r.objective <= 25.0 + 1e-9


def test_certificate_fails_on_perturbed_primal(toy3):
    model = build_nc(toy3)
    r = solve_lp(model)
    x = r.x.copy()
    j = model.name_index["Z[0,1]"] if x[model.name_index["Z[0,1]"]] > 1.0 \
        else int(np.argmax(np.abs(x)))
    x[j] += 1e-3
    bad = replace(r, x=x)
    rep = verify_certificate(model, bad)
    assert not rep.passed
    assert any("eq" in f or "bound" in f for f in rep.failures)


def test_certificate_row_messages_on_perturbed_nc(toy3):
    model = build_nc(toy3)
    r = solve_lp(model)
    x = r.x.copy()
    x[model.name_index["Z[0,1]"]] += 1e-3   # Z[0,1] carries the 10 units
    rep = verify_certificate(model, replace(r, x=x))
    assert rep.failures == ["row eq2[i=0]: violated by 1.000e-03",
                            "row eq5[i=0,k=1]: violated by 1.000e-03",
                            "row eq6[i=0,k=1]: violated by 1.000e-03",
                            "objective mismatch 1.000e-03"]


def test_certificate_requires_optimal():
    m = lp([("x", -1.0)], [], [("x", 0.0, math.inf)])
    with pytest.raises(ValueError):
        verify_certificate(m, solve_lp(m))


def test_determinism_same_basis_and_iterations(toy3):
    model = build_nc(toy3)
    r1, r2 = solve_lp(model), solve_lp(model)
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.basis, r2.basis)
    assert np.array_equal(r1.x, r2.x)


def test_weak_duality_on_corpus():
    for seed in range(8):
        inst = generate_instance(GeneratorConfig(seed=seed, n=4, chain_count=2,
                                                 scenario_count=2))
        model = build_nc(inst)
        relax = solve_lp(model)
        integer = solve_milp(model)
        assert relax.status == integer.status == "optimal"
        assert relax.objective <= integer.objective + 1e-6
        assert verify_certificate(model, relax).passed


def test_relaxation_bound_matches_oracle(toy3):
    best, _ = brute_force_nc(toy3)
    assert best == 25.0
    assert solve_lp(build_nc(toy3)).objective <= best + 1e-9


def test_relax_flag_demands_fixed_binaries(toy3):
    model = build_nc(toy3)
    fixed = {j: (1.0, 1.0) if j == model.name_index["H[1]"] else (0.0, 0.0)
             for j in model.binary_indices()}
    res = solve_lp(model, extra_bounds=fixed)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(25.0, abs=1e-9)


def test_singular_basis_refinement_raises():
    # columns 0 and 1 are equal, so the basis [0, 1] cannot be factored
    A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
    status = np.array([BASIC, BASIC, NB_LOWER])
    with pytest.raises(SimplexError, match="singular basis .2 columns"):
        _refine_basics(A, np.array([1.0, 3.0]), np.array([0, 1]), status,
                       np.full(3, math.inf))


def two_row_lp():
    """min -x - 2y, x + y <= 4, x - y <= 2, 0 <= x, y <= 10: optimum (0, 4).
    No row needs an artificial, so solve_lp solves its final basis twice:
    once for x and once, transposed, for the duals."""
    return lp([("x", -1.0), ("y", -2.0)],
              [("a", [("x", 1.0), ("y", 1.0)], LE, 4.0),
               ("b", [("x", 1.0), ("y", -1.0)], LE, 2.0)],
              [("x", 0.0, 10.0), ("y", 0.0, 10.0)])


def non_finite_solve(monkeypatch, value, from_call=1):
    """Make ``np.linalg.solve`` answer ``value`` in every entry from its
    ``from_call``-th call on."""
    solve, calls = np.linalg.solve, []

    def broken(a, b):
        calls.append(1)
        z = solve(a, b)
        return np.full_like(z, value) if len(calls) >= from_call else z

    monkeypatch.setattr(np.linalg, "solve", broken)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_basis_solve_raises(value, monkeypatch):
    # it once returned an "optimal" result with x = [0, nan], a NaN
    # objective and NaN duals
    non_finite_solve(monkeypatch, value)
    with pytest.raises(SimplexError,
                       match=r"non-finite basis solve \(2 columns\)"):
        solve_lp(two_row_lp())


def test_a_non_finite_dual_solve_raises(monkeypatch):
    m = two_row_lp()
    assert solve_lp(m).x.tolist() == [0.0, 4.0]
    non_finite_solve(monkeypatch, math.nan, from_call=2)
    with pytest.raises(SimplexError, match="non-finite basis solve"):
        solve_lp(m)


def test_a_non_finite_basis_solve_fails_a_search_with_a_simplex_error(
        toy3, monkeypatch):
    # the root LP breaks down; the search once raised "attempt to get
    # argmax of an empty sequence", a ValueError
    non_finite_solve(monkeypatch, math.nan)
    with pytest.raises(SimplexError, match="non-finite basis solve"):
        solve_milp(build_nc(toy3))


def nudge_values(monkeypatch, name, by, model):
    """Add ``by`` to variable ``name`` of each point mapped back from the
    standard form, as a faulty postsolve would."""
    real, j = simplex._values_from_state, model.name_index[name]

    def nudged(sf, vals):
        x = real(sf, vals)
        x[j] += by
        return x

    monkeypatch.setattr(simplex, "_values_from_state", nudged)


def test_a_point_off_its_rows_fails_the_residual_check(toy3, monkeypatch):
    # Z[0,0] sits in the assignment row of node 0, an equality
    model = build_nc(toy3)
    nudge_values(monkeypatch, "Z[0,0]", 1e-3, model)
    with pytest.raises(SimplexError, match=r"^numerical breakdown: residual "
                       r"1\.00e-03 on eq2\[i=0\]$"):
        solve_lp(model)


def test_a_residual_below_the_bar_passes_the_residual_check(toy3,
                                                            monkeypatch):
    # the bar is 10 * FEAS_TOL, 1e-6
    model = build_nc(toy3)
    expected = solve_lp(model)
    nudge_values(monkeypatch, "Z[0,0]", 5e-7, model)
    res = solve_lp(model)
    assert res.status == "optimal"
    assert res.x[model.name_index["Z[0,0]"]] == pytest.approx(
        expected.x[model.name_index["Z[0,0]"]] + 5e-7, abs=1e-12)


def test_certificate_fails_a_non_finite_point():
    # min -3x - y over x + y <= 5, x + z <= 7: optimum x = 5, objective -15
    m = lp([("x", -3.0), ("y", -1.0)],
           [("r1", [("x", 1.0), ("y", 1.0)], LE, 5.0),
            ("r2", [("x", 1.0), ("z", 1.0)], LE, 7.0)],
           [("x", 0.0, 10.0), ("y", 0.0, 10.0), ("z", 0.0, 10.0)])
    r = solve_lp(m)
    assert r.objective == -15.0 and verify_certificate(m, r).passed
    # the forged result keeps the true objective and duals; a NaN point
    # once passed, as every "err > tol" test is False for NaN
    forged = replace(r, x=np.full(3, math.nan))
    assert verify_certificate(m, forged).failures == [
        f"bound {name}: value nan is not finite" for name in "xyz"]
    forged = replace(r, x=np.array([5.0, math.inf, 0.0]))
    assert verify_certificate(m, forged).failures == [
        "bound y: value inf is not finite"]


def test_certificate_failure_messages_in_order():
    # optimum x = 1.5, y = 0.5 with duals (1.5, -0.5); every part of the
    # forged result breaks something, and each check reports in turn
    m = lp([("x", 1.0), ("y", 2.0)],
           [("r1", [("x", 1.0), ("y", 1.0)], GE, 2.0),
            ("r2", [("x", 1.0), ("y", -1.0)], LE, 1.0)],
           [("x", 0.0, math.inf), ("y", 0.0, 3.0)])
    r = solve_lp(m)
    assert r.x.tolist() == pytest.approx([1.5, 0.5])
    assert r.duals.tolist() == pytest.approx([1.5, -0.5])
    assert verify_certificate(m, r).passed
    # d = c - A^T y = (-0.5, 5.5): x may grow without bound, so the dual
    # bound is -inf
    forged = replace(r, x=np.array([2.0, -0.25]), objective=1.0,
                     duals=np.array([-1.0, 2.5]))
    rep = verify_certificate(m, forged)
    assert not rep.passed
    assert rep.failures == ["row r1: violated by 2.500e-01",
                            "row r2: violated by 1.250e+00",
                            "bound y: violated by 2.500e-01",
                            "objective mismatch 5.000e-01",
                            "row r1: dual -1.000e+00 has the wrong sign",
                            "row r2: dual 2.500e+00 has the wrong sign",
                            "reduced cost -5.000e-01 of x toward an infinite bound",
                            "dual bound short of the objective by inf"]


def test_certificate_checks_reduced_costs_when_every_row_presolves_away():
    # one singleton row, so it becomes a bound and the basis is empty
    m = lp([("x", -1.0), ("y", -1.0)], [("cap[x]", [("x", 1.0)], LE, 10.0)],
           [("x", 0.0, 10.0), ("y", 0.0, 5.0)])
    r = solve_lp(m)
    assert r.status == "optimal" and r.basis.size == 0
    assert r.objective == pytest.approx(-15.0)
    assert r.duals.tolist() == [-1.0]   # x sits at the bound the row gave
    assert verify_certificate(m, r).passed
    # the dual bound is -15 with the postsolved dual and with none
    for duals in (r.duals, np.zeros(1)):
        forged = replace(r, x=np.zeros(2), objective=0.0, duals=duals)
        rep = verify_certificate(m, forged)
        assert rep.failures == ["dual bound short of the objective by 1.500e+01"]


def mutation_lp():
    """min -3x - y, x <= 2, x + y <= 5, 0 <= x, y <= 10: optimum (2, 3), -9."""
    return lp([("x", -3.0), ("y", -1.0)],
              [("cap[x]", [("x", 1.0)], LE, 2.0),
               ("cap[xy]", [("x", 1.0), ("y", 1.0)], LE, 5.0)],
              [("x", 0.0, 10.0), ("y", 0.0, 10.0)])


def test_certificate_rejects_a_shrunken_singleton_bound():
    # a presolve that shrank the bound of cap[x] by 10% would return this
    # feasible, suboptimal point; no dual bound reaches its objective
    m = mutation_lp()
    r = solve_lp(m)
    assert r.x.tolist() == [2.0, 3.0] and r.objective == -9.0
    assert r.duals.tolist() == [-2.0, -1.0]
    for duals in (r.duals, np.zeros(2), np.array([-3.0, 0.0])):
        forged = replace(r, x=np.array([1.8, 3.2]), objective=-8.6, duals=duals)
        rep = verify_certificate(m, forged)
        assert not rep.passed
        assert len(rep.failures) == 1
        assert rep.failures[0].startswith("dual bound short of the objective")


def test_certificate_rejects_a_dual_that_breaks_the_bound():
    m = mutation_lp()
    r = solve_lp(m)
    # y = (-2.5, -1): d = (0.5, 0), so the bound is -5 - 5 + 0 * x = -10
    rep = verify_certificate(m, replace(r, duals=np.array([-2.5, -1.0])))
    assert rep.failures == ["dual bound short of the objective by 1.000e+00"]
    # a shift below the tolerance still passes
    assert verify_certificate(m, replace(r, duals=r.duals - 1e-10)).passed


def test_certificate_rejects_duals_of_the_wrong_sign():
    m = lp([("x", 1.0), ("y", 1.0)],
           [("low", [("x", 1.0), ("y", 1.0)], GE, 2.0),
            ("high", [("x", 1.0), ("y", -1.0)], LE, 1.0)],
           [("x", 0.0, 5.0), ("y", 0.0, 5.0)])
    r = solve_lp(m)
    assert r.objective == pytest.approx(2.0)
    assert verify_certificate(m, r).passed
    rep = verify_certificate(m, replace(r, duals=np.array([-0.5, 0.0])))
    assert rep.failures[0] == "row low: dual -5.000e-01 has the wrong sign"
    rep = verify_certificate(m, replace(r, duals=np.array([1.0, 0.5])))
    assert rep.failures[0] == "row high: dual 5.000e-01 has the wrong sign"


@pytest.mark.parametrize("duals", [None, np.zeros(1), np.zeros(3)])
def test_certificate_rejects_duals_of_the_wrong_length(duals):
    m = mutation_lp()
    rep = verify_certificate(m, replace(solve_lp(m), duals=duals))
    count = "no" if duals is None else len(duals)
    assert rep.failures == [f"{count} duals for 2 rows"]


@pytest.mark.parametrize("name", ["nc", "ocu"])
def test_every_enumeration_lp_passes_the_dual_certificate(name, monkeypatch):
    # with the binaries pinned, many rows presolve into bounds, and the
    # postsolve must price each one that binds
    models = []
    for seed in (0, 1):
        inst = generate_instance(GeneratorConfig(seed=seed, n=4, chain_count=2,
                                                 scenario_count=2))
        models.append(build_nc(inst) if name == "nc"
                      else build_ocu(inst, compute_baselines(inst)))
    real, solved = milp.solve_lp, []

    def recording(model, extra_bounds=None):
        solved.append((model, real(model, extra_bounds)))
        return solved[-1][1]

    monkeypatch.setattr(milp, "solve_lp", recording)
    for model in models:
        milp.solve_by_enumeration(model)
    optimal = [(m, r) for m, r in solved if r.status == "optimal"]
    assert len(optimal) >= 20
    priced = 0
    for m, r in optimal:
        rep = verify_certificate(m, r)
        assert rep.passed, rep.failures
        bounds = _standardize(m, r.extra_bounds).singletons
        priced += any(r.duals[rows].any() for rows, *_ in bounds)
    assert priced > len(optimal) // 2


def test_subtract_in_order_matches_a_scalar_loop():
    rng = np.random.default_rng(0)
    for _ in range(3000):
        size = int(rng.integers(1, 40))
        idx = np.sort(rng.integers(0, 8, size))   # repeated indices, adjacent
        amounts = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 8, size)
        amounts[rng.random(size) < 0.2] = 0.0
        amounts[rng.random(size) < 0.1] = -0.0
        start = rng.choice([0.0, -0.0, 1.0, 1e-8], 8) * rng.uniform(-1e8, 1e8, 8)
        expect = start.copy()
        for i, a in zip(idx, amounts):
            if a != 0.0:
                expect[i] -= a
        got = start.copy()
        _subtract_in_order(got, idx, amounts)
        assert got.tobytes() == expect.tobytes()


def test_phase2_drops_nonbasic_artificials(monkeypatch):
    # the second row is twice the first: once x enters, its artificial
    # stays basic at 0 into phase 2, caged there, and phase 2 then moves
    # from x to y under the nonbasic artificial of the first row
    m = lp([("x", 2.0), ("y", 1.0)],
           [("eq1[a]", [("x", 1.0), ("y", 1.0)], EQ, 2.0),
            ("eq1[b]", [("x", 2.0), ("y", 2.0)], EQ, 4.0)],
           [("x", 0.0, math.inf), ("y", 0.0, math.inf)])
    real, calls = simplex._iterate, []

    def spy(N, cols, slot, xB, basis, status, *args, **kwargs):
        calls.append((N.shape[1], cols.copy(), slot.copy(), basis.copy(),
                      status.copy()))
        return real(N, cols, slot, xB, basis, status, *args, **kwargs)

    monkeypatch.setattr(simplex, "_iterate", spy)
    r = solve_lp(m)
    assert r.status == "optimal"
    assert r.x.tolist() == [0.0, 2.0]
    assert r.objective == 2.0
    assert r.iterations == 2
    assert verify_certificate(m, r).passed

    art = _standardize(m, None).art_mask
    assert len(calls) == 2 and art.sum() == 2
    width, cols, slot, basis, status = calls[1]
    assert art[basis].sum() == 1   # the caged artificial
    nonbasic = np.flatnonzero(status != BASIC)
    assert art[nonbasic].sum() == 1   # the one phase 2 leaves out
    assert width == len(cols) == len(nonbasic) - 1
    assert not art[cols].any()
    assert sorted(cols) == sorted(nonbasic[~art[nonbasic]])
    assert (slot[cols] == np.arange(width)).all()
    assert (slot >= 0).sum() == width
