"""The compiled array form of a model and the presolve that runs over it."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_toy3
from hubloc.formulations import build_cc, build_ccu, build_nc, build_ocu
from hubloc.instance import GeneratorConfig, generate_instance
from hubloc.milp import solve_milp
from hubloc.model import EQ, GE, LE, LinearModel, with_extra_constraint
from hubloc.regret import hub_sets
from hubloc.simplex import (FEAS_TOL, _standardize, _values_from_state,
                            compiled, solve_lp, verify_certificate)

BUILDERS = {
    "nc": build_nc,
    "cc": build_cc,
    "ccu": lambda inst: build_ccu(inst, [0.0] * inst.num_scenarios),
    "ocu": lambda inst: build_ocu(inst, [0.0] * inst.num_scenarios),
}


def dense_from_terms(model):
    A = np.zeros((len(model.constraints), model.num_variables))
    for i, con in enumerate(model.constraints):
        for j, c in con.terms:
            A[i, j] += c
    return A


def dense_from_compiled(cm, shape):
    A = np.zeros(shape)
    A[cm.rows, cm.cols] = cm.vals
    return A


@pytest.mark.parametrize("key", sorted(BUILDERS))
@pytest.mark.parametrize("inst", [
    make_toy3(),
    generate_instance(GeneratorConfig(seed=3, n=4, chain_count=2,
                                      scenario_count=2)),
], ids=["toy3", "n4"])
def test_compiled_arrays_match_terms(inst, key):
    model = BUILDERS[key](inst)
    # one row whose terms repeat a column and cancel another
    model.add_constraint("eq99[dup]", [(0, 1.0), (1, 2.0), (0, 0.5),
                                       (1, -2.0)], LE, 3.0)
    cm = compiled(model)
    A = dense_from_terms(model)
    assert np.array_equal(dense_from_compiled(cm, A.shape), A)
    assert np.all(cm.vals != 0.0)
    assert len(set(zip(cm.rows, cm.cols))) == len(cm.vals)
    assert np.all(np.diff(cm.rows) >= 0)
    last = cm.rows == len(model.constraints) - 1
    assert cm.cols[last].tolist() == [0] and cm.vals[last].tolist() == [1.5]
    sense = {LE: 1, EQ: 0, GE: -1}
    assert cm.sense.tolist() == [sense[c.relation] for c in model.constraints]
    assert cm.rhs.tolist() == [c.rhs for c in model.constraints]
    assert cm.lo.tolist() == [v.lb for v in model.variables]
    assert cm.hi.tolist() == [v.ub for v in model.variables]
    assert np.array_equal(cm.c, model.objective_vector())


def test_compiled_form_is_cached_until_a_change(toy3):
    model = build_nc(toy3)
    cm = compiled(model)
    assert compiled(model) is cm
    model.set_objective(model.objective)
    assert compiled(model) is not cm


def test_add_constraint_after_solve_changes_next_solve(toy3):
    model = build_nc(toy3)
    assert hub_sets(solve_milp(model).values)["open_hubs"] == [1]
    model.add_constraint("extra[h]", [(model.name_index["H[1]"], 1.0)], EQ, 0.0)
    sol = solve_milp(model)
    assert sol.status == "optimal"
    assert 1 not in hub_sets(sol.values)["open_hubs"]
    assert sol.objective > 25.0 + 1e-6


def test_with_extra_constraint_leaves_source_result(toy3):
    model = build_nc(toy3)
    before = solve_lp(model)
    clone = with_extra_constraint(model, "extra[h]",
                                  [(model.name_index["H[1]"], 1.0)], EQ, 0.0)
    assert solve_lp(clone).objective > before.objective + 1e-6
    after = solve_lp(model)
    assert after.objective == before.objective
    assert np.array_equal(after.x, before.x)


def test_certificate_catches_a_corrupted_compiled_form(toy3):
    model = build_nc(toy3)
    cm = compiled(model)
    # without this term, flow distributed from hub 2 escapes its opening cost
    row = model.constraints.index(
        next(c for c in model.constraints if c.label == "eq7[l=2,j=2]"))
    drop = (cm.rows == row) & (cm.cols == model.name_index["X[0,2,2]"])
    assert drop.sum() == 1
    model._compiled = replace(cm, rows=cm.rows[~drop], cols=cm.cols[~drop],
                              vals=cm.vals[~drop])
    res = solve_lp(model)
    assert res.status == "optimal"
    assert res.objective < 25.0 - 1e-6
    rep = verify_certificate(model, res)
    assert not rep.passed
    assert any("eq7[l=2,j=2]" in f for f in rep.failures)


def small_model():
    """min x + 2y  s.t.  x + y >= 2,  x - y <= 1,  0 <= x, y <= 5."""
    m = LinearModel()
    x = m.add_variable("x", lb=0.0, ub=5.0)
    y = m.add_variable("y", lb=0.0, ub=5.0)
    m.add_constraint("eq1[cover]", [(x, 1.0), (y, 1.0)], GE, 2.0)
    m.add_constraint("eq1[gap]", [(x, 1.0), (y, -1.0)], LE, 1.0)
    m.set_objective([(x, 1.0), (y, 2.0)])
    return m


def test_every_column_fixed_leaves_no_free_column():
    m = small_model()
    fix = {0: (1.5, 1.5), 1: (1.0, 1.0)}
    sf = _standardize(m, fix)
    assert not isinstance(sf, str)
    assert sf.A.shape == (0, 0)
    res = solve_lp(m, extra_bounds=fix)
    assert res.status == "optimal"
    assert res.x.tolist() == [1.5, 1.0]
    assert res.objective == pytest.approx(3.5)
    assert verify_certificate(m, res).passed


def test_singleton_row_becomes_a_bound():
    m = small_model()
    # with y pinned at 0.25, eq1[gap] reads x <= 1.25 and eq1[cover] x >= 1.75
    sf = _standardize(m, {1: (0.25, 0.25)})
    assert sf == "empty bound interval for x"
    # with y pinned at 1, eq1[gap] is x <= 2 and eq1[cover] x >= 1
    sf = _standardize(m, {1: (1.0, 1.0)})
    assert not isinstance(sf, str)
    assert sf.A.shape[0] == 0
    # x is 1 + its one column, capped at 2 - 1
    assert (sf.x0[0], sf.col_sign.tolist(), sf.ub[0]) == (1.0, [1.0], 1.0)
    res = solve_lp(m, extra_bounds={1: (1.0, 1.0)})
    assert res.x.tolist() == [1.0, 1.0]
    # a negative coefficient flips the sense: -2x <= -3 is x >= 1.5
    m.add_constraint("eq1[neg]", [(0, -2.0)], LE, -3.0)
    sf = _standardize(m, None)
    assert sf.x0[0] == 1.5 and sf.ub[0] == 3.5
    assert solve_lp(m).x[0] == pytest.approx(1.5)


def test_row_emptied_by_fixing_is_checked():
    m = small_model()
    sf = _standardize(m, {0: (0.5, 0.5), 1: (0.5, 0.5)})
    assert sf == ("constraint eq1[cover] unsatisfiable "
                                 "after fixing")
    assert solve_lp(m, extra_bounds={0: (0.5, 0.5), 1: (0.5, 0.5)}).status \
        == "infeasible"
    # terms that cancel leave an empty row at compile time
    m.add_constraint("eq1[void]", [(0, 1.0), (0, -1.0)], LE, -1.0)
    assert solve_lp(m).status == "infeasible"


def test_empty_bound_interval_is_infeasible():
    m = small_model()
    sf = _standardize(m, {1: (3.0, 2.0)})
    assert sf == "empty bound interval for y"
    assert solve_lp(m, extra_bounds={1: (3.0, 2.0)}).status == "infeasible"


def test_free_and_mirrored_columns_keep_their_offsets():
    m = LinearModel()
    f = m.add_variable("f", lb=-math.inf, ub=math.inf)
    g = m.add_variable("g", lb=-math.inf, ub=-1.0)
    h = m.add_variable("h", lb=2.0, ub=6.0)
    m.add_constraint("eq1[a]", [(f, 1.0), (g, 1.0), (h, 1.0)], EQ, 4.0)
    m.add_constraint("eq1[b]", [(f, 1.0), (g, -1.0)], LE, 5.0)
    m.set_objective([(f, 1.0), (g, -1.0), (h, 0.5)])
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.x == pytest.approx([-1.0, -1.0, 6.0])
    assert verify_certificate(m, res).passed


@pytest.mark.parametrize("vp,vm", [(-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0),
                                   (0.0, -0.0), (0.3, 0.1)],
                         ids=["-0+0", "+0+0", "-0-0", "+0-0", "nonzero"])
def test_the_signed_map_adds_each_column_bit_for_bit(vp, vm):
    """x = x0 + sum of col_sign * column: a variable without bounds reads
    v+ - v-, zero sign included, a shifted one lo + v and a mirrored one
    hi - v, all bit for bit."""
    m = LinearModel()
    f = m.add_variable("f", lb=-math.inf, ub=math.inf)
    g = m.add_variable("g", lb=-math.inf, ub=0.7)
    h = m.add_variable("h", lb=0.1, ub=6.0)
    p = m.add_variable("p", lb=0.25, ub=0.25)
    m.add_constraint("eq1[a]", [(f, 1.0), (g, 1.0), (h, 1.0), (p, 1.0)], LE, 4.0)
    m.add_constraint("eq1[b]", [(f, 1.0), (g, -1.0)], LE, 5.0)
    sf = _standardize(m, None)
    assert sf.col_ref.tolist() == [f, f, g, h]
    assert sf.col_sign.tolist() == [1.0, -1.0, -1.0, 1.0]
    vals = np.zeros(sf.A.shape[1])
    vals[:4] = [vp, vm, 0.2, 0.2]
    x = _values_from_state(sf, vals)
    assert x.tobytes() == np.array([vp - vm, 0.7 - 0.2, 0.1 + 0.2,
                                    0.25]).tobytes()
    if math.copysign(1.0, vp) < 0 < math.copysign(1.0, vm):
        assert math.copysign(1.0, x[f]) == -1.0   # -0.0 - +0.0 is -0.0


def reference_presolve(model, extra_bounds):
    """The term-by-term fixpoint that the array presolve replaced.

    Returns the infeasibility reason, or the fixed values, reduced bounds
    and sign-normalized rhs of the rows left to the simplex.
    """
    n = model.num_variables
    lo = np.array([v.lb for v in model.variables], dtype=float)
    hi = np.array([v.ub for v in model.variables], dtype=float)
    for j, (l, u) in (extra_bounds or {}).items():
        lo[j], hi[j] = max(lo[j], l), min(hi[j], u)
    rows, rhs = [], []
    for con in model.constraints:
        acc = {}
        for j, c in con.terms:
            acc[j] = acc.get(j, 0.0) + c
        rows.append({j: c for j, c in acc.items() if c != 0.0})
        rhs.append(con.rhs)
    live = [True] * len(rows)
    fixed = np.full(n, np.nan)
    changed = True
    while changed:
        changed = False
        for j in range(n):
            if np.isnan(fixed[j]) and lo[j] > hi[j] + FEAS_TOL:
                return f"empty bound interval for {model.variables[j].name}"
            if np.isnan(fixed[j]) and hi[j] - lo[j] <= 1e-12:
                fixed[j] = 0.5 * (lo[j] + hi[j])
                changed = True
        for i, row in enumerate(rows):
            if not live[i]:
                continue
            for j in [j for j in row if not np.isnan(fixed[j])]:
                rhs[i] -= row.pop(j) * fixed[j]
            rel = model.constraints[i].relation
            if not row:
                r = rhs[i]
                if not (abs(r) <= FEAS_TOL if rel == EQ
                        else r >= -FEAS_TOL if rel == LE else r <= FEAS_TOL):
                    return (f"constraint {model.constraints[i].label} "
                            f"unsatisfiable after fixing")
            elif len(row) == 1:
                (j, a), = row.items()
                sense = rel if a > 0 else {LE: GE, GE: LE, EQ: EQ}[rel]
                if sense in (LE, EQ):
                    hi[j] = min(hi[j], rhs[i] / a)
                if sense in (GE, EQ):
                    lo[j] = max(lo[j], rhs[i] / a)
            else:
                continue
            live[i] = False
            changed = True
    b = []
    for i in (i for i in range(len(rows)) if live[i]):
        bi = rhs[i]
        for j, a in sorted(rows[i].items()):
            if lo[j] > -math.inf:
                bi -= a * lo[j]
            elif hi[j] < math.inf:
                bi -= a * hi[j]
        b.append(-bi if bi < 0 else bi)
    return fixed, lo, hi, np.array(b)


def reference_map(fixed, lo, hi):
    """The signed column map of the variables that ``reference_presolve``
    leaves: ``x0`` per variable and the variable, sign and upper bound of
    each structural column, in variable order."""
    x0, col_ref, col_sign, ub = fixed.copy(), [], [], []
    for j in np.flatnonzero(np.isnan(fixed)):
        if lo[j] > -math.inf:     # lo + column, at most hi - lo
            x0[j], cols = lo[j], [(1.0, hi[j] - lo[j])]
        elif hi[j] < math.inf:    # hi - column
            x0[j], cols = hi[j], [(-1.0, math.inf)]
        else:                     # -0.0 + column - column
            x0[j], cols = -0.0, [(1.0, math.inf), (-1.0, math.inf)]
        for sign, u in cols:
            col_ref.append(j)
            col_sign.append(sign)
            ub.append(u)
    return x0, col_ref, col_sign, ub


def presolve_cases():
    rng = np.random.default_rng(5)
    inst = generate_instance(GeneratorConfig(seed=1, n=4, chain_count=2,
                                             scenario_count=2))
    for model in (BUILDERS["nc"](inst), BUILDERS["ocu"](inst)):
        bins = model.binary_indices()
        yield model, None
        for share in (0.3, 0.7, 1.0):
            for _ in range(4):
                picked = [j for j in bins if rng.random() < share]
                yield model, {j: (v, v) for j in picked
                              for v in [float(rng.integers(0, 2))]}
    # rows over twelve columns in shuffled order: even columns pinned, odd
    # ones shifted by their lower bound or mirrored at their upper bound
    model = LinearModel()
    for j in range(12):
        model.add_variable(f"x{j}", lb=-math.inf if j % 4 == 1 else -5.0, ub=4.5)
    for i in range(30):
        terms = [(int(j), float(np.round(rng.uniform(-3, 3), 2)))
                 for j in rng.permutation(12)]
        model.add_constraint(f"eq1[p{i}]", terms, LE,
                             float(np.round(rng.uniform(-4, 4), 2)))
    yield model, {j: (v, v) for j in range(0, 12, 2)
                  for v in [float(np.round(rng.uniform(-2, 2), 3))]}
    for _ in range(40):
        n, m = int(rng.integers(1, 7)), int(rng.integers(0, 8))
        model = LinearModel()
        for j in range(n):
            lb, ub = [(0.0, math.inf), (-math.inf, math.inf), (-2.5, 3.25),
                      (-math.inf, 1.75)][int(rng.integers(0, 4))]
            model.add_variable(f"x{j}", lb=lb, ub=ub)
        for i in range(m):
            cols = rng.integers(0, n, int(rng.integers(0, 4)))
            model.add_constraint(f"eq1[r{i}]",
                                 [(int(j), float(np.round(rng.uniform(-3, 3), 2)))
                                  for j in cols], [LE, GE, EQ][int(rng.integers(0, 3))],
                                 float(np.round(rng.uniform(-4, 4), 2)))
        pins = rng.integers(0, n, int(rng.integers(0, n + 1)))
        yield model, {int(j): (v, v) for j in pins
                      for v in [float(np.round(rng.uniform(-2, 2), 3))]}


def test_array_presolve_matches_term_by_term_reference():
    for model, extra in presolve_cases():
        want = reference_presolve(model, extra)
        got = _standardize(model, extra)
        if isinstance(want, str):
            assert got == want
            continue
        x0, col_ref, col_sign, ub = reference_map(*want[:3])
        # the two presolves may tighten a bound to zeros of other signs
        # (np.maximum.at(0.0, -0.0) is -0.0, max(0.0, -0.0) is 0.0), so
        # only a variable without bounds has its zero sign compared
        assert np.array_equal(got.x0, x0)
        split = [j for j in col_ref if col_ref.count(j) == 2]
        assert np.signbit(got.x0[split]).all()
        assert got.col_ref.tolist() == col_ref
        assert got.col_sign.tolist() == col_sign
        assert got.ub[:len(col_ref)].tolist() == ub
        assert np.array_equal(got.b, want[3])


def test_threads_sharing_a_model_agree():
    inst = generate_instance(GeneratorConfig(seed=2, n=4, chain_count=2,
                                             scenario_count=2))
    expected = solve_lp(BUILDERS["ocu"](inst))
    model = BUILDERS["ocu"](inst)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(lambda _: solve_lp(model), range(8),
                                    timeout=120))
    finally:
        sys.setswitchinterval(old)
    for res in results:
        assert res.iterations == expected.iterations
        assert np.array_equal(res.x, expected.x)
