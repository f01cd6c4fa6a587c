"""Differential checks against an external solver (optional).

These fuzz the LP and MILP engines against HiGHS via scipy on small random
problems with mixed bounds, free variables, and all three row relations.
They are an extra safety net on top of the enumeration oracle and skip
cleanly when scipy is not installed.  The last tier solves the four hub
models themselves, at sizes beyond the enumeration cap, with both solvers.
"""

import math
import warnings

import numpy as np
import pytest

scipy_opt = pytest.importorskip("scipy.optimize")

from hubloc.formulations import build_cc, build_ccu, build_nc, build_ocu
from hubloc.instance import GeneratorConfig, generate_instance
from hubloc.milp import solve_by_enumeration, solve_milp
from hubloc.model import BINARY, EQ, GE, LE, LinearModel
from hubloc.regret import compute_baselines
from hubloc.simplex import solve_lp


def random_lp(rng):
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, 10))
    model = LinearModel()
    lo, hi = np.zeros(n), np.zeros(n)
    for j in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            l, u = 0.0, math.inf
        elif kind == 1:
            l, u = -math.inf, math.inf
        elif kind == 2:
            l = float(np.round(rng.uniform(-5, 0), 2))
            u = float(np.round(rng.uniform(0, 5), 2))
        else:
            l, u = -math.inf, float(np.round(rng.uniform(0, 5), 2))
        lo[j], hi[j] = l, u
        model.add_variable(f"x{j}", lb=l, ub=u)
    A = np.round(rng.uniform(-3, 3, (m, n)) * (rng.random((m, n)) < 0.6), 2)
    b = np.round(rng.uniform(-4, 4, m), 2)
    rels = rng.integers(0, 3, m)
    for i in range(m):
        terms = [(j, A[i, j]) for j in range(n) if A[i, j] != 0]
        model.add_constraint(f"eq1[r{i}]", terms, [LE, GE, EQ][rels[i]],
                             float(b[i]))
    c = np.round(rng.uniform(-2, 2, n), 2)
    model.set_objective([(j, float(c[j])) for j in range(n)])
    return model, A, b, rels, c, lo, hi


def test_lp_agrees_with_reference_solver():
    rng = np.random.default_rng(0)
    for _ in range(80):
        model, A, b, rels, c, lo, hi = random_lp(rng)
        mine = solve_lp(model)
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for i in range(len(b)):
            if rels[i] == 0:
                A_ub.append(A[i]); b_ub.append(b[i])
            elif rels[i] == 1:
                A_ub.append(-A[i]); b_ub.append(-b[i])
            else:
                A_eq.append(A[i]); b_eq.append(b[i])
        ref = scipy_opt.linprog(
            c, A_ub=np.array(A_ub) if A_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(A_eq) if A_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=list(zip(np.where(np.isinf(lo), None, lo),
                            np.where(np.isinf(hi), None, hi))),
            method="highs")
        ref_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
            ref.status, "other")
        assert mine.status == ref_status
        if mine.status == "optimal":
            assert mine.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)


def test_milp_agrees_with_reference_solver():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n_bin = int(rng.integers(1, 6))
        n_cont = int(rng.integers(0, 5))
        n = n_bin + n_cont
        m = int(rng.integers(1, 8))
        model = LinearModel()
        for j in range(n_bin):
            model.add_variable(f"H[{j}]", BINARY)
        ubs = [1.0] * n_bin
        for j in range(n_cont):
            u = float(np.round(rng.uniform(1, 8), 2))
            ubs.append(u)
            model.add_variable(f"x{j}", lb=0.0, ub=u)
        A = np.round(rng.uniform(-3, 3, (m, n)) * (rng.random((m, n)) < 0.7), 2)
        b = np.round(rng.uniform(-2, 6, m), 2)
        rels = rng.integers(0, 3, m)
        for i in range(m):
            terms = [(j, A[i, j]) for j in range(n) if A[i, j] != 0]
            model.add_constraint(f"eq1[r{i}]", terms, [LE, GE, EQ][rels[i]],
                                 float(b[i]))
        c = np.round(rng.uniform(-3, 3, n), 2)
        model.set_objective([(j, float(c[j])) for j in range(n)])

        mine = solve_milp(model)
        oracle = solve_by_enumeration(model)
        assert mine.status == oracle.status
        if mine.status == "optimal":
            assert mine.objective == pytest.approx(oracle.objective, abs=1e-6,
                                                   rel=1e-6)

        lc = []
        for i in range(m):
            if rels[i] == 0:
                lc.append(scipy_opt.LinearConstraint(A[i], -np.inf, b[i]))
            elif rels[i] == 1:
                lc.append(scipy_opt.LinearConstraint(A[i], b[i], np.inf))
            else:
                lc.append(scipy_opt.LinearConstraint(A[i], b[i], b[i]))
        ref = scipy_opt.milp(c, constraints=lc,
                             integrality=[1] * n_bin + [0] * n_cont,
                             bounds=scipy_opt.Bounds(np.zeros(n), np.array(ubs)))
        if ref.status == 0:
            assert mine.status == "optimal"
            assert mine.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
        elif ref.status == 2:
            assert mine.status == "infeasible"


def highs_optimum(model):
    """Optimum of ``model`` from HiGHS, or None if it is infeasible.  The
    rows are handed over one by one, so HiGHS reads the same formulation
    but none of hubloc's LP or branch-and-bound code."""
    A = np.zeros((len(model.constraints), model.num_variables))
    lo = np.full(len(model.constraints), -math.inf)
    hi = np.full(len(model.constraints), math.inf)
    for r, con in enumerate(model.constraints):
        for j, a in con.terms:
            A[r, j] += a
        if con.relation in (EQ, GE):
            lo[r] = con.rhs
        if con.relation in (EQ, LE):
            hi[r] = con.rhs
    # HiGHS stops at a 1e-4 relative (1e-6 absolute) gap by default; the
    # comparison is at 1e-6, so the reference is solved to a much tighter
    # gap.  scipy forwards mip_abs_gap to HiGHS verbatim, with a warning.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options",
                                RuntimeWarning)
        ref = scipy_opt.milp(
            model.objective_vector(),
            constraints=scipy_opt.LinearConstraint(A, lo, hi),
            integrality=[v.kind == BINARY for v in model.variables],
            bounds=scipy_opt.Bounds([v.lb for v in model.variables],
                                    [v.ub for v in model.variables]),
            options={"mip_rel_gap": 1e-10, "mip_abs_gap": 1e-10})
    if ref.status == 2:
        return None
    assert ref.status == 0, ref.message
    return float(ref.fun)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("seed", [0, 1])
def test_hub_models_agree_with_reference_solver(n, seed):
    inst = generate_instance(GeneratorConfig(seed=seed, n=n,
                                             scenario_count=2))
    baselines = compute_baselines(inst)
    models = {"nc": build_nc(inst), "cc": build_cc(inst),
              "ccu": build_ccu(inst, baselines),
              "ocu": build_ocu(inst, baselines)}
    for name, model in models.items():
        mine = solve_milp(model)
        ref = highs_optimum(model)
        assert mine.status == "optimal" and ref is not None, name
        tol = 1e-6 * max(1.0, abs(mine.objective), abs(ref))
        assert abs(mine.objective - ref) <= tol, (name, mine.objective, ref)
