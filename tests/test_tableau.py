"""The condensed simplex tableau against a frozen full-tableau reference.

``solve_lp`` stores and updates only the tableau columns of the nonbasic
variables.  The reference below is the full m x ncols pivot loop and
two-phase solve it replaced, with its ``np.outer`` update; it only adds a
record of when the Bland fallback fires, when a column flips between its
bounds and when a column enters from its upper bound.  The two agree on
every tableau value and may differ only in the sign of a zero entry, for
two reasons: ``solve_lp``'s ``np.einsum`` update writes a -0 product as
+0, and on a large tableau with a sparse pivot row it skips the columns
whose pivot-row entry is zero, so they keep their own zero sign.
``solve_lp`` also stores its tableau column-major and, on a large
tableau, subtracts the outer product in slices: that changes where cells
sit and the order they are visited, but no value, so nothing below
depends on it.
Both run on the module's own standard form, basis refinement and value
recovery, the reference under ``one_blas_thread`` as ``solve_lp`` is, so
on every LP they must take the same pivots and report the same status,
iteration count, basis, statuses and values, exactly.  The comparison
needs no stored digest, so it holds on any BLAS build.
"""

import math

import numpy as np
import pytest

from conftest import make_toy3
from hubloc import milp, simplex
from hubloc.formulations import build_cc, build_ccu, build_nc, build_ocu
from hubloc.instance import GeneratorConfig, generate_instance
from hubloc.model import LE, LinearModel
from hubloc.regret import compute_baselines
from hubloc.simplex import (BASIC, BLOCK_CELLS, FEAS_TOL, NB_LOWER,
                            NB_UPPER, OPT_TOL, PIVOT_TOL, SPARSE_CELLS,
                            SPARSE_ROW, ZERO_PIVOT, SimplexError, _iterate,
                            _refine_basics, _standardize, _values_from_state,
                            one_blas_thread, solve_lp)


def _reference_iterate(T, xB, basis, status, ub, d, maxit, start_iter,
                       allow_unbounded, events):
    m, ncols = T.shape
    it = start_iter
    stall = 0
    bland = False
    while True:
        elig_lo = (status == NB_LOWER) & (d < -OPT_TOL) & (ub > 0)
        elig_up = (status == NB_UPPER) & (d > OPT_TOL) & (ub > 0)
        if not elig_lo.any() and not elig_up.any():
            return "optimal", it
        if it - start_iter >= maxit:
            raise SimplexError(
                f"numerical breakdown: no progress within {maxit} pivots")
        if bland:
            cand = np.nonzero(elig_lo | elig_up)[0]
            q = int(cand[0])
        else:
            score = np.where(elig_lo, -d, np.where(elig_up, d, -math.inf))
            q = int(np.argmax(score))
        sigma = 1.0 if status[q] == NB_LOWER else -1.0
        scol = sigma * T[:, q]

        lims = np.full(m, math.inf)
        if m:
            pos = scol > PIVOT_TOL
            np.divide(np.maximum(xB, 0.0), scol, out=lims, where=pos)
            ubB = ub[basis]
            neg = (scol < -PIVOT_TOL) & np.isfinite(ubB)
            if neg.any():
                room = np.maximum(ubB - xB, 0.0)
                lims[neg] = np.minimum(lims[neg], room[neg] / -scol[neg])
        step_basic = float(lims.min()) if m else math.inf
        step = min(step_basic, ub[q])
        if step == math.inf:
            if not allow_unbounded:
                raise SimplexError("numerical breakdown: phase-1 ray")
            return "unbounded", it

        it += 1
        stall = stall + 1 if step <= 1e-12 else 0
        if stall >= m + ncols:
            bland = True
            events.append("bland")
        elif step > 1e-12:
            bland = False

        if step_basic > ub[q] + 1e-12:
            xB -= sigma * ub[q] * T[:, q]
            status[q] = NB_UPPER if status[q] == NB_LOWER else NB_LOWER
            events.append("flip")
            continue

        achievers = np.nonzero(lims <= step + 1e-9)[0]
        if bland:
            r = int(achievers[np.argmin(basis[achievers])])
        else:
            r = int(achievers[np.argmax(np.abs(scol[achievers]))])
        p = basis[r]
        if status[q] == NB_UPPER:
            events.append("enter-upper")
        enter_val = (0.0 if status[q] == NB_LOWER else ub[q]) + sigma * step
        if enter_val < 0.0:
            enter_val = 0.0
        xB -= sigma * step * T[:, q]
        status[p] = NB_LOWER if scol[r] > 0 else NB_UPPER
        piv = T[r, q]
        if abs(piv) <= ZERO_PIVOT:
            raise SimplexError(f"numerical breakdown: pivot {piv:.2e}")
        trow = T[r] / piv
        colq = T[:, q].copy()
        T -= np.outer(colq, trow)
        T[r] = trow
        d -= d[q] * trow
        d[q] = 0.0
        xB[r] = enter_val
        basis[r] = q
        status[q] = BASIC


def _reference_solve(model, extra_bounds=None, events=None):
    """(status, iterations, basis, vstatus, x) from the full tableau."""
    events = [] if events is None else events
    sf = _standardize(model, extra_bounds)
    if isinstance(sf, str):
        return "infeasible", 0, np.zeros(0, int), np.zeros(0, int), None
    m, ncols = sf.A.shape
    T = sf.A.copy()
    xB = sf.b.copy()
    basis = sf.init_basis.copy()
    status = np.full(ncols, NB_LOWER, dtype=int)
    status[basis] = BASIC
    ub = sf.ub.copy()
    maxit = 50 * (m + ncols)
    iters = 0
    if sf.art_mask.any():
        c1 = sf.art_mask.astype(float)
        d = c1 - c1[basis] @ T
        _, iters = _reference_iterate(T, xB, basis, status, ub, d, maxit, iters,
                                      False, events)
        xB = _refine_basics(sf.A, sf.b, basis, status, ub)[0][basis]
        if float(c1[basis] @ np.maximum(xB, 0.0)) > FEAS_TOL:
            return "infeasible", iters, basis, status, None
        ub[sf.art_mask] = 0.0
    d = sf.c - sf.c[basis] @ T
    outcome, iters = _reference_iterate(T, xB, basis, status, ub, d, maxit,
                                        iters, True, events)
    if outcome == "unbounded":
        return "unbounded", iters, basis, status, None
    vals, _ = _refine_basics(sf.A, sf.b, basis, status, ub)
    return "optimal", iters, basis, status, _values_from_state(sf, vals)


def _assert_same_pivots(model, extra_bounds=None):
    with one_blas_thread():   # as solve_lp refines its basics
        want = _reference_solve(model, extra_bounds)
    got = solve_lp(model, extra_bounds)
    assert (got.status, got.iterations) == want[:2]
    assert np.array_equal(got.basis, want[2])
    assert np.array_equal(got.vstatus, want[3])
    if want[4] is None:
        assert got.x is None
    else:
        assert np.array_equal(got.x, want[4])


def _hub_models(inst):
    base = compute_baselines(inst)
    return {"nc": build_nc(inst), "cc": build_cc(inst),
            "ccu": build_ccu(inst, base), "ocu": build_ocu(inst, base)}


CORPUS = {"toy3": make_toy3} | {
    f"n4-seed{s}": (lambda s=s: generate_instance(
        GeneratorConfig(seed=s, n=4, chain_count=2)))
    for s in range(3)}
# instances whose B&B branches, so node LPs with fixed binaries are checked
BRANCHING = {"n4-seed0", "n4-seed2"}


def _count_calls(monkeypatch, name):
    """Count the calls ``_iterate`` makes to the update form ``name``."""
    calls = []
    form = getattr(simplex, name)

    def spy(*args):
        calls.append(args[0].shape)
        return form(*args)

    monkeypatch.setattr(simplex, name, spy)
    return calls


def _capture_lps(monkeypatch):
    """Record the (model, extra_bounds) of every LP that ``milp`` solves."""
    seen = []

    def capture(model, extra_bounds=None):
        seen.append((model, extra_bounds))
        return solve_lp(model, extra_bounds)

    monkeypatch.setattr(milp, "solve_lp", capture)
    return seen


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_root_and_node_lps_match_full_tableau(name, monkeypatch):
    seen = _capture_lps(monkeypatch)
    for model in _hub_models(CORPUS[name]()).values():
        _assert_same_pivots(model)
        assert milp.solve_milp(model).status == "optimal"
    assert any(eb for _, eb in seen) == (name in BRANCHING)
    for model, extra_bounds in seen:
        _assert_same_pivots(model, extra_bounds)


def test_ocu_root_lp_at_n6_matches_full_tableau(monkeypatch):
    """The root and node LPs of one n=6 model: tableaux this large are
    where the update's +0 and the reference's -0 entries differ most, and
    above the SPARSE_CELLS and BLOCK_CELLS gates, so they also cover the
    update that skips the zero columns of a sparse pivot row and the one
    that subtracts the outer product in slices."""
    inst = generate_instance(GeneratorConfig(seed=0, n=6, chain_count=2,
                                             scenario_count=2))
    model = build_ocu(inst, compute_baselines(inst))
    seen = _capture_lps(monkeypatch)
    blocked = _count_calls(monkeypatch, "_blocked_update")
    sparse = _count_calls(monkeypatch, "_sparse_update")
    assert milp.solve_milp(model).status == "optimal"
    assert seen[0][1] is None and any(eb for _, eb in seen)
    assert blocked and sparse
    for node, extra_bounds in seen:
        _assert_same_pivots(node, extra_bounds)


def test_signed_zero_entries_pivot_like_the_full_tableau():
    """Pivot rows and columns holding +0.0 and -0.0.  On this LP two zeros
    of the final N have the other sign than in the full tableau; every
    value and every pivot is the same."""
    A = np.array([[-0.0, -0.0, 2.0, 1.0],
                  [0.0, -0.0, 3.0, 2.0],
                  [-0.0, 1.0, 0.0, -0.0]])
    m, n = A.shape
    T = np.hstack([A, np.eye(m)])
    start = dict(xB=np.array([4.0, 3.0, 6.0]), basis=np.arange(n, n + m),
                 status=np.array([NB_LOWER] * n + [BASIC] * m),
                 ub=np.array([1.5] + [math.inf] * (n - 1 + m)),
                 d=np.array([-3.0, -2.0, -1.0, -1.0] + [0.0] * m))
    want = {k: v.copy() for k, v in start.items()}
    outcome = _reference_iterate(T, want["xB"], want["basis"], want["status"],
                                 want["ub"], want["d"], 100, 0, True, [])
    got = {k: v.copy() for k, v in start.items()}
    cols = np.arange(n)
    slot = np.array(list(range(n)) + [-1] * m)
    N = A.copy()
    assert _iterate(N, cols, slot, got["xB"], got["basis"], got["status"],
                    got["ub"], got["d"], 100, 0, True) == outcome
    assert outcome == ("optimal", 4)
    assert np.array_equal(got["basis"], want["basis"])
    assert np.array_equal(got["status"], want["status"])
    assert (N == T[:, cols]).all()


def test_sparse_pivot_rows_of_a_large_tableau_pivot_like_the_full_tableau():
    """A 100 x 200 condensed N, above the SPARSE_CELLS gate, whose rows
    hold 8 nonzeros each among +0.0 and -0.0 entries, so the update skips
    the columns with a zero pivot-row entry.  The first pivot is row 0,
    column 0 by construction: column 0 has the most negative reduced cost
    and its only positive entry in row 0."""
    rng = np.random.default_rng(23)
    m, n = 100, 200
    A = np.where(rng.random((m, n)) < 0.5, -0.0, 0.0)
    for i in range(m):
        js = rng.choice(np.arange(1, n), size=8, replace=False)
        A[i, js] = rng.uniform(0.5, 2.0, size=8)
    A[0, 0] = 1.0
    assert A.size >= SPARSE_CELLS
    assert np.count_nonzero(A[0]) < SPARSE_ROW * n
    zeros = A[0][A[0] == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    ub = np.where(rng.random(n) < 0.3, rng.uniform(0.5, 3.0, n), math.inf)
    ub[(A <= 0.0).all(axis=0)] = 2.0
    d = -rng.uniform(0.1, 1.0, n)
    d[0] = -5.0
    T = np.hstack([A, np.eye(m)])
    start = dict(xB=rng.uniform(1.0, 10.0, m), basis=np.arange(n, n + m),
                 status=np.array([NB_LOWER] * n + [BASIC] * m),
                 ub=np.concatenate([ub, np.full(m, math.inf)]),
                 d=np.concatenate([d, np.zeros(m)]))
    want = {k: v.copy() for k, v in start.items()}
    events = []
    outcome = _reference_iterate(T, want["xB"], want["basis"], want["status"],
                                 want["ub"], want["d"], 10_000, 0, True, events)
    got = {k: v.copy() for k, v in start.items()}
    cols = np.arange(n)
    slot = np.array(list(range(n)) + [-1] * m)
    N = A.copy()
    assert _iterate(N, cols, slot, got["xB"], got["basis"], got["status"],
                    got["ub"], got["d"], 10_000, 0, True) == outcome
    assert outcome[0] == "optimal" and "flip" in events
    assert np.array_equal(got["basis"], want["basis"])
    assert np.array_equal(got["status"], want["status"])
    assert np.array_equal(got["xB"], want["xB"])
    assert np.array_equal(got["d"], want["d"])
    assert (N == T[:, cols]).all()


def test_dense_pivot_rows_of_a_blocked_tableau_pivot_like_the_full_tableau(
        monkeypatch):
    """A 100 x 400 column-major N, above the BLOCK_CELLS gate, so the
    update runs in slices of whole columns; 400 is not a multiple of the
    slice width, so the last slice is partial.  Its pivot rows are dense,
    so the sparse form never runs, and a sixth of its entries are +0.0 or
    -0.0.  Every value and every pivot is the full tableau's."""
    rng = np.random.default_rng(34)
    m, n = 100, 400
    A = np.where(rng.random((m, n)) < 0.5, -0.0, 0.0)
    live = rng.random((m, n)) >= 1 / 6
    A[live] = rng.uniform(0.5, 2.0, size=live.sum())
    assert A.size > BLOCK_CELLS and n % (BLOCK_CELLS // m)
    assert np.signbit(A[A == 0.0]).any() and not np.signbit(A[A == 0.0]).all()
    ub = np.where(rng.random(n) < 0.3, rng.uniform(0.5, 3.0, n), math.inf)
    T = np.hstack([A, np.eye(m)])
    start = dict(xB=rng.uniform(1.0, 10.0, m), basis=np.arange(n, n + m),
                 status=np.array([NB_LOWER] * n + [BASIC] * m),
                 ub=np.concatenate([ub, np.full(m, math.inf)]),
                 d=np.concatenate([-rng.uniform(0.1, 1.0, n), np.zeros(m)]))
    want = {k: v.copy() for k, v in start.items()}
    outcome = _reference_iterate(T, want["xB"], want["basis"], want["status"],
                                 want["ub"], want["d"], 10_000, 0, True, [])
    got = {k: v.copy() for k, v in start.items()}
    cols = np.arange(n)
    slot = np.array(list(range(n)) + [-1] * m)
    N = np.asfortranarray(A)
    blocked = _count_calls(monkeypatch, "_blocked_update")
    sparse = _count_calls(monkeypatch, "_sparse_update")
    assert _iterate(N, cols, slot, got["xB"], got["basis"], got["status"],
                    got["ub"], got["d"], 10_000, 0, True) == outcome
    assert outcome == ("optimal", 24)
    assert len(blocked) == 24 and not sparse   # every pivot, in slices
    assert np.array_equal(got["basis"], want["basis"])
    assert np.array_equal(got["status"], want["status"])
    assert np.array_equal(got["xB"], want["xB"])
    assert np.array_equal(got["d"], want["d"])
    assert (N == T[:, cols]).all()


def _lp(A, c, rhs, ub=math.inf):
    model = LinearModel()
    cols = [model.add_variable(f"x[{j}]", lb=0.0, ub=ub) for j in range(len(c))]
    for i, row in enumerate(A):
        model.add_constraint(f"eq1[{i}]", [(cols[j], a) for j, a in enumerate(row)
                                           if a], LE, rhs[i])
    model.set_objective([(cols[j], a) for j, a in enumerate(c) if a])
    return model


def test_lp_without_artificials_matches_full_tableau():
    model = _lp([[1.0, 2.0, 1.0], [3.0, 1.0, 2.0], [1.0, -1.0, 4.0]],
                [-2.0, -3.0, -1.0], [4.0, 6.0, 5.0], ub=1.5)
    sf = _standardize(model, None)
    assert not sf.art_mask.any()
    _assert_same_pivots(model)
    assert solve_lp(model).status == "optimal"


# A 10-row cone through the origin: every pivot is degenerate, so the stall
# counter reaches m + ncols and the Bland rule takes over before the ray.
_BLAND_CONE = (
    [[2, 2, 2, -3, -1, 2, -2, 2, -2, 2, -3, 2],
     [-2, 1, 1, -1, 1, -3, -3, 3, 2, 1, 1, -1],
     [1, 1, 0, 0, 2, -2, 2, 3, 3, -2, 0, -1],
     [-1, 0, 2, -3, 3, -2, 3, 0, -3, 2, 3, 3],
     [-3, -1, -2, -1, 2, -2, 3, 3, 2, -2, 0, 2],
     [3, -3, 2, -2, 0, -3, -3, 3, 3, 0, -3, 0],
     [1, 1, 1, 0, 2, 1, -3, 1, 1, 1, 0, 3],
     [-1, 3, 0, 0, -2, 0, 3, 1, 2, -1, 2, 1],
     [0, -2, 0, -2, -1, 3, -3, -1, 2, 1, 1, 3],
     [-2, -2, -3, -2, -1, 0, -3, -1, 2, 0, -3, -2]],
    [-1, -5, -5, -1, 2, 3, 6, -4, -4, 0, 4, 2])


def test_bland_fallback_lp_matches_full_tableau():
    A, c = _BLAND_CONE
    model = _lp(np.array(A, float), np.array(c, float), np.zeros(len(A)))
    events = []
    assert _reference_solve(model, events=events)[0] == "unbounded"
    assert "bland" in events
    _assert_same_pivots(model)


def test_compared_lps_flip_bounds_and_enter_from_upper_bounds():
    """The root LPs compared above take both paths that update the signed
    pricing weights without a plain pivot from a lower bound."""
    events = []
    for name in sorted(CORPUS):
        _reference_solve(_hub_models(CORPUS[name]())["ccu"], events=events)
    assert "flip" in events
    assert "enter-upper" in events


def test_pricing_tie_enters_the_lowest_index():
    # columns 1 and 2 have the same reduced cost -2: column 1 must enter
    model = _lp([[1.0, 1.0, 1.0]], [-1.0, -2.0, -2.0], [1.0])
    res = solve_lp(model)
    assert (res.status, res.iterations) == ("optimal", 1)
    assert res.x.tolist() == [0.0, 1.0, 0.0]
    _assert_same_pivots(model)


def test_lp_with_every_column_fixed_is_optimal():
    model = _lp([[1.0, 1.0]], [1.0, 2.0], [2.0])
    fix = {0: (1.0, 1.0), 1: (0.5, 0.5)}
    assert _standardize(model, fix).A.shape == (0, 0)
    res = solve_lp(model, fix)
    assert (res.status, res.iterations, res.objective) == ("optimal", 0, 2.0)
    assert res.x.tolist() == [1.0, 0.5]
    _assert_same_pivots(model, fix)


@pytest.mark.parametrize("d", [[math.nan, -1.0, 0.0], [-1.0, math.nan, 0.0]])
def test_nan_reduced_cost_raises(d):
    # one row x0 + x1 + s = 1 with the slack s basic
    N = np.array([[1.0, 1.0]])
    with pytest.raises(SimplexError, match="non-finite reduced cost"):
        _iterate(N, np.array([0, 1]), np.array([0, 1, -1]), np.array([1.0]),
                 np.array([2]), np.array([NB_LOWER, NB_LOWER, BASIC]),
                 np.full(3, math.inf), np.array(d), 100, 0, True)
