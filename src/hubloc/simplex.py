"""Dense two-phase simplex for the LP relaxations.

The solver loads a :class:`~hubloc.model.LinearModel` into an internal
standard form (nonnegative, possibly upper-bounded columns and equality
rows), runs phase 1 with artificial variables, then phase 2 with Dantzig
pricing and a Bland fallback once degeneracy stalls progress.  Free
variables are split into differences of nonnegative columns at load time.
The dense tableau keeps only the columns of the nonbasic variables: a
basic column is a unit vector that a pivot changes by exact zeros only,
so storing it only adds work, and dropping it changes no value a pivot reads.
Pricing is one product of the reduced costs with a signed weight per
column (-1 at a lower bound, +1 at an upper bound, 0 when basic or capped
at zero), and the ratio test reads the basic upper bounds from an array
kept in step with the basis, so a pivot makes few numpy calls besides the
rank-1 update.  That update forms its products with ``np.einsum``, which
rounds each one as ``np.outer`` does but may write a zero as +0 where
``np.outer`` gives -0.  On a tableau of at least 2**14 cells whose pivot
row has under a quarter of its entries nonzero, the update gathers only
the columns with a nonzero pivot-row entry, updates them and writes them
back: the columns it skips would only have had a zero subtracted, so they
keep their values, at most with another zero sign.  No pivot decision and
no reported value reads the sign of a zero tableau entry.

The tableau is stored column-major, so each of its columns, such as the
entering column the ratio test reads or one the sparse update gathers,
is contiguous memory; the updates work on its C-contiguous transpose.
Above 2**15 cells (``BLOCK_CELLS``) the dense update forms and subtracts
the outer product in slices of at most that many cells through one
buffer, instead of one temporary the size of the tableau: an n=6 ``ocu``
tableau of 420 x 450 holds 1.5 MB, and the temporary doubled the memory
each update streams through.  The layout and the slices change no
product, no subtraction and no pivot decision, only where the cells sit
and in what order they are visited.

Phase 2 has one entry, after phase 1 or not: it prices once on the
full-width tableau (the standard-form matrix when there is no artificial),
then drops the nonbasic artificial columns: phase 2 caps the artificials
at zero, so their weight is 0 and they never enter.  The ratio test
negates the entering column only where its upper-bound pass divides by
it, which changes no value that a pivot reads.

The load step is a presolve over the model's compiled arrays
(:meth:`~hubloc.model.LinearModel.compiled`, built once per model): array
passes substitute variables whose effective bounds pin them to a single
value and turn single-variable rows into bounds, which keeps
branch-and-bound node LPs small.  They stop at the first round with no
single-variable row, the only step that changes a bound.  The presolve
is a pure function of the inputs, so :func:`verify_certificate` can
rebuild the identical standard form and recheck a result's basis with
independent linear algebra.

Tolerances: feasibility 1e-7, optimality 1e-7, zero pivot 1e-10.  The
ratio test takes entries above 1e-9 as pivots; when the row it picks has
an entry below 1e-6 and below 1e-9 times the entering column's largest
|entry|, it runs again with that relative threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import LinearModel, effective_bounds, row_violations

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
PIVOT_TOL = 1e-9
REL_PIVOT = 1e-9   # times the entering column's largest |entry|
ZERO_PIVOT = 1e-10
BOUND_TOL = 1e-9
# _iterate's rank-1 update touches only the columns with a nonzero pivot-row
# entry when N has at least SPARSE_CELLS cells and under SPARSE_ROW of the
# row is nonzero; otherwise, when N has more than BLOCK_CELLS cells, it
# forms and subtracts the outer product in slices of at most BLOCK_CELLS
# cells (_pick_update)
SPARSE_CELLS = 2 ** 14
SPARSE_ROW = 0.25
BLOCK_CELLS = 2 ** 15

NB_LOWER, NB_UPPER, BASIC = 0, 1, 2

COL_SHIFT, COL_SPLIT_POS, COL_SPLIT_NEG, COL_MIRROR, COL_SLACK, COL_ART = range(6)


class SimplexError(RuntimeError):
    """Numerical breakdown: no progress in time, a tiny pivot or a singular basis."""


@dataclass
class LPResult:
    """Outcome of one LP solve.

    ``basis`` and ``vstatus`` describe the final standard-form basis so a
    certificate check can replay it.  ``x`` holds values for the original
    model variables (None unless optimal).
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    basis: np.ndarray
    vstatus: np.ndarray
    iterations: int
    extra_bounds: dict | None = None


@dataclass
class StandardForm:
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    ub: np.ndarray
    col_kind: np.ndarray
    col_ref: np.ndarray
    art_mask: np.ndarray
    init_basis: np.ndarray
    fixed: np.ndarray
    red_lo: np.ndarray
    red_hi: np.ndarray


def _violation(act, rhs, sense):
    """How far each row ``act (<=, =, >=) rhs`` is violated (<= 0 if not)."""
    return np.where(sense == 0, np.abs(act - rhs), sense * (act - rhs))


def _subtract_in_order(target, idx, amounts):
    """``target[idx] -= amounts`` term by term in order, as a loop rounds
    (``np.subtract.at`` is unbuffered); zero amounts are skipped (no -0.0)."""
    keep = amounts != 0.0
    np.subtract.at(target, idx[keep], amounts[keep])


def _standardize(model: LinearModel,
                 extra_bounds: dict | None) -> StandardForm | str:
    """Standard form of the LP, or the reason presolve found it infeasible."""
    cm = model.compiled()
    n = model.num_variables
    lo, hi = cm.lo.copy(), cm.hi.copy()
    for j, (l, u) in (extra_bounds or {}).items():
        lo[j], hi[j] = max(lo[j], l), min(hi[j], u)
    rows, cols, vals, sense = cm.rows, cm.cols, cm.vals, cm.sense
    rhs = cm.rhs.copy()
    live = np.ones(len(rhs), dtype=bool)
    free = np.ones(n, dtype=bool)
    fixed = np.full(n, np.nan)

    # presolve fixpoint: pin collapsed columns and move them to the rhs,
    # retire emptied rows after checking them, turn singleton rows into bounds;
    # a round skips each step that has nothing to act on, and a round without
    # singleton rows is the last, as only they change lo and hi
    while True:
        empty_iv = free & (lo > hi + FEAS_TOL)
        if empty_iv.any():
            return f"empty bound interval for {model.variables[np.argmax(empty_iv)].name}"
        pin = free & (hi - lo <= 1e-12)
        if pin.any():
            fixed[pin] = 0.5 * (lo[pin] + hi[pin])
            free &= ~pin
            hit = pin[cols] & live[rows]
            _subtract_in_order(rhs, rows[hit], vals[hit] * fixed[cols[hit]])
        open_ = free[cols] & live[rows]
        count = np.bincount(rows[open_], minlength=len(rhs))
        empty = live & (count == 0)
        if empty.any():
            broken = empty & (_violation(0.0, rhs, sense) > FEAS_TOL)
            if broken.any():
                label = model.constraints[np.argmax(broken)].label
                return f"constraint {label} unsatisfiable after fixing"
            live &= ~empty
        single = live & (count == 1)
        if not single.any():
            break
        one = open_ & single[rows]
        r, j, a = rows[one], cols[one], vals[one]
        v = rhs[r] / a
        side = sense[r] * np.sign(a)
        np.minimum.at(hi, j[side >= 0], v[side >= 0])
        np.maximum.at(lo, j[side <= 0], v[side <= 0])
        live &= ~single

    # column layout: structural (in variable order), slacks, artificials
    ref = np.flatnonzero(free)
    kind = np.where(lo[ref] > -math.inf, COL_SHIFT,
                    np.where(hi[ref] < math.inf, COL_MIRROR, COL_SPLIT_POS))
    width = np.where(kind == COL_SPLIT_POS, 2, 1)
    col_of = np.zeros(n, dtype=int)
    col_of[ref] = np.cumsum(width) - width
    struct_kind = np.repeat(kind, width)
    struct_kind[col_of[ref[kind == COL_SPLIT_POS]] + 1] = COL_SPLIT_NEG
    struct_ref = np.repeat(ref, width)
    col_sign = np.where((struct_kind == COL_SPLIT_NEG) | (struct_kind == COL_MIRROR),
                        -1.0, 1.0)
    n_struct = len(struct_kind)
    row_ids = np.flatnonzero(live)
    slack_rows = np.flatnonzero(sense[row_ids] != 0)
    n_slack = len(slack_rows)

    # rhs after shifting and mirroring columns, in ascending column order
    keep = free[cols] & live[rows]
    r, j, a = (np.cumsum(live) - 1)[rows[keep]], cols[keep], vals[keep]
    k = col_of[j]
    offset = np.where(struct_kind[k] == COL_SHIFT, lo[j],
                      np.where(struct_kind[k] == COL_MIRROR, hi[j], 0.0))
    b, order = rhs[row_ids], np.lexsort((j, r))
    _subtract_in_order(b, r[order], (a * offset)[order])

    # flip rows to make rhs nonnegative, then pick slack or artificial basis
    sign = np.where(b < 0, -1.0, 1.0)
    b = b * sign
    slack_sign = sense[row_ids[slack_rows]] * sign[slack_rows]
    init_basis = np.full(len(b), -1)
    init_basis[slack_rows[slack_sign == 1]] = n_struct + np.flatnonzero(slack_sign == 1)
    art_rows = np.flatnonzero(init_basis < 0)
    init_basis[art_rows] = n_struct + n_slack + np.arange(len(art_rows))

    # scatter the compiled nonzeros straight into the standard columns
    A = np.zeros((len(b), n_struct + n_slack + len(art_rows)))
    coef = a * sign[r]
    A[r, k] = coef * col_sign[k]
    split = struct_kind[k] == COL_SPLIT_POS
    A[r[split], k[split] + 1] = -coef[split]
    A[slack_rows, n_struct + np.arange(n_slack)] = slack_sign
    A[art_rows, init_basis[art_rows]] = 1.0

    col_kind = np.concatenate([struct_kind, np.full(n_slack, COL_SLACK),
                               np.full(len(art_rows), COL_ART)])
    col_ref = np.concatenate([struct_ref, row_ids[slack_rows], row_ids[art_rows]])
    c = np.zeros(A.shape[1])
    c[:n_struct] = col_sign * cm.c[struct_ref]
    ub = np.full(A.shape[1], math.inf)
    shift = np.flatnonzero(struct_kind == COL_SHIFT)
    ub[shift] = hi[struct_ref[shift]] - lo[struct_ref[shift]]
    return StandardForm(A=A, b=b, c=c, ub=ub, col_kind=col_kind, col_ref=col_ref,
                        art_mask=col_kind == COL_ART, init_basis=init_basis,
                        fixed=fixed, red_lo=lo, red_hi=hi)


def _pick_update(Nt, trow):
    """The form of the rank-1 update for this pivot: :func:`_sparse_update`
    when ``N`` has at least ``SPARSE_CELLS`` cells and under ``SPARSE_ROW``
    of ``trow`` is nonzero, else :func:`_blocked_update` when ``N`` has
    more than ``BLOCK_CELLS`` cells, else :func:`_dense_update`.  Without
    the sparse form's cell gate the n=4 LPs of the oracle workload ran 8%
    slower, as the extra numpy calls cost more than the cells they skip.
    The block gate also keeps a tableau without rows from the block
    arithmetic."""
    if (Nt.size >= SPARSE_CELLS
            and np.count_nonzero(trow) < SPARSE_ROW * len(trow)):
        return _sparse_update
    return _blocked_update if Nt.size > BLOCK_CELLS else _dense_update


# Each form works on ``Nt``, the C-contiguous transpose of the column-major
# N, and forms the products as einsum(trow, colq): IEEE multiplication
# commutes, so each has the bits of colq[i] * trow[j].  einsum rounds each
# product once, as np.outer does, at about half the cost, but writes a -0
# product as +0.  No pivot decision reads the sign of a zero (tests are
# tolerances, abs or argmax; divisions are masked or checked against
# ZERO_PIVOT; argmax and count_nonzero treat -0 as +0), and x comes from
# _refine_basics on sf.A, not N.
def _dense_update(Nt, d, cols, colq, trow, dq):
    """``N -= colq trow`` in one call, through a temporary the size of N.
    At 420 x 450 that took 231 us (one BLAS thread, 2.1 GHz Xeon,
    scripts/update_crossover.py)."""
    Nt -= np.einsum("i,j->ij", trow, colq)
    d[cols] -= dq * trow


def _blocked_update(Nt, d, cols, colq, trow, dq):
    """:func:`_dense_update` in slices of whole columns of ``N``, at most
    ``BLOCK_CELLS`` cells each, through one buffer: the same products and
    subtractions, but the working set stays in cache.  Against one call
    (as above): 420 x 450 194-209/231 us, where the tableau and its
    temporary overflow a 2 MB L2 cache, but 150 x 420 65-68/57-63 us,
    where they fit.  Timing the 76 LPs of 8 ``regret_n6`` items LP by LP,
    a block and gate of 2**15 cells beat 2**14 and matched 2**16."""
    rows = max(1, BLOCK_CELLS // Nt.shape[1])
    buf = np.empty((rows, Nt.shape[1]))
    for j in range(0, len(Nt), rows):
        blk = Nt[j:j + rows]
        prod = buf[:len(blk)]
        np.einsum("i,j->ij", trow[j:j + rows], colq, out=prod)
        np.subtract(blk, prod, out=blk)
    d[cols] -= dq * trow


def _sparse_update(Nt, d, cols, colq, trow, dq):
    """:func:`_dense_update` on the columns with a nonzero ``trow`` entry.
    The dense update gives the others N - colq * (+-0), their own value up
    to the sign of a zero (colq is finite), and every other column gets
    the same rounded products and subtraction.  The columns it gathers and
    writes back are rows of ``Nt``, so contiguous.  Against the dense form
    (as above), at 5% row density: 66 x 129 9.7/14.1 us, 150 x 168
    12.1/27.6 us, 420 x 450 28/209 us (blocked); at 420 x 450 and 25%
    80/202 us, at 50% 193/194 us."""
    nz = np.flatnonzero(trow)
    tnz = trow[nz]
    sub = Nt.take(nz, axis=0)
    sub -= np.einsum("i,j->ij", tnz, colq)
    Nt[nz] = sub
    d[cols[nz]] -= dq * tnz


def _iterate(N, cols, slot, xB, basis, status, ub, d, maxit, start_iter,
             allow_unbounded):
    """Run simplex pivots until optimal/unbounded; returns (outcome, iters).

    ``N`` holds the tableau columns of the nonbasic variables: column
    ``cols[s]`` is ``N[:, s]`` and ``slot`` maps a column back to its ``s``
    (-1 while basic).  Basic columns are unit vectors, which a pivot changes
    by exact zeros only, so they are not stored; the leaving variable takes
    the entering one's slot.  In phase 2, ``N`` also lacks the columns of
    the artificials that were nonbasic when it began.  ``d`` stays full
    length; the entries of those dropped columns go stale, and only ever
    meet a weight of 0.

    Pricing is one product ``d * w``: the weight ``w`` is -1 at a lower
    bound, +1 at an upper bound and 0 for a basic column or one with
    ``ub <= 0``, so a column is eligible exactly when its score exceeds
    ``OPT_TOL``, and the score of an eligible column has the bits of
    ``-d`` or ``d``.  ``w`` and the basic upper bounds ``ub[basis]`` (with
    their finite mask) are built here, because phase 2 caps the
    artificials, and then change only at a flip or a pivot.

    ``N`` is column-major as :func:`solve_lp` loads it, so a column is
    contiguous, and the update forms take ``Nt = N.T``, its C-contiguous
    transpose (:func:`_pick_update`).  Another layout gives the same
    values, only more slowly.

    The ratio test makes the fewest numpy calls that give the same
    values: ``score`` and the clipped ``xB`` go into buffers made once,
    and the upper-bound pass tests ``col < -tol`` for ``-col > tol`` when
    the column enters from its lower bound, so ``-col`` is formed only to
    divide by it.
    """
    m = len(basis)
    ncols = len(d)
    if not ncols:
        return "optimal", start_iter
    Nt = N.T
    it = start_iter
    stall = 0
    bland = False
    w = np.where(status == NB_LOWER, -1.0, 1.0)
    w[(status == BASIC) | ~(ub > 0)] = 0.0
    ubB = ub[basis]
    finB = np.isfinite(ubB)
    score = np.empty(ncols)
    xBc = np.empty(m)
    lims = np.empty(m)
    pos = np.empty(m, dtype=bool)
    neg = np.empty(m, dtype=bool)
    while True:
        np.multiply(d, w, out=score)
        q = int(score.argmax())
        if not score[q] > OPT_TOL:
            if math.isnan(score[q]):
                raise SimplexError(
                    f"numerical breakdown: non-finite reduced cost {d[q]} "
                    f"(column {q})")
            return "optimal", it
        if it - start_iter >= maxit:
            raise SimplexError(
                f"numerical breakdown: no progress within {maxit} pivots")
        if bland:
            q = int((score > OPT_TOL).argmax())
        s = slot[q]
        lower = status[q] == NB_LOWER
        sigma = 1.0 if lower else -1.0
        col = N[:, s]
        scol = col if lower else -col   # sigma * col

        # The ratio test treats an entry above PIVOT_TOL as a pivot.  If
        # the row it picks has an entry below 1e-6 that is also below
        # REL_PIVOT times the column's largest, the test runs again with
        # that relative threshold: an absolute 1e-9 let a noise entry of
        # 1.6e-9 in a column reaching 1.3e3 make the basis singular.
        tol = PIVOT_TOL
        while True:
            lims.fill(math.inf)
            np.greater(scol, tol, out=pos)
            np.maximum(xB, 0.0, out=xBc)
            np.divide(xBc, scol, out=lims, where=pos)
            # rows where -scol > tol, that is col < -tol when lower
            if lower:
                np.less(col, -tol, out=neg)
            else:
                np.greater(col, tol, out=neg)
            neg &= finB
            if np.logical_or.reduce(neg):
                # pos and neg are disjoint, so these rows still hold
                # inf; the divisor is -scol
                np.divide(np.maximum(ubB - xB, 0.0),
                          -col if lower else col, out=lims, where=neg)
            # inf when there is no row (m == 0)
            step_basic = float(np.minimum.reduce(lims, initial=math.inf))
            step = min(step_basic, ub[q])
            if step == math.inf:
                if not allow_unbounded:
                    raise SimplexError("numerical breakdown: phase-1 ray")
                return "unbounded", it
            next_stall = stall + 1 if step <= 1e-12 else 0
            next_bland = next_stall >= m + ncols or (bland and step <= 1e-12)
            flip = step_basic > ub[q] + 1e-12
            if flip:
                break
            achievers = (lims <= step + 1e-9).nonzero()[0]
            if next_bland:
                r = int(achievers[np.argmin(basis[achievers])])
            else:
                # prefer the numerically largest pivot among the blockers
                r = int(achievers[np.abs(scol[achievers]).argmax()])
            small = abs(scol[r])
            if tol > PIVOT_TOL or small >= 1e-6:
                break
            rel = REL_PIVOT * float(np.abs(col).max())
            if small > rel:
                break
            tol = rel

        it += 1
        stall, bland = next_stall, next_bland
        if flip:
            # bound flip, basis unchanged
            xB -= sigma * ub[q] * col
            status[q] = NB_UPPER if lower else NB_LOWER
            w[q] = -w[q]
            continue

        p = basis[r]
        enter_val = (0.0 if lower else ub[q]) + sigma * step
        if enter_val < 0.0:
            enter_val = 0.0
        xB -= sigma * step * col
        leaves_lower = scol[r] > 0
        status[p] = NB_LOWER if leaves_lower else NB_UPPER
        w[p] = 0.0 if not ub[p] > 0 else -1.0 if leaves_lower else 1.0
        w[q] = 0.0
        piv = N[r, s]
        if abs(piv) <= ZERO_PIVOT:
            raise SimplexError(f"numerical breakdown: pivot {piv:.2e}")
        trow = N[r] / piv
        colq = col.copy()
        dq = d[q]
        _pick_update(Nt, trow)(Nt, d, cols, colq, trow, dq)
        N[r] = trow
        # column p was the unit vector e_r: the full update gives it these
        tp = 1.0 / piv
        N[:, s] = 0.0 - colq * tp
        N[r, s] = tp
        d[p] -= dq * tp
        d[q] = 0.0
        cols[s], slot[p], slot[q] = p, s, -1
        xB[r] = enter_val
        basis[r] = q
        status[q] = BASIC
        ubB[r] = ub[q]
        finB[r] = math.isfinite(ub[q])


def _refine_basics(A, b, basis, status, ub):
    """Recompute basic values from a fresh factorization of the basis.

    Tableau updates accumulate roundoff over many pivots; one direct solve
    restores the basic values to machine accuracy for the final answer.
    An empty basis gives the empty 0x0 system, which solves to no values.
    """
    vals = np.where(status == NB_UPPER, np.where(np.isfinite(ub), ub, 0.0), 0.0)
    vals[basis] = 0.0
    rhs = b - A @ vals
    try:
        return np.linalg.solve(A[:, basis], rhs)
    except np.linalg.LinAlgError:
        raise SimplexError(f"numerical breakdown: singular basis "
                           f"({basis.size} columns)") from None


def _values_from_state(sf: StandardForm, basis, status, xB) -> np.ndarray:
    vals = np.where(status == NB_UPPER, np.where(np.isfinite(sf.ub), sf.ub, 0.0), 0.0)
    vals[basis] = xB
    x = sf.fixed.copy()
    shift, pos, mirror = (np.flatnonzero(sf.col_kind == kind)
                          for kind in (COL_SHIFT, COL_SPLIT_POS, COL_MIRROR))
    ref = sf.col_ref
    x[ref[shift]] = sf.red_lo[ref[shift]] + vals[shift]
    x[ref[pos]] = vals[pos] - vals[pos + 1]
    x[ref[mirror]] = sf.red_hi[ref[mirror]] - vals[mirror]
    return x


def solve_lp(model: LinearModel, extra_bounds: dict | None = None) -> LPResult:
    """Solve the LP relaxation of ``model``: binaries range over [0, 1].

    ``extra_bounds`` maps variable index to an (lb, ub) pair intersected
    with the model bounds; branch-and-bound uses it to fix binaries.
    """
    sf = _standardize(model, extra_bounds)
    ctx = dict(extra_bounds=dict(extra_bounds) if extra_bounds else None)
    if isinstance(sf, str):
        return LPResult("infeasible", None, None, np.zeros(0, int),
                        np.zeros(0, int), 0, **ctx)

    m, ncols = sf.A.shape
    xB = sf.b.copy()
    basis = sf.init_basis.copy()
    status = np.full(ncols, NB_LOWER, dtype=int)
    status[basis] = BASIC
    cols = np.flatnonzero(status != BASIC)
    slot = np.full(ncols, -1)
    slot[cols] = np.arange(len(cols))
    N = sf.A.T[cols].T   # column-major: one copy, as a gather of rows
    ub = sf.ub.copy()
    maxit = 50 * (m + ncols)
    iters = 0

    if sf.art_mask.any():
        c1 = sf.art_mask.astype(float)
        d = c1 - c1[basis] @ sf.A   # sf.A is the tableau before any pivot
        _, iters = _iterate(N, cols, slot, xB, basis, status, ub, d, maxit,
                            iters, allow_unbounded=False)
        xB = _refine_basics(sf.A, sf.b, basis, status, ub)
        infeas = float(c1[basis] @ np.maximum(xB, 0.0))
        if infeas > FEAS_TOL:
            return LPResult("infeasible", None, None, basis, status, iters, **ctx)
        # pin artificials at zero; any still basic stay caged degenerate
        ub[sf.art_mask] = 0.0
    # the one phase-2 entry prices on a full-width tableau: BLAS may round a
    # column's sum differently in a narrower array, and that could flip
    # pricing ties.  Without artificials T is sf.A, bit for bit: its basic
    # columns are the slack unit vectors and N the other columns of sf.A.
    T = np.zeros(sf.A.shape)
    T[:, cols] = N
    T[np.arange(m), basis] = 1.0
    d = sf.c - sf.c[basis] @ T
    del T
    # then drop the nonbasic artificials: their weight is 0 from here on, so
    # they never enter, and their d entries, left stale, only ever meet that
    # weight
    keep = ~sf.art_mask[cols]
    N, cols = N.T[keep].T, cols[keep]   # column-major
    slot.fill(-1)
    slot[cols] = np.arange(len(cols))
    outcome, iters = _iterate(N, cols, slot, xB, basis, status, ub, d, maxit,
                              iters, allow_unbounded=True)
    if outcome == "unbounded":
        return LPResult("unbounded", None, None, basis, status, iters, **ctx)

    xB = _refine_basics(sf.A, sf.b, basis, status, ub)
    x = _values_from_state(sf, basis, status, xB)
    objective = float(model.compiled().c @ x)
    _self_check(model, x)
    return LPResult("optimal", x, objective, basis, status, iters, **ctx)


def _self_check(model: LinearModel, x: np.ndarray) -> None:
    cm = model.compiled()
    act = np.bincount(cm.rows, weights=cm.vals * x[cm.cols],
                      minlength=len(cm.rhs))
    err = _violation(act, cm.rhs, cm.sense)
    if (err > 10 * FEAS_TOL).any():
        i = int(np.argmax(err > 10 * FEAS_TOL))
        raise SimplexError(f"numerical breakdown: residual {err[i]:.2e} on "
                           f"{model.constraints[i].label}")


@dataclass
class CertificateReport:
    passed: bool
    failures: list[str] = field(default_factory=list)


def verify_certificate(model: LinearModel, result: LPResult) -> CertificateReport:
    """Recheck an optimal LP result without trusting solver internals.

    Rows are rechecked term by term by :func:`~hubloc.model.row_violations`,
    the row check of :func:`~hubloc.model.check_feasibility`, and bounds
    against :func:`~hubloc.model.effective_bounds` under the result's
    fixings; reduced costs are recomputed from the reported basis by
    rebuilding the standard form and solving ``B^T y = c_B`` afresh.
    Tolerances: 1e-7 (rows), ``FEAS_TOL`` (objective), ``BOUND_TOL``,
    ``OPT_TOL`` (duals).
    """
    if result.status != "optimal":
        raise ValueError("certificate replay requires an optimal result")
    x = result.x
    failures = [f"row {v.label}: violated by {v.amount:.3e}"
                for v in row_violations(model, x)]
    lo, hi = effective_bounds(model, result.extra_bounds)
    err = np.maximum(lo - x, x - hi)
    for j in np.flatnonzero(err > BOUND_TOL):
        failures.append(f"bound {model.variables[j].name}: violated by {err[j]:.3e}")
    obj = float(model.objective_vector() @ x)
    gap = abs(obj - result.objective)
    if gap > FEAS_TOL * max(1.0, abs(obj)):
        failures.append(f"objective mismatch {gap:.3e}")

    sf = _standardize(model, result.extra_bounds)
    basis = result.basis
    if not isinstance(sf, str):
        B = sf.A[:, basis]
        try:
            y = np.linalg.solve(B.T, sf.c[basis])
        except np.linalg.LinAlgError:
            return CertificateReport(False, failures + ["singular basis matrix"])
        d = sf.c - sf.A.T @ y
        vs = result.vstatus
        lower = ~sf.art_mask & (vs == NB_LOWER) & (d < -OPT_TOL)
        upper = ~sf.art_mask & (vs == NB_UPPER) & (d > OPT_TOL)
        for k in np.flatnonzero(lower | upper):
            side = "lower" if lower[k] else "upper"
            failures.append(f"reduced cost {d[k]:.3e} at {side} bound (column {k})")
    return CertificateReport(not failures, failures)
