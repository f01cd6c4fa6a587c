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
single-variable row, the only step that changes a bound.  This module is
the one owner of that standard form.  Each phase ends with one solve of
its final basis (:func:`_refine_basics`), and an optimal result carries
one dual per model row, found on that basis matrix by a dual postsolve
(:func:`_row_duals`); the checker of :mod:`hubloc.certify` proves it on
the model's own rows and bounds by weak duality, so a fault in the
presolve cannot hide from it.  A basis solve that is singular or gives a
NaN or infinite entry raises :class:`SimplexError`, never a NaN point.

Tolerances: feasibility and optimality 1e-7 (:mod:`hubloc.certify`'s),
zero pivot 1e-10.  The ratio test takes entries above 1e-9 as pivots;
when the row it picks has an entry below 1e-6 and below 1e-9 times the
entering column's largest |entry|, it runs again with that threshold.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import threading
from dataclasses import dataclass

import numpy as np

# a seam: verify_certificate is bound here for old imports and tracers
from .certify import BOUND_TOL, FEAS_TOL, OPT_TOL, verify_certificate
from .model import LinearModel

PIVOT_TOL = 1e-9
REL_PIVOT = 1e-9   # times the entering column's largest |entry|
ZERO_PIVOT = 1e-10
# _iterate's rank-1 update touches only the columns with a nonzero pivot-row
# entry when N has at least SPARSE_CELLS cells and under SPARSE_ROW of the
# row is nonzero; otherwise, when N has more than BLOCK_CELLS cells, it
# forms and subtracts the outer product in slices of at most BLOCK_CELLS
# cells (_pick_update)
SPARSE_CELLS = 2 ** 14
SPARSE_ROW = 0.25
BLOCK_CELLS = 2 ** 15

NB_LOWER, NB_UPPER, BASIC = 0, 1, 2

COL_SHIFT, COL_SPLIT_POS, COL_SPLIT_NEG, COL_MIRROR = range(4)


def _find_openblas():
    with contextlib.suppress(OSError), open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.lower() and ".so" in line})
        for path in libs:
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                for prefix in ("scipy_openblas", "openblas"):
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                    if get is not None and put is not None:
                        get.argtypes, get.restype = [], ctypes.c_int
                        put.argtypes, put.restype = [ctypes.c_int], None
                        return get, put


OPENBLAS = _find_openblas()   # (get, set) of numpy's OpenBLAS thread count
_PIN = threading.Lock()
_saved = []   # the thread count found by each open one_blas_thread block


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with :data:`OPENBLAS`, if any, at one thread: with two,
    the LAPACK solve in :func:`_refine_basics` rounded otherwise, and
    :func:`_row_duals` solves in the same block.  Blocks nest, in any
    threads; the last to leave restores the first's count."""
    if OPENBLAS is None:
        yield
        return
    get, put = OPENBLAS
    with _PIN:
        _saved.append(get())
        put(1)
    try:
        yield
    finally:
        with _PIN:
            count = _saved.pop()
            if not _saved:
                put(count)


class SimplexError(RuntimeError):
    """Numerical breakdown: no progress in time, a tiny pivot or a singular basis."""


@dataclass
class LPResult:
    """Outcome of one LP solve.

    ``x`` holds values for the original model variables and ``duals`` one
    dual ``y_i`` per model row, in row order (both None unless optimal).
    The duals are those of ``min c x`` over the rows and the effective
    bounds, with ``c = A^T y + d``: ``y_i <= 0`` on a ``<=`` row, ``>= 0``
    on a ``>=`` row, free on an ``=`` row, and 0 on a row that presolve
    retired as empty.  :func:`~hubloc.certify.verify_certificate` reads
    them, never the basis.
    ``basis`` and ``vstatus`` describe the final standard-form basis; the
    LP digest of ``scripts/identity.py`` and the tableau tests compare
    them, so they pin the pivot path.
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    basis: np.ndarray
    vstatus: np.ndarray
    iterations: int
    extra_bounds: dict | None = None
    duals: np.ndarray | None = None


@dataclass
class StandardForm:
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    ub: np.ndarray
    col_kind: np.ndarray   # of each structural column, as is col_ref
    col_ref: np.ndarray
    art_mask: np.ndarray
    init_basis: np.ndarray
    fixed: np.ndarray
    red_lo: np.ndarray
    red_hi: np.ndarray
    row_ids: np.ndarray    # the model row of each standard row
    row_sign: np.ndarray   # -1 where that row was negated
    singletons: list       # (r, j, a, v) per round: row r became a bound v on x_j


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
    singletons = []

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
        singletons.append((r, j, a, v))
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

    c = np.zeros(A.shape[1])
    c[:n_struct] = col_sign * cm.c[struct_ref]
    ub = np.full(A.shape[1], math.inf)
    shift = np.flatnonzero(struct_kind == COL_SHIFT)
    ub[shift] = hi[struct_ref[shift]] - lo[struct_ref[shift]]
    return StandardForm(A=A, b=b, c=c, ub=ub, col_kind=struct_kind,
                        col_ref=struct_ref, init_basis=init_basis,
                        art_mask=np.arange(A.shape[1]) >= n_struct + n_slack,
                        fixed=fixed, red_lo=lo, red_hi=hi, row_ids=row_ids,
                        row_sign=sign, singletons=singletons)


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
    """The standard-form values and the basis matrix ``B``, which the dual
    postsolve reuses.  A nonbasic column sits at its finite upper bound if
    there, else at 0; one direct solve of ``B`` restores the basic values,
    which tableau updates round over many pivots, to machine accuracy.  An
    empty basis gives the empty 0x0 system, which solves to no values."""
    B = A[:, basis]
    vals = np.where(status == NB_UPPER, np.where(np.isfinite(ub), ub, 0.0), 0.0)
    vals[basis] = 0.0
    vals[basis] = _basis_solve(B, b - A @ vals)
    return vals, B


def _basis_solve(B, rhs):
    """``B z = rhs`` for a square basis matrix ``B`` or its transpose; a
    singular one, or an answer with a NaN or infinite entry, raises
    :class:`SimplexError`."""
    try:
        z = np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError:
        raise SimplexError(f"numerical breakdown: singular basis "
                           f"({len(B)} columns)") from None
    if not np.isfinite(z).all():
        raise SimplexError(f"numerical breakdown: non-finite basis solve "
                           f"({len(B)} columns)")
    return z


def _values_from_state(sf: StandardForm, vals) -> np.ndarray:
    """The model's values from the standard-form value vector ``vals``."""
    x = sf.fixed.copy()
    shift, pos, mirror = (np.flatnonzero(sf.col_kind == kind)
                          for kind in (COL_SHIFT, COL_SPLIT_POS, COL_MIRROR))
    ref = sf.col_ref
    x[ref[shift]] = sf.red_lo[ref[shift]] + vals[shift]
    x[ref[pos]] = vals[pos] - vals[pos + 1]
    x[ref[mirror]] = sf.red_hi[ref[mirror]] - vals[mirror]
    return x


def _row_duals(sf: StandardForm, cm, B, basis, x) -> np.ndarray:
    """The dual postsolve: one dual per model row at the final basis ``B``.

    ``B^T y = c_B`` gives the duals of the standard rows, which map back
    through their row ids and sign flips; a row retired as empty gets 0.
    The singleton rows that became bounds are undone in reverse order: one
    whose variable sits at its bound, and whose relation admits the sign
    of ``d_j / a_rj``, takes that dual, which zeroes ``d_j``; the others
    get 0.  Within a round the first such row of a variable, in that
    order, takes its ``d_j``.
    """
    y = np.zeros(len(cm.rhs))
    y[sf.row_ids] = sf.row_sign * _basis_solve(B.T, sf.c[basis])
    if not sf.singletons:
        return y
    n = len(cm.c)
    d = cm.c - np.bincount(cm.cols, weights=cm.vals * y[cm.rows], minlength=n)
    for r, j, a, v in reversed(sf.singletons):
        r, j, a, v = r[::-1], j[::-1], a[::-1], v[::-1]
        yr = d[j] / a
        fits = ((np.abs(x[j] - v) <= BOUND_TOL * np.maximum(1.0, np.abs(v)))
                & (cm.sense[r] * yr <= 0.0))
        take = np.flatnonzero(fits)[np.unique(j[fits], return_index=True)[1]]
        if take.size:
            step = np.zeros(len(y))
            step[r[take]] = yr[take]
            y += step
            d -= np.bincount(cm.cols, weights=cm.vals * step[cm.rows],
                             minlength=n)
    return y


def solve_lp(model: LinearModel, extra_bounds: dict | None = None) -> LPResult:
    """Solve the LP relaxation of ``model``: binaries range over [0, 1].

    ``extra_bounds`` maps variable index to an (lb, ub) pair intersected
    with the model bounds; branch-and-bound uses it to fix binaries.
    """
    with one_blas_thread():
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
            xB = _refine_basics(sf.A, sf.b, basis, status, ub)[0][basis]
            infeas = float(c1[basis] @ np.maximum(xB, 0.0))
            if infeas > FEAS_TOL:
                return LPResult("infeasible", None, None, basis, status, iters, **ctx)
            # pin artificials at zero; any still basic stay caged degenerate
            ub[sf.art_mask] = 0.0
        # the one phase-2 entry prices on a full-width tableau: BLAS may round
        # a column's sum differently in a narrower array, and that could flip
        # pricing ties.  Without artificials T is sf.A, bit for bit: its basic
        # columns are the slack unit vectors and N the other columns of sf.A.
        T = np.zeros(sf.A.shape)
        T[:, cols] = N
        T[np.arange(m), basis] = 1.0
        d = sf.c - sf.c[basis] @ T
        del T
        # then drop the nonbasic artificials: their weight is 0 from here on,
        # so they never enter, and their d entries, left stale, only ever meet
        # that weight
        keep = ~sf.art_mask[cols]
        N, cols = N.T[keep].T, cols[keep]   # column-major
        slot.fill(-1)
        slot[cols] = np.arange(len(cols))
        outcome, iters = _iterate(N, cols, slot, xB, basis, status, ub, d, maxit,
                                  iters, allow_unbounded=True)
        if outcome == "unbounded":
            return LPResult("unbounded", None, None, basis, status, iters, **ctx)

        vals, B = _refine_basics(sf.A, sf.b, basis, status, ub)
        x = _values_from_state(sf, vals)
        cm = model.compiled()
        act = np.bincount(cm.rows, weights=cm.vals * x[cm.cols],
                          minlength=len(cm.rhs))
        err = _violation(act, cm.rhs, cm.sense)
        if (err > 10 * FEAS_TOL).any():
            i = int(np.argmax(err > 10 * FEAS_TOL))
            raise SimplexError(f"numerical breakdown: residual {err[i]:.2e} "
                               f"on {model.constraints[i].label}")
        return LPResult("optimal", x, float(cm.c @ x), basis, status, iters,
                        duals=_row_duals(sf, cm, B, basis, x), **ctx)
