"""Reference optima from HiGHS (``scipy.optimize.milp``).

The converter reads a ``LinearModel`` row by row and hands it to HiGHS,
so the reference shares the formulation with hubloc but none of its LP or
branch-and-bound code.  scipy is imported lazily: only the correctness
checks need it, and they run outside the timed region.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from hubloc.model import BINARY, EQ, GE, LE

REL_TOL = 1e-6

# HiGHS stops at a 1e-4 relative (1e-6 absolute) gap by default; the checks
# compare at REL_TOL, so the reference is solved to a much tighter gap.
# scipy forwards ``mip_abs_gap`` to HiGHS verbatim, with a warning.
_OPTIONS = {"mip_rel_gap": 1e-10, "mip_abs_gap": 1e-10}


def highs_solve(model):
    """Optimal objective of ``model`` from HiGHS, or None if infeasible."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    n = model.num_variables
    c = model.objective_vector()
    rows, cols, vals = [], [], []
    lo = np.empty(len(model.constraints))
    hi = np.empty(len(model.constraints))
    for r, con in enumerate(model.constraints):
        for j, a in con.terms:
            rows.append(r)
            cols.append(j)
            vals.append(a)
        lo[r] = con.rhs if con.relation in (EQ, GE) else -math.inf
        hi[r] = con.rhs if con.relation in (EQ, LE) else math.inf
    A = coo_array((vals, (rows, cols)), shape=(len(model.constraints), n))
    integrality = np.array([v.kind == BINARY for v in model.variables], int)
    bounds = Bounds([v.lb for v in model.variables],
                    [v.ub for v in model.variables])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options",
                                RuntimeWarning)
        res = milp(c, constraints=LinearConstraint(A.tocsr(), lo, hi),
                   integrality=integrality, bounds=bounds, options=_OPTIONS)
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not finish: {res.message}")
    return float(res.fun)


def agree(a, b):
    """Both None (infeasible), or equal to REL_TOL relative (floor 1)."""
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))
