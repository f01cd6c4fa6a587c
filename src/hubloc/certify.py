"""The LP certificate check and its tolerances, which the solver reads.
It imports no solver code, so no fault of the solver can hide from it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import GE, LE, LinearModel, effective_bounds, row_violations

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
BOUND_TOL = 1e-9


@dataclass
class CertificateReport:
    passed: bool
    failures: list[str] = field(default_factory=list)


def verify_certificate(model: LinearModel, result) -> CertificateReport:
    """Recheck an optimal LP result from the model alone, by weak duality.

    Rows are rechecked term by term by :func:`~hubloc.model.row_violations`,
    the row check of :func:`~hubloc.model.check_feasibility`, bounds
    against :func:`~hubloc.model.effective_bounds` under the result's
    fixings, and the objective against ``x``.  Then ``result.duals`` must
    hold one ``y_i`` per row, of its row's sign (``<= 0`` on ``<=``,
    ``>= 0`` on ``>=``, to within ``OPT_TOL``).  With ``d = c - A^T y``
    summed term by term from ``model.constraints``, every ``x`` in the
    bounds that meets the rows has ``c x >= y^T b + sum_j min(d_j lo_j,
    d_j hi_j)``, and that bound must reach the objective to within
    ``FEAS_TOL`` relative.  A ``|d_j| <= OPT_TOL`` counts as 0 toward an
    infinite bound; a larger one there fails.  Nothing here reads the
    solver's standard form or basis.  Tolerances: 1e-7 (rows),
    ``BOUND_TOL``, ``FEAS_TOL`` (objective and dual bound), ``OPT_TOL``.
    """
    if result.status != "optimal":
        raise ValueError("a certificate check requires an optimal result")
    x = result.x
    failures = [f"row {v.label}: violated by {v.amount:.3e}"
                for v in row_violations(model, x)]
    lo, hi = effective_bounds(model, result.extra_bounds)
    err = np.maximum(lo - x, x - hi)
    for j in np.flatnonzero(err > BOUND_TOL):
        failures.append(f"bound {model.variables[j].name}: violated by {err[j]:.3e}")
    c = model.objective_vector()
    obj = float(c @ x)
    gap = abs(obj - result.objective)
    if gap > FEAS_TOL * max(1.0, abs(obj)):
        failures.append(f"objective mismatch {gap:.3e}")

    rows = model.constraints
    if result.duals is None or len(result.duals) != len(rows):
        count = "no" if result.duals is None else len(result.duals)
        failures.append(f"{count} duals for {len(rows)} rows")
        return CertificateReport(False, failures)
    d = c.tolist()
    bound = 0.0
    for con, y in zip(rows, result.duals.tolist()):
        if (y > OPT_TOL and con.relation == LE
                or y < -OPT_TOL and con.relation == GE):
            failures.append(f"row {con.label}: dual {y:.3e} has the wrong sign")
        if y != 0.0:
            bound += y * con.rhs
            for j, a in con.terms:
                d[j] -= y * a
    d = np.array(d)
    at = np.where(d > 0.0, lo, hi)   # where d_j x_j is least in the bounds
    at[np.isinf(at) & (np.abs(d) <= OPT_TOL)] = 0.0
    terms = d * at
    for j in np.flatnonzero(np.isinf(terms)):
        failures.append(f"reduced cost {d[j]:.3e} of {model.variables[j].name} "
                        f"toward an infinite bound")
    short = result.objective - (bound + float(terms.sum()))
    if not short <= FEAS_TOL * max(1.0, abs(result.objective)):
        failures.append(f"dual bound short of the objective by {short:.3e}")
    return CertificateReport(not failures, failures)
