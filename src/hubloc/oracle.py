"""The enumeration oracle, the exact route that certifies branch and bound.

:func:`~hubloc.milp.solve_by_enumeration` walks all binary assignments and
solves the residual LP for each; assignments that already violate a
pure-binary row are rejected without an LP.  This is the oracle the test
suite uses to certify the branch-and-bound search.  It shares no search
logic with it (no bounds, no pruning, no incumbent), only the cold
``solve_lp`` and the scheduler.  Each chunk of the walk is one job for
that scheduler, and its answer is the LPResult of each assignment in
order, up to the error, if any, that stopped it; :func:`_replay` reads
them in that order, keeps the walk's only running best and certifies each
one, so the result is that of the serial walk.

It imports nothing from :mod:`hubloc.milp`, the search it checks.  Both
routes share its :class:`Solution` and its certificate gate
:func:`_certify`, which reads ``simplex.verify_certificate`` at each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .model import EQ, LE, LinearModel
from .simplex import LPResult, SimplexError

# solve_by_enumeration refuses models with more binaries than this
ENUMERATION_CAP = 24


class EnumerationCapError(ValueError):
    """Raised when a model has more binaries than the enumeration cap."""


@dataclass
class Solution:
    """Optimal (or infeasible) outcome of an exact solve.

    ``values`` keeps the raw pre-rounding variable values, by name.
    ``incumbents`` records every accepted incumbent as (objective, values)
    pairs, in discovery order.
    """

    status: str
    values: dict[str, float]
    objective: float | None
    nodes_explored: int
    incumbents: list[tuple[float, dict[str, float]]] = field(default_factory=list)
    scenario_costs: list[float] | None = None
    regrets: list[float] | None = None
    baselines: list[float] | None = None


def _values(model: LinearModel, x: np.ndarray) -> dict[str, float]:
    return {var.name: float(x[j]) for j, var in enumerate(model.variables)}


def _infeasible(nodes: int) -> Solution:
    return Solution("infeasible", {}, None, nodes, [])


def _certify(model: LinearModel, res: LPResult, failed: str) -> None:
    """Raise :class:`SimplexError` with ``failed`` and the first three
    failures if ``res`` fails its certificate: its point and row duals,
    checked against the model's own rows and bounds by weak duality."""
    cert = simplex.verify_certificate(model, res)
    if not cert.passed:
        raise SimplexError(f"{failed}: " + "; ".join(cert.failures[:3]))


def _binary_screen(model: LinearModel, bins):
    """Rows whose variables are all binary, as dense arrays over ``bins``."""
    pos = {j: t for t, j in enumerate(bins)}
    rows, rels, rhs = [], [], []
    for con in model.constraints:
        if all(j in pos for j, _ in con.terms):
            row = np.zeros(len(bins))
            for j, c in con.terms:
                row[pos[j]] += c
            rows.append(row)
            rels.append(con.relation)
            rhs.append(con.rhs)
    return np.array(rows).reshape(len(rows), len(bins)), rels, np.array(rhs)


def _replay(model: LinearModel, results, error, best: LPResult | None):
    """Visit a chunk's results as the serial walk does: certify each new
    running best, an optimum better than every one before it, then raise
    the error, if any, that stopped the chunk.  Returns the running best,
    the walk's only one."""
    for res in results:
        if res.status == "optimal" and (best is None
                                        or res.objective < best.objective):
            _certify(model, res, "enumeration incumbent failed certificate")
            best = res
    if error is not None:
        raise error
    return best


def _enumerate(model: LinearModel, bins):
    """The walk of :func:`solve_by_enumeration`, as a search for
    :func:`_run_searches`: it yields each chunk's kept assignments as one
    job, replays its answer in lexicographic order and returns the
    Solution."""
    nb = len(bins)
    rows, rels, rhs = _binary_screen(model, bins)
    shifts = np.array([nb - 1 - t for t in range(nb)], dtype=np.int64)

    best: LPResult | None = None
    lps = 0
    chunk = 1 << min(nb, 16)
    total = 1 << nb
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(float)
        keep = np.ones(len(codes), dtype=bool)
        acts = bits @ rows.T
        for r, rel in enumerate(rels):
            if rel == EQ:
                keep &= np.abs(acts[:, r] - rhs[r]) <= 1e-9
            elif rel == LE:
                keep &= acts[:, r] <= rhs[r] + 1e-9
            else:
                keep &= acts[:, r] >= rhs[r] - 1e-9
        assignments = bits[keep]
        results, error = yield bins, assignments
        best = _replay(model, results, error, best)
        lps += len(assignments)

    if best is None:
        return _infeasible(lps)
    return Solution("optimal", _values(model, best.x), float(best.objective),
                    lps, [])
