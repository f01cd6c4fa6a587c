"""The enumeration oracle, the exact route that certifies branch and bound.

:func:`~hubloc.milp.solve_by_enumeration` walks all binary assignments and
solves the residual LP for each; assignments that already violate a
pure-binary row are rejected without an LP.  This is the oracle the test
suite uses to certify the branch-and-bound search.  It shares no search
logic with it (no bounds, no pruning, no incumbent), only the cold
``solve_lp`` and the scheduler.  Each chunk's assignments are dealt into
``SHARES`` interleaved shares, which this process solves alone or, where
the helper runs, both processes take from one queue, each as it gets free;
the results are then replayed in lexicographic order, and every running
best is certified here, so the result is that of the serial walk.

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

# Jobs per enumeration chunk.  Where the helper runs, both processes take
# them from one FIFO, so the one that is free first takes the next, and
# the parent does not wait for a fixed half.  Over the 48 enumerations of
# 12 n=4 oracle items (one BLAS thread, 2-vCPU Xeon at 2.1 GHz) the parent
# waited 0.33-0.50 s for replies inside solve_by_enumeration with 2 jobs
# (five runs) and 0.16-0.23 s with 16 (five runs); 4 jobs read
# 0.60-0.74 s, 8 read 0.10-0.28 s and 32 read 0.12-0.18 s (three runs
# each).  8 to 32 read alike, within noise; 16 was picked inside that
# band.
SHARES = 16
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


def _replay(model: LinearModel, answers, count: int, best: LPResult | None):
    """Visit positions ``0..count-1`` of a chunk as the serial walk does,
    position ``p`` being entry ``p // k`` of share ``p % k`` of the ``k``
    shares: certify each new running best, and raise a share's failure at
    its position.  Returns the running best."""
    k = len(answers)
    for pos in range(count):
        kept, failure = answers[pos % k]
        if pos // k == len(kept):   # the share stopped at its failure
            raise failure[1]
        res = kept[pos // k]
        if isinstance(res, LPResult) and (best is None
                                          or res.objective < best.objective):
            _certify(model, res, "enumeration incumbent failed certificate")
            best = res
    return best


def _enumerate(model: LinearModel, bins):
    """The walk of :func:`solve_by_enumeration`, as a search for
    :func:`_run_searches`: it yields each chunk's kept assignments as
    ``k = min(SHARES, len(assignments))`` interleaved jobs (at least
    one), ``assignments[i::k]``, replays their answers in lexicographic
    order and returns the Solution."""
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
        k = max(1, min(SHARES, len(assignments)))
        answers = yield [(bins, assignments[i::k]) for i in range(k)]
        best = _replay(model, answers, len(assignments), best)
        lps += len(assignments)

    if best is None:
        return _infeasible(lps)
    return Solution("optimal", _values(model, best.x), float(best.objective),
                    lps, [])
