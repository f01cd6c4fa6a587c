"""Exact mixed-binary optimization.

Two independent routes to the optimum:

* :func:`solve_milp` -- branch and bound on the binary variables with
  best-bound node selection and most-fractional branching, every incumbent
  re-checked through the LP certificate machinery.
* :func:`solve_by_enumeration` -- walks all binary assignments and solves
  the residual LP for each; assignments that already violate a pure-binary
  row are rejected without an LP.  This is the oracle the test suite uses
  to certify the branch-and-bound search.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from .model import BINARY, EQ, LE, LinearModel
from .simplex import LPResult, SimplexError, solve_lp, verify_certificate

INT_TOL = 1e-6


class EnumerationCapError(ValueError):
    """Raised when a model has more binaries than the enumeration cap."""


@dataclass
class Solution:
    """Optimal (or infeasible) outcome of an exact solve.

    ``values`` keeps the raw pre-rounding variable values; the hub sets
    are derived by rounding H/I/T at 0.5.  ``incumbents`` records every
    accepted incumbent as (objective, values) pairs, in discovery order.
    """

    status: str
    values: dict[str, float]
    objective: float | None
    open_hubs: tuple[int, ...]
    collaborative_hubs: tuple[int, ...]
    noncollaborative_hubs: tuple[int, ...]
    nodes_explored: int
    wall_time: float
    incumbents: list[tuple[float, dict[str, float]]] = field(default_factory=list)
    scenario_costs: list[float] | None = None
    regrets: list[float] | None = None
    baselines: list[float] | None = None


def _solution_from_values(model: LinearModel, x: np.ndarray, objective: float,
                          nodes: int, wall: float, incumbents) -> Solution:
    values = {var.name: float(x[j]) for j, var in enumerate(model.variables)}
    sets = {"H": [], "I": [], "T": []}
    for j, var in enumerate(model.variables):
        hub = var.kind == BINARY and var.name[:2] in ("H[", "I[", "T[")
        if hub and x[j] >= 0.5:
            sets[var.name[0]].append(int(var.name[2:-1]))
    hubs, collab, noncollab = (tuple(sorted(sets[h])) for h in "HIT")
    return Solution("optimal", values, float(objective), hubs, collab,
                    noncollab, nodes, wall, incumbents)


def _infeasible(nodes: int, wall: float) -> Solution:
    return Solution("infeasible", {}, None, (), (), (), nodes, wall, [])


def _gap(objective: float) -> float:
    return 1e-9 * max(1.0, abs(objective))


def _fractional_binaries(x: np.ndarray, bins) -> list[tuple[float, int]]:
    out = []
    for j in bins:
        dist = abs(x[j] - round(x[j]))
        if dist > INT_TOL:
            out.append((dist, j))
    return out


def solve_milp(model: LinearModel) -> Solution:
    """Globally optimal solution via branch and bound.

    Node selection is best-bound with depth-first tie breaking; branching
    picks the most fractional binary (ties to the lowest index), so the
    search tree is a pure function of the model.
    """
    t0 = time.perf_counter()
    bins = model.binary_indices()
    nodes = 0
    incumbent: LPResult | None = None
    incumbents: list[tuple[float, dict[str, float]]] = []
    heap: list = []
    seq = 0

    def record(res: LPResult):
        nonlocal incumbent
        cert = verify_certificate(model, res)
        if not cert.passed:
            raise SimplexError("incumbent failed certificate replay: "
                               + "; ".join(cert.failures[:3]))
        if incumbent is None or res.objective < incumbent.objective:
            incumbent = res
            values = {var.name: float(res.x[j])
                      for j, var in enumerate(model.variables)}
            incumbents.append((float(res.objective), values))

    def process(res: LPResult, fixings: dict, depth: int):
        nonlocal seq
        if res.status == "unbounded":
            raise SimplexError("relaxation is unbounded")
        if res.status != "optimal":
            return
        if incumbent is not None and res.objective >= incumbent.objective - _gap(
                incumbent.objective):
            return
        if not _fractional_binaries(res.x, bins):
            record(res)
            return
        heapq.heappush(heap, (res.objective, -depth, -seq, fixings, res))
        seq += 1

    root = solve_lp(model)
    nodes += 1
    process(root, {}, 0)

    while heap:
        bound, negdepth, _, fixings, res = heapq.heappop(heap)
        if incumbent is not None and bound >= incumbent.objective - _gap(
                incumbent.objective):
            break
        frac = _fractional_binaries(res.x, bins)
        _, j = max(frac, key=lambda t: (t[0], -t[1]))
        for val in (0.0, 1.0):
            child = dict(fixings)
            child[j] = (val, val)
            child_res = solve_lp(model, extra_bounds=child)
            nodes += 1
            process(child_res, child, -negdepth + 1)

    wall = time.perf_counter() - t0
    if incumbent is None:
        return _infeasible(nodes, wall)
    sol = _solution_from_values(model, incumbent.x, incumbent.objective,
                                nodes, wall, incumbents)
    return sol


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
    if not rows:
        return None
    return np.array(rows), rels, np.array(rhs)


def solve_by_enumeration(model: LinearModel, binary_cap: int = 24) -> Solution:
    """Exhaustive oracle: one residual LP per binary assignment.

    Assignments are visited in lexicographic order of the binary vector.
    Assignments that violate a row made up purely of binary variables are
    discarded without an LP, which cannot change the optimum.
    """
    t0 = time.perf_counter()
    bins = model.binary_indices()
    nb = len(bins)
    if nb > binary_cap:
        raise EnumerationCapError(
            f"{nb} binary variables exceed the enumeration cap {binary_cap}")
    screen = _binary_screen(model, bins)
    shifts = np.array([nb - 1 - t for t in range(nb)], dtype=np.int64)

    best: LPResult | None = None
    lps = 0
    chunk = 1 << min(nb, 16)
    total = 1 << nb
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(float)
        keep = np.ones(len(codes), dtype=bool)
        if screen is not None:
            rows, rels, rhs = screen
            acts = bits @ rows.T
            for r, rel in enumerate(rels):
                if rel == EQ:
                    keep &= np.abs(acts[:, r] - rhs[r]) <= 1e-9
                elif rel == LE:
                    keep &= acts[:, r] <= rhs[r] + 1e-9
                else:
                    keep &= acts[:, r] >= rhs[r] - 1e-9
        for row in bits[keep]:
            extra = {j: (row[t], row[t]) for t, j in enumerate(bins)}
            res = solve_lp(model, extra_bounds=extra)
            lps += 1
            if res.status != "optimal":
                continue
            if best is None or res.objective < best.objective:
                cert = verify_certificate(model, res)
                if not cert.passed:
                    raise SimplexError("enumeration incumbent failed certificate: "
                                       + "; ".join(cert.failures[:3]))
                best = res

    wall = time.perf_counter() - t0
    if best is None:
        return _infeasible(lps, wall)
    return _solution_from_values(model, best.x, best.objective, lps, wall, [])


def solution_to_json(sol: Solution) -> dict:
    """Deterministic report body (wall time deliberately excluded)."""
    out = {
        "status": sol.status,
        "objective": sol.objective,
        "open_hubs": list(sol.open_hubs),
        "collaborative_hubs": list(sol.collaborative_hubs),
        "noncollaborative_hubs": list(sol.noncollaborative_hubs),
        "flows": {name: v for name, v in sorted(sol.values.items())
                  if name[0] in "ZYX" and v > 1e-9},
        "nodes_explored": sol.nodes_explored,
    }
    if sol.scenario_costs is not None:
        out["scenario_costs"] = sol.scenario_costs
    if sol.regrets is not None:
        out["regrets"] = sol.regrets
    if sol.baselines is not None:
        out["baselines"] = sol.baselines
    return out
