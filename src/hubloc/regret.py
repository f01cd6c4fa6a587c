"""Scenario pipeline: baselines, max-regret solves, design evaluation.

The regret of a design under scenario s is its cost with the scenario's
effective setup prices minus the best cost any design could achieve under
that scenario (the baseline).  Baselines are solved exactly before the
regret models are assembled; an approximate baseline would silently skew
every regret value built on top of it.  A solve's regrets are replayed by
pricing its design under all scenarios at once (:func:`evaluate_design`).
The report bodies of ``hubloc solve`` and ``hubloc regret`` are built here
too, since reading hubs and flows out of a solve's values takes the
models' variable names (:func:`hub_sets`).
"""

from __future__ import annotations

from dataclasses import replace

from .formulations import (ModelOptions, build_ccu, build_coupling_polytope,
                           build_nc, build_ocu, build_scenario_deterministic,
                           flow_cost_pairs)
from .instance import Instance
from .milp import Solution, solve_milp, solve_milps, unwrap
from .model import check_feasibility
from .simplex import SimplexError


class InfeasibleScenarioError(RuntimeError):
    """A scenario's deterministic problem has no feasible design."""


class InfeasibleDesignError(ValueError):
    """A fixed design violates a flow or coupling row or a variable bound."""

    def __init__(self, violations):
        worst = max(violations, key=lambda v: v.amount)
        bounds = sum(v.label.startswith("bound[") for v in violations)
        super().__init__(f"design infeasible: {len(violations) - bounds} rows "
                         f"and {bounds} bounds violated, "
                         f"worst {worst.label} by {worst.amount:.3e}")


def compute_baselines(inst: Instance,
                      opts: ModelOptions = ModelOptions()) -> tuple[float, ...]:
    """Solve every scenario's deterministic problem to optimality and
    return the optima L*_s, in scenario order.

    The scenario MILPs are independent, so they are all solved together
    (:func:`solve_milps`); their outcomes are then read in scenario order,
    so the first scenario that fails, by error or infeasibility, decides.
    """
    models = [build_scenario_deterministic(inst, s, opts)
              for s in range(inst.num_scenarios)]
    values = []
    for s, outcome in enumerate(solve_milps(models)):
        sol = unwrap(outcome)
        if sol.status != "optimal":
            raise InfeasibleScenarioError(
                f"scenario {s} admits no feasible design")
        values.append(sol.objective)
    return tuple(values)


def evaluate_design(inst: Instance, design: dict,
                    opts: ModelOptions = ModelOptions(),
                    check: bool = True) -> list[float]:
    """Cost of a fixed design (H/I/T plus flows, by name) under each
    scenario, in scenario order: its setup terms, then its flow terms in
    :func:`flow_cost_pairs` order.

    Missing variables default to zero.  With ``check`` on, the design is
    first checked once (feasibility does not depend on the scenario)
    against every row and variable bound of the flow polytope
    (:func:`build_nc`) or, when it carries the hub split, of
    :func:`build_coupling_polytope` under ``opts``; violations raise
    :class:`InfeasibleDesignError`.
    """
    has_split = any(name.startswith("T[") or name.startswith("I[")
                    for name in design)
    if check:
        probe = (build_coupling_polytope(inst, opts) if has_split
                 else build_nc(inst, opts))
        values = {name: design.get(name, 0.0) for name in probe.name_index}
        bad = check_feasibility(probe, values)
        if bad:
            raise InfeasibleDesignError(bad)

    setup_var = "I" if (has_split
                        and opts.ocu_objective == "collaborative-split") else "H"
    pairs = flow_cost_pairs(inst, opts)
    costs = []
    for s in range(inst.num_scenarios):
        eff = inst.effective_setup(s)
        cost = 0.0
        for k in range(inst.n):
            cost += eff[k] * design.get(f"{setup_var}[{k}]", 0.0)
            if has_split:
                cost += inst.setup[k] * design.get(f"T[{k}]", 0.0)
        for name, coeff in pairs:
            v = design.get(name, 0.0)
            if v:
                cost += coeff * v
        costs.append(float(cost))
    return costs


def _attach_regrets(inst: Instance, sol: Solution, baselines: tuple[float, ...],
                    opts: ModelOptions) -> Solution:
    costs = evaluate_design(inst, sol.values, opts)
    regrets = [cost - base for cost, base in zip(costs, baselines)]
    for s, regret in enumerate(regrets):
        reported = sol.values[f"Rs[{s}]"]
        if abs(regret - reported) > 1e-6 * max(1.0, abs(regret)):
            raise SimplexError(
                f"regret replay mismatch for scenario {s}: "
                f"{regret:.9g} recomputed vs {reported:.9g} reported")
    return replace(sol, scenario_costs=costs, regrets=regrets,
                   baselines=list(baselines))


def _solve_regret(inst: Instance, opts: ModelOptions, build) -> Solution:
    baselines = compute_baselines(inst, opts)
    sol = solve_milp(build(inst, baselines, opts))
    if sol.status != "optimal":
        return sol
    return _attach_regrets(inst, sol, baselines, opts)


def solve_ccu(inst: Instance, opts: ModelOptions = ModelOptions()) -> Solution:
    """Baselines, then the max-regret model without the hub split."""
    return _solve_regret(inst, opts, build_ccu)


def solve_ocu(inst: Instance, opts: ModelOptions = ModelOptions()) -> Solution:
    """Baselines, then the max-regret model with the hub split rows."""
    return _solve_regret(inst, opts, build_ocu)


def hub_sets(values: dict[str, float]) -> dict[str, list[int]]:
    """The sorted ``k`` of each ``H[k]``, ``I[k]`` and ``T[k]`` of
    ``values`` at 0.5 or more, as the report lists of open, collaborative
    and non-collaborative hubs."""
    sets = {"H": [], "I": [], "T": []}
    for name, v in values.items():
        if name[:2] in ("H[", "I[", "T[") and v >= 0.5:
            sets[name[0]].append(int(name[2:-1]))
    keys = ("open_hubs", "collaborative_hubs", "noncollaborative_hubs")
    return {key: sorted(sets[h]) for key, h in zip(keys, "HIT")}


def solution_to_json(sol: Solution) -> dict:
    """Deterministic report body: no field depends on timing."""
    out = {
        "status": sol.status,
        "objective": sol.objective,
        **hub_sets(sol.values),
        "flows": {name: v for name, v in sorted(sol.values.items())
                  if name[0] in "ZYX" and v > 1e-9},
        "nodes_explored": sol.nodes_explored,
    }
    for key in ("scenario_costs", "regrets", "baselines"):
        if getattr(sol, key) is not None:
            out[key] = getattr(sol, key)
    return out


def regret_report(sol: Solution) -> dict:
    """Machine-readable report for a solved regret pipeline."""
    return {
        "status": sol.status,
        "baselines": sol.baselines,
        "design": hub_sets(sol.values),
        "scenario_costs": sol.scenario_costs,
        "regrets": sol.regrets,
        "max_regret": sol.objective,
    }
