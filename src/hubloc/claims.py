"""Executable checks of the structural claims about the OCU model.

Each check solves real models and reports CONFIRMED, COUNTEREXAMPLE or
INCONCLUSIVE for one instance, never a universal verdict: CONFIRMED means
no counterexample was found under the stated procedure.  Replays read the
model's rows, not the solver (:func:`check_feasibility`): ``thm1`` replays
every split-model incumbent, its regrets recomputed, into the plain model,
and ``eq20`` and ``tk`` replay their witness into the model it came from
(``replay_residual``).  ``ivar`` re-solves each optimal H/T pattern in the
other model but does not replay its witness; ``ccnc`` has no witness.

The checks of one instance can share a :class:`SolveMemo`, which builds
each model they need once and solves them all together
(:func:`hubloc.milp.solve_milps`) before the first check reads them;
where the B&B helper process runs, their searches run side by side,
without changing any report.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, replace

import numpy as np

from .formulations import (ModelOptions, build_cc, build_ccu,
                           build_coupling_polytope, build_nc, build_ocu,
                           compute_big_m, coupling_patterns)
from .instance import Instance, instance_fingerprint, origin_supply
from .milp import attempt, solve_milps, unwrap
from .model import GE, LinearModel, check_feasibility, with_extra_constraint
from .regret import InfeasibleScenarioError, compute_baselines, evaluate_design
from .simplex import solve_lp

CONFIRMED = "CONFIRMED"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
INCONCLUSIVE = "INCONCLUSIVE"

REL_TOL = 1e-6
# check_eq20_redundancy reads INCONCLUSIVE after this many patterns
EQ20_MAX_PATTERNS = 4000


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    verdict: str
    fingerprint: str
    evidence: dict
    witness: dict | None
    options: dict

    def to_json(self) -> dict:
        return asdict(self)


def _report(claim_id: str, verdict: str, inst: Instance, opts: ModelOptions,
            evidence: dict, witness: dict | None = None) -> ClaimReport:
    return ClaimReport(claim_id, verdict, instance_fingerprint(inst), evidence,
                       witness, opts.to_dict())


def _tol(x: float) -> float:
    return REL_TOL * max(1.0, abs(x))


# The distinct models each check solves, by SolveMemo key; "ocu" is the
# split model under the memo's own eq20 mode.
_NEEDS = {
    "thm1": ("ccu", "ocu"),
    "eq20": ("ocu-omit", "ocu-linearized"),
    "tk": ("ocu", "tk-forced"),
    "ivar": ("ocu", "ivar-slim"),
    "ccnc": ("nc", "cc-zero"),
}

# The evidence keys each check's sweep row prints as value_a..c and flag.
CSV_FIELDS = {
    "thm1": ("obj_ccu", "obj_ocu", "gap", "dominance_holds"),
    "eq20": ("obj_eq20_omitted", "obj_eq20_linearized", "flow_value",
             "optima_equal"),
    "tk": ("obj_ocu", "obj_forced", "gap", "zero_objective"),
    "ivar": ("obj_full", "obj_eliminated", "binary_reduction", "optima_equal"),
    "ccnc": ("obj_nc", "obj_cc_zero_sigma", "gap", "scenario_count"),
}


class SolveMemo:
    """Baselines, models and solutions for one instance and options, each
    built and solved once and then only read; it lives only as long as
    the caller keeps it, so nothing is cached across instances.

    :meth:`prepare` builds the models of a list of checks and solves them
    in one :func:`solve_milps` call; :meth:`solved` only reads what it
    kept.  An exception met while building or solving a model is kept
    with it and raised when a check reads that model, so errors surface
    where the serial checks would raise them.
    """

    def __init__(self, inst: Instance, opts: ModelOptions = ModelOptions()):
        self.inst, self.opts = inst, opts
        self._baselines = None   # tuple of L*_s, or the exception raised
        self._models: dict = {}
        self._outcomes: dict = {}   # Solution, or the exception raised

    def _key(self, name: str) -> str:
        return f"ocu-{self.opts.eq20_mode}" if name == "ocu" else name

    def prepare(self, claims) -> None:
        """Build the models ``claims`` (keys of :data:`CLAIM_CHECKS`) need
        and this memo does not hold yet, then solve them together."""
        keys = []
        for key in dict.fromkeys(self._key(name) for claim in claims
                                 for name in _NEEDS[claim]):
            if key not in self._outcomes:
                built = attempt(self.model, key)
                if isinstance(built, Exception):
                    self._outcomes[key] = built
                else:
                    keys.append(key)
        if keys:
            outcomes = solve_milps([self._models[key] for key in keys])
            self._outcomes.update(zip(keys, outcomes))

    def baselines(self):
        if self._baselines is None:
            self._baselines = attempt(compute_baselines, self.inst, self.opts)
        return unwrap(self._baselines)

    def model(self, name: str) -> LinearModel:
        """The model of key ``name``, built on first use."""
        key = self._key(name)
        if key not in self._models:
            self._models[key] = self._build(key)
        return self._models[key]

    def _build(self, key: str) -> LinearModel:
        inst, opts = self.inst, self.opts
        if key == "nc":
            return build_nc(inst, opts)
        if key == "cc-zero":
            zero = replace(inst, scenarios=np.zeros_like(inst.scenarios))
            return build_cc(zero, opts)
        if key == "ccu":
            return build_ccu(inst, self.baselines(), opts)
        if key.startswith("ocu-"):
            return build_ocu(inst, self.baselines(),
                             replace(opts, eq20_mode=key[len("ocu-"):]))
        ocu = self.model("ocu")
        if key == "tk-forced":
            t_terms = [(ocu.name_index[f"T[{k}]"], 1.0) for k in range(inst.n)]
            return with_extra_constraint(ocu, "tk_floor[sum]", t_terms, GE, 1.0)
        if key == "ivar-slim":
            return eliminate_collaborative_vars(ocu)
        raise KeyError(key)

    def solved(self, name: str):
        """(model, Solution) of key ``name``, as :meth:`prepare` kept it."""
        key = self._key(name)
        solution = unwrap(self._outcomes[key])
        return self._models[key], solution


def _memo(inst: Instance, opts: ModelOptions, memo: SolveMemo | None,
          claim: str) -> SolveMemo:
    if memo is not None and (memo.inst is not inst or memo.opts != opts):
        raise ValueError("solve memo belongs to another instance or options")
    memo = memo or SolveMemo(inst, opts)
    memo.prepare([claim])
    return memo


def project_to_ccu(inst: Instance, values: dict, baselines,
                   opts: ModelOptions) -> dict:
    """Drop the hub split from an OCU point and complete the regret
    variables the way the CCU regret equality defines them.

    The flow part of any OCU-feasible point satisfies the shared rows, so
    this completion is the executable form of the feasible-set containment
    argument in flow space.
    """
    flows = {name: v for name, v in values.items() if name[0] in "HZYX"}
    costs = evaluate_design(inst, flows, opts, check=False)
    regrets = {f"Rs[{s}]": cost - base
               for s, (cost, base) in enumerate(zip(costs, baselines))}
    return {**flows, **regrets, "R": max(regrets.values())}


def check_theorem1(inst: Instance, opts: ModelOptions = ModelOptions(), *,
                   memo: SolveMemo | None = None) -> ClaimReport:
    """Regret dominance: the split model can never beat the plain one.

    Solves both pipelines with shared baselines, compares optima, and
    replays every incumbent the split-model search accepted against the
    plain model (projected through the regret equality).
    """
    memo = _memo(inst, opts, memo, "thm1")
    baselines = memo.baselines()
    ccu_model, ccu = memo.solved("ccu")
    ocu = memo.solved("ocu")[1]
    evidence = {
        "obj_ccu": ccu.objective,
        "obj_ocu": ocu.objective,
        "gap": ocu.objective - ccu.objective,
        "incumbents_replayed": len(ocu.incumbents),
    }
    worst_residual = 0.0
    for _, values in ocu.incumbents:
        projected = project_to_ccu(inst, values, baselines, opts)
        bad = check_feasibility(ccu_model, projected)
        if bad:
            worst_residual = max(worst_residual,
                                 max(v.amount for v in bad))
    evidence["max_replay_residual"] = worst_residual
    dominance = ocu.objective >= ccu.objective - _tol(ccu.objective)
    evidence["dominance_holds"] = bool(dominance)
    if opts.ocu_objective != "as-written":
        evidence["variant_dependent"] = True
        verdict = INCONCLUSIVE
        witness = None
    elif dominance and worst_residual <= 1e-7:
        verdict = CONFIRMED
        witness = None
    else:
        verdict = COUNTEREXAMPLE
        witness = dict(ocu.values)
    return _report("thm1", verdict, inst, opts, evidence, witness)


def _split_patterns(n: int):
    """All (H, I, T) binary patterns consistent with H = I + T."""
    per_node = ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0, 1.0))
    return itertools.product(per_node, repeat=n)


def check_eq20_redundancy(inst: Instance, opts: ModelOptions = ModelOptions(),
                          *, memo: SolveMemo | None = None) -> ClaimReport:
    """Is the product coupling row already implied by the linear ones?

    Two independent probes, both recorded: (a) optimum comparison of the
    split model with the product family omitted versus linearized; (b) an
    implication search that, for every hub-split pattern deactivating a
    product row, maximizes the row's flow variable over everything except
    that family.  Each row's probe LP is built once per check and reused by
    every pattern; an infeasible probe ends its pattern, whose fixings then
    admit no point.  The maximized variable is capped by its commodity supply,
    which keeps the LP bounded but does not exclude free circulation: a
    witness may be a 2-cycle ``Y[i,k,l] = Y[i,l,k] = cap``.  The search
    reads INCONCLUSIVE when it has examined ``EQ20_MAX_PATTERNS`` patterns
    with some T[k] = 1, found no violation and has patterns left; with no
    probe (no supply above its threshold) it examines none: CONFIRMED.
    """
    memo = _memo(inst, opts, memo, "eq20")
    obj_omit = memo.solved("ocu-omit")[1].objective
    obj_lin = memo.solved("ocu-linearized")[1].objective
    evidence = {
        "obj_eq20_omitted": obj_omit,
        "obj_eq20_linearized": obj_lin,
        "optima_equal": bool(abs(obj_omit - obj_lin) <= _tol(obj_lin)),
    }

    base = build_coupling_polytope(inst, replace(opts, eq20_mode="omit"))
    ix = base.name_index
    probes = []
    for (i, k, l) in coupling_patterns(inst)["eq20"]:
        m_row = compute_big_m(inst, "eq20", (i, k, l), opts.big_m_mode)
        threshold = max(1e-4 * m_row, 1e-9)
        cap = origin_supply(inst, i)
        if cap > threshold:
            y = ix[f"Y[{i},{k},{l}]"]
            probes.append(((i, k, l), y, m_row, threshold, cap,
                           replace(base, objective=[(y, -1.0)])))
    lps = patterns = 0
    verdict = CONFIRMED
    for pattern in _split_patterns(inst.n) if probes else ():
        t = [p[2] for p in pattern]
        if not any(t):
            continue
        if patterns >= EQ20_MAX_PATTERNS:
            verdict = INCONCLUSIVE
            break
        patterns += 1
        fix = {ix[f"{v}[{k}]"]: (x, x)
               for k, p in enumerate(pattern) for v, x in zip("HIT", p)}
        for (i, k, l), y, m_row, threshold, cap, probe in probes:
            if t[k] + t[l] < 1:
                continue
            res = solve_lp(probe, extra_bounds={**fix, y: (0.0, cap)})
            lps += 1
            if res.status == "infeasible":
                break
            max_y = float(res.x[y])
            if max_y > threshold:
                witness = {var.name: float(res.x[j])
                           for j, var in enumerate(base.variables)}
                replay = check_feasibility(base, witness)
                evidence.update({
                    "violated_row": f"eq20[i={i},k={k},l={l}]",
                    "flow_value": max_y,
                    "big_m": m_row,
                    "threshold": threshold,
                    "replay_residual": max((v.amount for v in replay),
                                           default=0.0),
                    "patterns_examined": patterns,
                    "lps_solved": lps,
                })
                return _report("eq20_redundant", COUNTEREXAMPLE, inst, opts,
                               evidence, witness)
    evidence["patterns_examined"] = patterns
    evidence["lps_solved"] = lps
    return _report("eq20_redundant", verdict, inst, opts, evidence)


def check_tk_never_one(inst: Instance, opts: ModelOptions = ModelOptions(), *,
                       memo: SolveMemo | None = None) -> ClaimReport:
    """Does any optimum mark a hub non-collaborative?

    Compares the split-model optimum against the same model forced to use
    at least one non-collaborative hub; equality exhibits an optimum with
    some T[k] = 1, a strict increase (or infeasibility) confirms the claim
    on this instance.
    """
    memo = _memo(inst, opts, memo, "tk")
    sol = memo.solved("ocu")[1]
    forced, sol_forced = memo.solved("tk-forced")
    evidence = {
        "obj_ocu": sol.objective,
        "zero_objective": bool(abs(sol.objective) <= 1e-9),
    }
    if sol_forced.status != "optimal":
        evidence["forced_status"] = sol_forced.status
        return _report("tk_never_one", CONFIRMED, inst, opts, evidence)
    gap = sol_forced.objective - sol.objective
    evidence["obj_forced"] = sol_forced.objective
    evidence["gap"] = gap
    if gap < -_tol(sol.objective):
        raise RuntimeError(f"forcing T raised nothing and lowered the optimum "
                           f"by {-gap:.3e}; solver inconsistency")
    if gap > _tol(sol.objective):
        return _report("tk_never_one", CONFIRMED, inst, opts, evidence)
    replay = check_feasibility(forced, sol_forced.values)
    evidence["replay_residual"] = max((v.amount for v in replay), default=0.0)
    return _report("tk_never_one", COUNTEREXAMPLE, inst, opts, evidence,
                   dict(sol_forced.values))


def eliminate_collaborative_vars(model: LinearModel) -> LinearModel:
    """Substitute I[k] := H[k] - T[k] everywhere and drop the I columns.

    The hub-split equalities turn into H[k] - T[k] >= 0 rows; every other
    row and the objective get the substitution applied coefficient-wise.
    """
    drop = {j for j, v in enumerate(model.variables)
            if v.name.startswith("I[")}
    paired = {}
    for j in drop:
        k = model.variables[j].name[2:-1]
        paired[j] = (model.name_index[f"H[{k}]"], model.name_index[f"T[{k}]"])

    out = LinearModel()
    remap = {}
    for j, var in enumerate(model.variables):
        if j in drop:
            continue
        remap[j] = out.add_variable(var.name, var.kind, var.lb, var.ub)

    def substitute(terms):
        acc: dict[int, float] = {}
        for j, c in terms:
            if j in drop:
                hj, tj = paired[j]
                acc[remap[hj]] = acc.get(remap[hj], 0.0) + c
                acc[remap[tj]] = acc.get(remap[tj], 0.0) - c
            else:
                acc[remap[j]] = acc.get(remap[j], 0.0) + c
        return sorted(acc.items())

    for con in model.constraints:
        if con.label.startswith("eq15["):
            k = con.label[len("eq15[k="):-1]
            out.add_constraint(con.label,
                               [(out.name_index[f"H[{k}]"], 1.0),
                                (out.name_index[f"T[{k}]"], -1.0)], GE, 0.0)
        else:
            out.add_constraint(con.label, substitute(con.terms), con.relation,
                               con.rhs)
    out.set_objective(substitute(model.objective))
    return out


def check_i_redundancy(inst: Instance, opts: ModelOptions = ModelOptions(), *,
                       memo: SolveMemo | None = None) -> ClaimReport:
    """Is the collaborative indicator pure bookkeeping?

    Solves the split model and its I-eliminated twin, then swaps the
    optimal H/T patterns across the two models to confirm each pattern
    stays feasible and equally priced in the other.
    """
    memo = _memo(inst, opts, memo, "ivar")
    full, sol_full = memo.solved("ocu")
    slim, sol_slim = memo.solved("ivar-slim")
    evidence = {
        "obj_full": sol_full.objective,
        "obj_eliminated": sol_slim.objective,
        "binary_reduction": len(full.binary_indices()) - len(slim.binary_indices()),
    }
    equal = abs(sol_full.objective - sol_slim.objective) <= _tol(sol_full.objective)
    evidence["optima_equal"] = bool(equal)

    def pattern_cost(target: LinearModel, values: dict) -> float | None:
        fix = {}
        for j, var in enumerate(target.variables):
            if var.kind != "binary":
                continue
            if var.name in values:
                v = round(values[var.name])
            else:
                k = var.name[2:-1]
                v = round(values[f"H[{k}]"]) - round(values[f"T[{k}]"])
            fix[j] = (float(v), float(v))
        res = solve_lp(target, extra_bounds=fix)
        return res.objective if res.status == "optimal" else None

    swap_full = pattern_cost(slim, sol_full.values)
    swap_slim = pattern_cost(full, sol_slim.values)
    evidence["full_pattern_in_eliminated"] = swap_full
    evidence["eliminated_pattern_in_full"] = swap_slim
    swaps_ok = (swap_full is not None and swap_slim is not None
                and abs(swap_full - sol_slim.objective) <= _tol(sol_slim.objective)
                and abs(swap_slim - sol_full.objective) <= _tol(sol_full.objective))
    if equal and swaps_ok:
        verdict = CONFIRMED
        witness = None
    else:
        verdict = COUNTEREXAMPLE
        witness = dict((sol_full if not equal else sol_slim).values)
    return _report("i_redundant", verdict, inst, opts, evidence, witness)


def check_cc_nc_consistency(inst: Instance, opts: ModelOptions = ModelOptions(),
                            *, memo: SolveMemo | None = None) -> ClaimReport:
    """With zero supplements the worst-case model must match the base one."""
    memo = _memo(inst, opts, memo, "ccnc")
    nc = memo.solved("nc")[1]
    if nc.status != "optimal":
        raise InfeasibleScenarioError("base model admits no feasible design")
    obj_nc = nc.objective
    obj_cc = memo.solved("cc-zero")[1].objective
    diff = abs(obj_cc - obj_nc)
    tol = 1e-9 * max(1.0, abs(obj_nc))
    evidence = {"obj_nc": obj_nc, "obj_cc_zero_sigma": obj_cc, "gap": diff,
                "scenario_count": inst.num_scenarios}
    verdict = CONFIRMED if diff <= tol else COUNTEREXAMPLE
    return _report("cc_nc_consistency", verdict, inst, opts, evidence)


CLAIM_CHECKS = {
    "thm1": check_theorem1,
    "eq20": check_eq20_redundancy,
    "tk": check_tk_never_one,
    "ivar": check_i_redundancy,
    "ccnc": check_cc_nc_consistency,
}
