import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_toy3
from hubloc import claims, cli, milp
from hubloc.claims import (CLAIM_CHECKS, CONFIRMED, COUNTEREXAMPLE,
                           INCONCLUSIVE, SolveMemo, check_cc_nc_consistency,
                           check_eq20_redundancy, check_i_redundancy,
                           check_theorem1, check_tk_never_one,
                           eliminate_collaborative_vars)
from hubloc.formulations import (FormulationError, ModelOptions,
                                 build_coupling_polytope, build_ocu)
from hubloc.instance import GeneratorConfig, Instance, generate_instance
from hubloc.model import check_feasibility

TWO_SCEN = ((0.0, 0.0, 0.0), (0.0, 100.0, 0.0))


def zero_demand_instance(setup=(2.0, 2.0, 2.0)):
    return Instance(n=3, demand=np.zeros((3, 3)),
                    cost=np.ones((3, 3)) - np.eye(3),
                    setup=np.array(setup, dtype=float), capacity=np.ones(3),
                    chi=1.0, alpha=0.5, delta=1.0, scenarios=np.zeros((2, 3)),
                    chains=((0, 1), (1, 2)))


def cross_demand_disjoint():
    demand = np.zeros((4, 4))
    demand[0, 2], demand[3, 1] = 6.0, 2.0
    cost = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    return Instance(n=4, demand=demand, cost=cost,
                    setup=np.array([3.0, 4.0, 3.0, 4.0]),
                    capacity=np.full(4, 20.0), chi=1.0, alpha=0.6, delta=1.0,
                    scenarios=np.array([[0.0] * 4, [1.0, 0.0, 2.0, 0.0]]),
                    chains=((0, 1), (2, 3)))


def test_theorem1_confirmed_on_toy3():
    inst = make_toy3(scenarios=TWO_SCEN)
    report = check_theorem1(inst)
    assert report.verdict == CONFIRMED
    assert report.evidence["obj_ocu"] >= report.evidence["obj_ccu"] - 1e-6
    assert report.evidence["max_replay_residual"] <= 1e-7
    assert report.evidence["incumbents_replayed"] >= 1


def test_theorem1_split_variant_not_asserted():
    inst = make_toy3(scenarios=TWO_SCEN)
    report = check_theorem1(inst, ModelOptions(ocu_objective="collaborative-split"))
    assert report.verdict == INCONCLUSIVE
    assert report.evidence["variant_dependent"] is True
    assert "dominance_holds" in report.evidence


def test_theorem1_requires_chains():
    with pytest.raises(FormulationError,
                       match="at least two supply chains required"):
        check_theorem1(make_toy3(chains=((0, 1, 2),)))


@pytest.mark.parametrize("key", ["eq20", "tk", "ivar"])
def test_split_model_claims_require_chains(key):
    with pytest.raises(FormulationError,
                       match="at least two supply chains required"):
        CLAIM_CHECKS[key](make_toy3(chains=((0, 1, 2),)))


def test_theorem1_prices_each_incumbent_once(monkeypatch):
    calls = []
    evaluate = claims.evaluate_design

    def counting(*args, **kwargs):
        calls.append(kwargs["check"])
        return evaluate(*args, **kwargs)
    monkeypatch.setattr(claims, "evaluate_design", counting)
    report = check_theorem1(make_toy3(scenarios=TWO_SCEN))
    assert calls == [False] * report.evidence["incumbents_replayed"]
    assert calls


def test_eq20_zero_demand_confirmed():
    report = check_eq20_redundancy(zero_demand_instance())
    assert report.verdict == CONFIRMED
    assert report.evidence["optima_equal"] is True


def test_eq20_counterexample_on_disjoint_chains():
    inst = cross_demand_disjoint()
    report = check_eq20_redundancy(inst)
    assert report.verdict == COUNTEREXAMPLE
    w = report.witness
    # independent replay: the witness satisfies the linear coupling rows
    base = build_coupling_polytope(inst, ModelOptions(eq20_mode="omit"))
    assert check_feasibility(base, w) == []
    i, k, l = map(int, re.match(
        r"eq20\[i=(\d+),k=(\d+),l=(\d+)\]", report.evidence["violated_row"]).groups())
    m = report.evidence["big_m"]
    lhs = w[f"Y[{i},{k},{l}]"]
    rhs = m * (1 - round(w[f"T[{k}]"])) * (1 - round(w[f"T[{l}]"]))
    assert lhs - rhs > 1e-4 * m


def test_eq20_verdict_recorded_on_overlapping_chains():
    report = check_eq20_redundancy(make_toy3(scenarios=TWO_SCEN))
    assert report.verdict in (CONFIRMED, COUNTEREXAMPLE)
    again = check_eq20_redundancy(make_toy3(scenarios=TWO_SCEN))
    assert report.to_json() == again.to_json()


def test_eq20_cap_gives_inconclusive(monkeypatch):
    monkeypatch.setattr(claims, "EQ20_MAX_PATTERNS", 1)
    report = check_eq20_redundancy(cross_demand_disjoint())
    assert report.verdict == INCONCLUSIVE


def test_eq20_cap_counts_the_patterns_examined(monkeypatch):
    # the first violation comes at the second pattern with some T[k] = 1
    monkeypatch.setattr(claims, "EQ20_MAX_PATTERNS", 2)
    found = check_eq20_redundancy(cross_demand_disjoint())
    assert found.verdict == COUNTEREXAMPLE
    assert found.evidence["patterns_examined"] == 2
    monkeypatch.setattr(claims, "EQ20_MAX_PATTERNS", 1)
    capped = check_eq20_redundancy(cross_demand_disjoint())
    assert (capped.evidence["patterns_examined"],
            capped.evidence["lps_solved"]) == (1, 1)
    assert "patterns_skipped" not in capped.evidence


def test_eq20_without_probes_is_confirmed_past_the_cap():
    # zero demand: no eq20 target has supply above its threshold, so no
    # pattern can solve an LP; 3^8 - 2^8 patterns would exceed the cap
    n = 8
    cost = np.abs(np.subtract.outer(np.arange(n * 1.0), np.arange(n * 1.0)))
    inst = Instance(n=n, demand=np.zeros((n, n)), cost=cost,
                    setup=np.full(n, 3.0), capacity=np.full(n, 20.0),
                    chi=1.0, alpha=0.6, delta=1.0, scenarios=np.zeros((1, n)),
                    chains=(tuple(range(4)), tuple(range(4, n))))
    assert 3 ** n - 2 ** n > claims.EQ20_MAX_PATTERNS
    report = check_eq20_redundancy(inst)
    assert report.verdict == CONFIRMED
    assert (report.evidence["patterns_examined"],
            report.evidence["lps_solved"]) == (0, 0)


def test_tk_confirmed_on_toy3():
    report = check_tk_never_one(make_toy3(scenarios=TWO_SCEN))
    assert report.verdict == CONFIRMED
    assert report.evidence["gap"] > 1e-6
    assert report.evidence["zero_objective"] is False
    assert "replay_residual" not in report.evidence


def test_tk_degenerate_tie_is_counterexample():
    report = check_tk_never_one(zero_demand_instance(setup=(0.0, 0.0, 0.0)))
    assert report.verdict == COUNTEREXAMPLE
    assert report.evidence["zero_objective"] is True
    assert report.evidence["replay_residual"] <= 1e-7
    assert sum(v for n, v in report.witness.items()
               if n.startswith("T[")) >= 0.5


def test_tk_counterexample_replays_its_witness_in_the_forced_model():
    inst = make_toy3(setup=(0.0, 5.0, 100.0))
    report = check_tk_never_one(inst)
    assert report.verdict == COUNTEREXAMPLE
    assert report.evidence["replay_residual"] <= 1e-7
    # the residual is read off the witness, not the solver: a witness
    # with one flow moved by 1 replays at a residual of 1 or more
    memo = SolveMemo(inst)
    memo.prepare(["tk"])
    forced = memo._outcomes["tk-forced"]
    flow = next(name for name, v in forced.values.items()
                if name.startswith("Z[") and v > 1.0)
    memo._outcomes["tk-forced"] = replace(
        forced, values={**forced.values, flow: forced.values[flow] - 1.0})
    moved = check_tk_never_one(inst, memo=memo)
    assert moved.verdict == COUNTEREXAMPLE
    assert moved.evidence["replay_residual"] >= 1.0 - 1e-9


def test_i_elimination_on_toy3():
    inst = make_toy3(scenarios=TWO_SCEN)
    report = check_i_redundancy(inst)
    assert report.verdict == CONFIRMED
    assert report.evidence["binary_reduction"] == 3
    assert report.evidence["optima_equal"] is True


def test_eliminated_model_shape():
    inst = make_toy3(scenarios=TWO_SCEN)
    full = build_ocu(inst, [25.0, 120.0])
    slim = eliminate_collaborative_vars(full)
    assert len(full.binary_indices()) - len(slim.binary_indices()) == 3
    assert not any(v.name.startswith("I[") for v in slim.variables)
    eq15 = [c for c in slim.constraints if c.label.startswith("eq15[")]
    assert len(eq15) == 3 and all(c.relation == ">=" for c in eq15)


def test_i_elimination_under_split_objective():
    # the collaborative-split objective prices I directly, so elimination
    # has to rewrite the regret equality rows as well
    inst = make_toy3(scenarios=TWO_SCEN)
    report = check_i_redundancy(inst, ModelOptions(
        ocu_objective="collaborative-split"))
    assert report.verdict == CONFIRMED
    assert report.evidence["optima_equal"] is True


def test_cc_nc_consistency(toy3):
    report = check_cc_nc_consistency(make_toy3(scenarios=TWO_SCEN))
    assert report.verdict == CONFIRMED
    assert report.evidence["obj_nc"] == pytest.approx(25.0, abs=1e-9)
    assert report.evidence["obj_cc_zero_sigma"] == pytest.approx(25.0, abs=1e-7)
    zero = check_cc_nc_consistency(zero_demand_instance())
    assert zero.verdict == CONFIRMED
    assert zero.evidence["obj_nc"] == pytest.approx(0.0, abs=1e-12)


def test_reports_are_deterministic():
    inst = generate_instance(GeneratorConfig(seed=11, n=3, chain_count=2,
                                             scenario_count=2))
    a = check_theorem1(inst).to_json()
    b = check_theorem1(inst).to_json()
    assert a == b
    assert a["options"]["ocu_objective"] == "as-written"
    assert len(a["fingerprint"]) == 16


SPLIT_OMIT = ModelOptions(eq20_mode="omit", ocu_objective="collaborative-split")


def n3_instance():
    return generate_instance(GeneratorConfig(seed=4, n=3, chain_count=2,
                                             scenario_count=2))


@pytest.mark.parametrize("opts", [ModelOptions(), SPLIT_OMIT],
                         ids=["default", "omit-split"])
@pytest.mark.parametrize("make", [lambda: make_toy3(scenarios=TWO_SCEN),
                                  n3_instance], ids=["toy3", "n3"])
def test_shared_memo_reports_equal_standalone(make, opts):
    inst = make()
    memo = SolveMemo(inst, opts)
    for key in sorted(CLAIM_CHECKS):
        shared = CLAIM_CHECKS[key](inst, opts, memo=memo).to_json()
        assert shared == CLAIM_CHECKS[key](inst, opts).to_json(), key


def test_memo_refuses_another_instance_or_options():
    inst = make_toy3(scenarios=TWO_SCEN)
    memo = SolveMemo(inst)
    with pytest.raises(ValueError, match="another instance"):
        check_tk_never_one(make_toy3(scenarios=TWO_SCEN), memo=memo)
    with pytest.raises(ValueError, match="another instance"):
        check_tk_never_one(inst, SPLIT_OMIT, memo=memo)


def _sweep_args(*extra):
    args = cli.build_parser().parse_args(
        ["sweep", "--nodes", "3", "--seed", "2", *extra])
    return args, cli._options_from(args)


@pytest.mark.parametrize("extra", [(), ("--eq20", "omit")],
                         ids=["linearized", "omit"])
def test_sweep_solves_each_model_once(monkeypatch, extra):
    """Counts branch-and-bound searches, which the serial path and the
    joint solve with the helper both start once per model solved."""
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return original(*a, **kw)
        monkeypatch.setattr(module, name, wrapper)

    counting(milp, "_search")
    counting(claims, "compute_baselines")
    args, opts = _sweep_args(*extra)
    for helper in (False, True):
        monkeypatch.setattr(milp, "_FORCE_HELPER", helper)
        calls.clear()
        cli._sweep_rows(sorted(CLAIM_CHECKS), 1, args, opts)
        assert calls == {"_search": args.scenarios + 7, "compute_baselines": 1}
    milp._stop_helper()


def test_sweep_csv_equals_standalone_checks():
    args, opts = _sweep_args()
    body, _ = cli._sweep_rows(sorted(CLAIM_CHECKS), 2, args, opts)
    lines = ["seed,n,claim,verdict,value_a,value_b,value_c,flag"]
    tally = Counter()
    for t in range(2):
        inst = generate_instance(cli._config_from(args, args.seed + t))
        for key in sorted(CLAIM_CHECKS):
            report = CLAIM_CHECKS[key](inst, opts)
            tally[report.verdict] += 1
            cells = [cli._csv_cell(report.evidence.get(c, ""))
                     for c in claims.CSV_FIELDS[key]]
            lines.append(",".join([str(args.seed + t), "3", report.claim_id,
                                   report.verdict] + cells))
    lines += [f"# tally {v}={tally[v]}" for v in sorted(tally)]
    assert body == "\n".join(lines) + "\n"


def test_csv_fields_name_evidence_the_checks_write():
    """On the n=4 instance of the identity corpus, where ``eq20`` reads
    COUNTEREXAMPLE and ``tk`` compares against a feasible forced model,
    every evidence key a sweep row prints is one its check wrote."""
    inst = generate_instance(GeneratorConfig(seed=7, n=4, chain_count=2,
                                             scenario_count=2))
    memo = SolveMemo(inst)
    memo.prepare(sorted(CLAIM_CHECKS))
    assert sorted(claims.CSV_FIELDS) == sorted(CLAIM_CHECKS)
    for key, fields in claims.CSV_FIELDS.items():
        report = CLAIM_CHECKS[key](inst, memo=memo)
        missing = [c for c in fields if c not in report.evidence]
        assert not missing, (key, report.verdict, missing)
