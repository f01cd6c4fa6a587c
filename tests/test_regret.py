from dataclasses import replace

import numpy as np
import pytest

from conftest import brute_force_max_regret, make_toy3
from hubloc import regret
from hubloc.formulations import (FormulationError, ModelOptions, build_nc,
                                 build_scenario_deterministic)
from hubloc.instance import GeneratorConfig, Instance, generate_instance
from hubloc.milp import solve_milp
from hubloc.regret import (InfeasibleDesignError, InfeasibleScenarioError,
                           _attach_regrets, compute_baselines, evaluate_design,
                           regret_report, solve_ccu, solve_ocu)

TWO_SCEN = ((0.0, 0.0, 0.0), (0.0, 100.0, 0.0))


def test_baselines_pinned():
    inst = make_toy3(scenarios=((0.0, 0.0, 0.0), (0.0, 10.0, 0.0)))
    base = compute_baselines(inst)
    assert len(base) == 2
    assert base[0] == pytest.approx(25.0, abs=1e-9)
    assert base[1] == pytest.approx(35.0, abs=1e-9)
    assert solve_milp(build_scenario_deterministic(inst, 0)).open_hubs == (1,)


def test_infeasible_scenario_raises():
    inst = make_toy3(capacity=(3.0, 3.0, 3.0))
    with pytest.raises(InfeasibleScenarioError, match="scenario 0"):
        compute_baselines(inst)


def test_single_scenario_zero_regret(toy3):
    sol = solve_ccu(toy3)
    assert sol.objective <= 1e-9
    assert sol.open_hubs == (1,)


def test_ccu_matches_subset_oracle():
    inst = make_toy3(scenarios=TWO_SCEN)
    oracle_r, oracle_set, oracle_base = brute_force_max_regret(inst)
    assert oracle_r == 5.0 and oracle_set == (1,)
    sol = solve_ccu(inst)
    assert sol.objective == pytest.approx(oracle_r, abs=1e-6)
    assert sol.baselines == pytest.approx(oracle_base)
    assert sol.objective == pytest.approx(max(sol.regrets), abs=1e-9)
    assert all(r >= -1e-9 for r in sol.regrets)


def test_ocu_dominates_ccu_on_toy3():
    inst = make_toy3(scenarios=TWO_SCEN)
    ccu, ocu = solve_ccu(inst), solve_ocu(inst)
    assert ocu.objective >= ccu.objective - 1e-6 * max(1.0, abs(ccu.objective))
    assert ocu.objective == pytest.approx(max(ocu.regrets), abs=1e-9)


def test_ocu_single_chain_rejected():
    inst = make_toy3(chains=((0, 1, 2),))
    with pytest.raises(FormulationError, match="two supply chains"):
        solve_ocu(inst)


def test_disjoint_chains_zero_m_rows_block_cross_flows():
    # node 0 forms its own chain and has no supply, so the cross-chain
    # collection/distribution rows for commodity 0 carry M = 0
    demand = np.zeros((3, 3))
    demand[1, 2], demand[2, 1] = 4.0, 3.0
    inst = Instance(n=3, demand=demand,
                    cost=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0],
                                   [2.0, 1.0, 0.0]]),
                    setup=np.array([5.0, 5.0, 5.0]),
                    capacity=np.full(3, 10.0), chi=1.0, alpha=0.5, delta=1.0,
                    scenarios=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                    chains=((0,), (1, 2)))
    sol = solve_ocu(inst)
    assert sol.status == "optimal"
    from hubloc.formulations import build_ocu
    model = build_ocu(inst, compute_baselines(inst))
    by_label = {c.label: c for c in model.constraints}
    for label in ("eq16[i=0,k=1]", "eq16[i=0,k=2]"):
        con = by_label[label]
        assert con.rhs == 0.0 and len(con.terms) == 1  # reduces to Z <= 0
    assert sol.values["Z[0,1]"] == pytest.approx(0.0, abs=1e-9)
    assert sol.values["Z[0,2]"] == pytest.approx(0.0, abs=1e-9)
    assert sol.values["X[0,1,0]"] == pytest.approx(0.0, abs=1e-9)


def test_evaluate_design_recovers_baseline(toy3):
    base = compute_baselines(toy3)
    witness = solve_milp(build_scenario_deterministic(toy3, 0))
    costs = evaluate_design(toy3, witness.values)
    assert costs == [pytest.approx(base[0], abs=1e-9)]


def test_evaluate_design_recovers_regrets():
    inst = make_toy3(scenarios=TWO_SCEN)
    sol = solve_ccu(inst)
    costs = evaluate_design(inst, sol.values)
    assert len(costs) == 2
    for s, cost in enumerate(costs):
        assert cost - sol.baselines[s] == pytest.approx(sol.regrets[s], abs=1e-6)


def test_evaluate_nc_design_under_supplement():
    inst = make_toy3(scenarios=((0.0, 0.0, 0.0), (0.0, 10.0, 0.0)))
    nc_sol = solve_milp(build_nc(inst))
    assert evaluate_design(inst, nc_sol.values)[1] == pytest.approx(35.0, abs=1e-9)


def test_evaluate_design_rejects_infeasible(toy3):
    design = {"Z[0,1]": 10.0, "X[0,1,2]": 10.0}  # flows without an open hub
    with pytest.raises(InfeasibleDesignError,
                       match=r"design infeasible: \d+ rows and 0 bounds violated"):
        evaluate_design(toy3, design)


def test_evaluate_design_rejects_a_bound_violation(toy3):
    design = dict(solve_milp(build_nc(toy3)).values)
    design["H[1]"] = 2.0   # every row still holds, the binary bound does not
    with pytest.raises(InfeasibleDesignError,
                       match=r"0 rows and 1 bounds violated, "
                             r"worst bound\[H\[1\]\] by 1.000e\+00"):
        evaluate_design(toy3, design)


def test_regret_replay_still_rejects_an_infeasible_design():
    inst = make_toy3(scenarios=TWO_SCEN)
    sol = solve_ocu(inst)
    closed = dict(sol.values)
    for k in sol.open_hubs:
        closed[f"H[{k}]"] = closed[f"I[{k}]"] = closed[f"T[{k}]"] = 0.0
    with pytest.raises(InfeasibleDesignError, match="design infeasible"):
        _attach_regrets(inst, replace(sol, values=closed),
                        compute_baselines(inst), ModelOptions())


def test_regret_replay_mismatch_raises(monkeypatch):
    evaluate = regret.evaluate_design

    def shifted(*args, **kwargs):
        costs = evaluate(*args, **kwargs)
        return [costs[0], costs[1] + 1.0]

    monkeypatch.setattr(regret, "evaluate_design", shifted)
    with pytest.raises(RuntimeError, match="regret replay mismatch for scenario 1"):
        solve_ccu(make_toy3(scenarios=TWO_SCEN))


@pytest.mark.parametrize("solve", [solve_ccu, solve_ocu], ids=["ccu", "ocu"])
def test_regret_replay_prices_the_design_once(monkeypatch, solve):
    calls = []
    evaluate = regret.evaluate_design

    def counting(*args, **kwargs):
        calls.append(kwargs.get("check", True))
        return evaluate(*args, **kwargs)
    monkeypatch.setattr(regret, "evaluate_design", counting)
    sol = solve(make_toy3(scenarios=TWO_SCEN))
    assert calls == [True]
    assert len(sol.scenario_costs) == 2


def test_baseline_monotone_in_sigma():
    for seed in (0, 1, 2):
        inst = generate_instance(GeneratorConfig(seed=seed, n=3, chain_count=2,
                                                 scenario_count=1))
        bumped = Instance(n=inst.n, demand=inst.demand, cost=inst.cost,
                          setup=inst.setup, capacity=inst.capacity,
                          chi=inst.chi, alpha=inst.alpha, delta=inst.delta,
                          scenarios=inst.scenarios + 7.5, chains=inst.chains)
        low = compute_baselines(inst)[0]
        high = compute_baselines(bumped)[0]
        assert high >= low - 1e-9


def test_regret_report_shape():
    inst = make_toy3(scenarios=TWO_SCEN)
    sol = solve_ccu(inst)
    report = regret_report(sol)
    assert report["max_regret"] == sol.objective
    assert report["baselines"] == sol.baselines
    assert report["design"]["open_hubs"] == [1]
    assert len(report["regrets"]) == 2
