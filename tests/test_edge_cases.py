import json

import numpy as np
import pytest

from conftest import make_toy3
from hubloc.formulations import (ModelOptions, build_cc, build_nc,
                                 build_ocu, build_scenario_deterministic)
from hubloc.instance import Instance, load_instance, save_instance
from hubloc.milp import solve_by_enumeration, solve_milp
from hubloc.regret import compute_baselines, hub_sets, solve_ccu, solve_ocu


def test_self_flow_routes_through_a_hub():
    # W[0,0] > 0 still consumes collection/distribution capacity and
    # forces a hub open even though origin and destination coincide
    demand = np.zeros((2, 2))
    demand[0, 0] = 5.0
    inst = Instance(n=2, demand=demand,
                    cost=np.array([[0.0, 2.0], [2.0, 0.0]]),
                    setup=np.array([1.0, 50.0]), capacity=np.full(2, 10.0),
                    chi=1.0, alpha=0.5, delta=1.0,
                    scenarios=np.zeros((1, 2)), chains=((0,), (1,)))
    sol = solve_milp(build_nc(inst))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert hub_sets(sol.values)["open_hubs"] == [0]
    assert sol.values["Z[0,0]"] == pytest.approx(5.0, abs=1e-9)
    assert sol.values["X[0,0,0]"] == pytest.approx(5.0, abs=1e-9)


def test_single_node_full_stack():
    inst = Instance(n=1, demand=np.array([[3.0]]), cost=np.zeros((1, 1)),
                    setup=np.array([2.0]), capacity=np.array([5.0]),
                    chi=1.0, alpha=1.0, delta=1.0, scenarios=np.array([[4.0]]),
                    chains=((0,),))
    assert solve_milp(build_nc(inst)).objective == pytest.approx(2.0)
    assert solve_milp(
        build_scenario_deterministic(inst, 0)).objective == pytest.approx(6.0)
    assert solve_milp(build_cc(inst)).objective == pytest.approx(6.0, abs=1e-9)
    ccu = solve_ccu(inst)
    assert ccu.objective == pytest.approx(0.0, abs=1e-9)


def test_negative_supplement_from_file():
    body = {
        "n": 1, "demand": [[2.0]], "cost": [[0.0]], "setup": [10.0],
        "capacity": [4.0], "chi": 1.0, "alpha": 1.0, "delta": 1.0,
        "scenarios": [{"supplement": [-4.0]}], "chains": [[0]],
    }
    inst = load_instance(json.dumps(body))
    assert inst == load_instance(save_instance(inst))
    sol = solve_milp(build_scenario_deterministic(inst, 0))
    assert sol.objective == pytest.approx(6.0, abs=1e-9)  # 10 - 4 effective


@pytest.mark.parametrize("opts", [
    ModelOptions(distribution_cost="literal-Cij"),
    ModelOptions(ocu_objective="collaborative-split"),
    ModelOptions(eq20_mode="omit"),
    ModelOptions(big_m_mode="total-demand"),
])
def test_option_variants_keep_oracle_agreement(opts):
    inst = make_toy3(scenarios=((0.0, 0.0, 0.0), (0.0, 100.0, 0.0)))
    base = compute_baselines(inst, opts)
    model = build_ocu(inst, base, opts)
    a, b = solve_milp(model), solve_by_enumeration(model)
    assert a.status == b.status == "optimal"
    assert a.objective == pytest.approx(b.objective, abs=1e-6)


def test_split_objective_can_undercut_as_written():
    # under collaborative-split a non-collaborative hub is priced F[k]
    # instead of F[k] + sigma, so its optimum never exceeds as-written
    inst = make_toy3(scenarios=((0.0, 0.0, 0.0), (0.0, 100.0, 0.0)))
    as_written = solve_ocu(inst).objective
    split = solve_ocu(inst, ModelOptions(
        ocu_objective="collaborative-split")).objective
    assert split <= as_written + 1e-9


def split_transfer_instance():
    """Hand-solved: disjoint chains, one cross-chain flow 0 -> 3.

    Under the split objective a non-collaborative hub 3 is cheap (F=10 vs
    F+sigma=60), and the cheapest route uses the hub arc (2,3), which only
    the product family blocks when T[3]=1.  Route arithmetic:
      baseline (effective setups [., ., 60, 60]): hub 2 only,
        60 + 1*1*10 + 1*4*10 = 110
      product rows omitted: hub2 collaborative + hub3 non-collaborative,
        (60+10) + 10 + 0.5*4*10 + 0 = 100  -> regret -10
      product rows linearized: transfer blocked, best stays hub 2 only,
        110 -> regret 0
    """
    cost = np.full((4, 4), 9.0)
    np.fill_diagonal(cost, 0.0)
    cost[0, 2], cost[2, 3], cost[0, 3] = 1.0, 4.0, 6.0
    demand = np.zeros((4, 4))
    demand[0, 3] = 10.0
    return Instance(n=4, demand=demand, cost=cost,
                    setup=np.array([500.0, 500.0, 10.0, 10.0]),
                    capacity=np.full(4, 20.0), chi=1.0, alpha=0.5, delta=1.0,
                    scenarios=np.array([[0.0, 0.0, 50.0, 50.0]]),
                    chains=((0, 1), (2, 3)))


def test_product_rows_change_split_optimum():
    from hubloc.formulations import build_ocu
    from hubloc.claims import COUNTEREXAMPLE, check_eq20_redundancy, \
        check_tk_never_one
    inst = split_transfer_instance()
    base = compute_baselines(inst, ModelOptions(
        ocu_objective="collaborative-split"))
    assert base[0] == pytest.approx(110.0, abs=1e-9)
    omit = solve_milp(build_ocu(inst, base, ModelOptions(
        ocu_objective="collaborative-split", eq20_mode="omit")))
    lin = solve_milp(build_ocu(inst, base, ModelOptions(
        ocu_objective="collaborative-split", eq20_mode="linearized")))
    assert omit.objective == pytest.approx(-10.0, abs=1e-6)
    assert hub_sets(omit.values)["noncollaborative_hubs"] == [3]
    assert lin.objective == pytest.approx(0.0, abs=1e-6)
    for model, sol in [(build_ocu(inst, base, ModelOptions(
            ocu_objective="collaborative-split", eq20_mode="omit")), omit)]:
        assert solve_by_enumeration(model).objective == pytest.approx(
            sol.objective, abs=1e-6)

    rep = check_eq20_redundancy(inst, ModelOptions(
        ocu_objective="collaborative-split"))
    assert rep.verdict == COUNTEREXAMPLE
    assert rep.evidence["optima_equal"] is False

    tk = check_tk_never_one(inst, ModelOptions(
        ocu_objective="collaborative-split", eq20_mode="omit"))
    assert tk.verdict == COUNTEREXAMPLE
    assert tk.evidence["zero_objective"] is False
    assert tk.evidence["replay_residual"] <= 1e-7
