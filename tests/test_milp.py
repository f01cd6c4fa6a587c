import numpy as np
import pytest

from conftest import make_toy3, ocu_with_families
from hubloc.formulations import (COUPLING_FAMILIES, ModelOptions, build_cc,
                                 build_ccu, build_nc, build_ocu,
                                 build_scenario_deterministic)
from hubloc.instance import GeneratorConfig, Instance, generate_instance
from hubloc.milp import (ENUMERATION_CAP, EnumerationCapError,
                         solve_by_enumeration, solve_milp)
from hubloc.model import GE, LinearModel, check_feasibility, with_extra_constraint
from hubloc.regret import compute_baselines, hub_sets, solution_to_json


def agree(a, b):
    if a.status != b.status:
        return False
    if a.status != "optimal":
        return True
    return abs(a.objective - b.objective) <= 1e-6 * max(1.0, abs(a.objective))


def test_toy3_pin(toy3):
    sol = solve_milp(build_nc(toy3))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(25.0, abs=1e-9)
    assert hub_sets(sol.values)["open_hubs"] == [1]
    assert check_feasibility(build_nc(toy3), sol.values) == []


def test_zero_demand_opens_nothing():
    inst = Instance(n=3, demand=np.zeros((3, 3)),
                    cost=np.ones((3, 3)) - np.eye(3), setup=np.full(3, 2.0),
                    capacity=np.ones(3), chi=1.0, alpha=0.5, delta=1.0,
                    scenarios=np.zeros((1, 3)), chains=((0, 1), (1, 2)))
    sol = solve_milp(build_nc(inst))
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert hub_sets(sol.values)["open_hubs"] == []


def test_capacity_shortfall_infeasible():
    inst = make_toy3(capacity=(3.0, 3.0, 3.0))
    assert solve_milp(build_nc(inst)).status == "infeasible"
    assert solve_by_enumeration(build_nc(inst)).status == "infeasible"


def test_enumeration_toy3(toy3):
    sol = solve_by_enumeration(build_nc(toy3))
    assert sol.objective == pytest.approx(25.0, abs=1e-9)
    assert sol.nodes_explored == 8  # 2^3 assignments, all screen-feasible


def test_enumeration_ocu_matches_bnb(toy3):
    model = build_ocu(toy3, [25.0])
    assert len(model.binary_indices()) == 9
    assert agree(solve_milp(model), solve_by_enumeration(model))


def test_enumeration_cap():
    model = LinearModel()
    for j in range(ENUMERATION_CAP + 1):
        model.add_variable(f"H[{j}]", "binary")
    with pytest.raises(EnumerationCapError, match="25 binary variables exceed "
                                                  "the enumeration cap 24"):
        solve_by_enumeration(model)


def test_solution_invariants(toy3):
    sol = solve_milp(build_nc(toy3))
    for name, v in sol.values.items():
        if name.startswith(("H[", "I[", "T[")):
            assert abs(v - round(v)) <= 1e-6


def test_branching_determinism():
    inst = generate_instance(GeneratorConfig(seed=5, n=4, chain_count=2,
                                             scenario_count=2))
    model = build_cc(inst)
    a, b = solve_milp(model), solve_milp(model)
    assert a.nodes_explored == b.nodes_explored
    assert a.objective == b.objective
    assert [obj for obj, _ in a.incumbents] == [obj for obj, _ in b.incumbents]
    assert a.values == b.values


@pytest.mark.parametrize("seed", range(10))
def test_oracle_equivalence_small_sweep(seed):
    inst = generate_instance(GeneratorConfig(
        seed=seed, n=3 + seed % 2, chain_count=2, scenario_count=1 + seed % 2))
    base = compute_baselines(inst)
    for model in (build_nc(inst), build_cc(inst), build_ccu(inst, base),
                  build_ocu(inst, base)):
        assert agree(solve_milp(model), solve_by_enumeration(model))


def test_coupling_families_never_lower_the_optimum(toy3):
    inst = make_toy3(scenarios=((0.0, 0.0, 0.0), (0.0, 100.0, 0.0)))
    base = compute_baselines(inst)
    ccu_obj = solve_milp(build_ccu(inst, base)).objective
    opts = ModelOptions()
    for fam in COUPLING_FAMILIES:
        model = ocu_with_families(inst, base, opts, ("eq15", fam))
        obj = solve_milp(model).objective
        assert obj >= ccu_obj - 1e-6 * max(1.0, abs(ccu_obj))
    full = solve_milp(build_ocu(inst, base, opts)).objective
    assert full >= ccu_obj - 1e-6 * max(1.0, abs(ccu_obj))


def test_enumeration_chunking_past_16_binaries():
    # 17 binaries forces the chunked assignment walk; equality screen rows
    # leave exactly one assignment worth an LP
    from hubloc.model import EQ, LinearModel
    model = LinearModel()
    for j in range(17):
        model.add_variable(f"H[{j}]", "binary")
    for j in range(16):
        model.add_constraint(f"eq15[k={j}]", [(j, 1.0), (j + 1, -1.0)], EQ, 0.0)
    model.add_constraint("eq15[k=16]", [(0, 1.0)], EQ, 1.0)
    model.set_objective([(j, 1.0) for j in range(17)])
    sol = solve_by_enumeration(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(17.0)
    assert sol.nodes_explored == 1


def test_solution_json_shape(toy3):
    sol = solve_milp(build_nc(toy3))
    body = solution_to_json(sol)
    assert body["status"] == "optimal"
    assert body["open_hubs"] == [1]
    assert all(v > 1e-9 for v in body["flows"].values())
    assert "wall_time" not in body


def test_hub_sets_follow_the_binary_hub_variables():
    inst = make_toy3(scenarios=((0.0, 0.0, 0.0), (0.0, 100.0, 0.0)))
    model = build_ocu(inst, compute_baselines(inst))
    t_terms = [(model.name_index[f"T[{k}]"], 1.0) for k in range(inst.n)]
    sol = solve_milp(with_extra_constraint(model, "t", t_terms, GE, 1.0))
    sets = hub_sets(sol.values)
    assert list(sets) == ["open_hubs", "collaborative_hubs",
                          "noncollaborative_hubs"]
    for prefix, hubs in zip("HIT", sets.values()):
        assert hubs == [k for k in range(inst.n)
                        if sol.values[f"{prefix}[{k}]"] >= 0.5]
    assert sets["noncollaborative_hubs"]
