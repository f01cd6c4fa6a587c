import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import brute_force_nc, make_toy3, ocu_with_families
from hubloc.formulations import (COUPLING_FAMILIES, FormulationError,
                                 ModelOptions, build_cc, build_ccu,
                                 build_coupling_polytope, build_nc, build_ocu,
                                 build_scenario_deterministic, compute_big_m,
                                 coupling_patterns)
from hubloc.instance import GeneratorConfig, Instance, generate_instance
from hubloc.milp import solve_by_enumeration, solve_milp


def zero_demand_instance(n=3):
    return Instance(n=n, demand=np.zeros((n, n)),
                    cost=np.ones((n, n)) - np.eye(n),
                    setup=np.full(n, 2.0), capacity=np.ones(n),
                    chi=1.0, alpha=0.5, delta=1.0,
                    scenarios=np.zeros((1, n)),
                    chains=(tuple(range(n - 1)), (n - 1,)))


def label_counts(model, prefix):
    return sum(1 for c in model.constraints if c.label.startswith(prefix))


def test_nc_shape_n3(toy3):
    m = build_nc(toy3)
    kinds = [v.kind for v in m.variables]
    assert kinds.count("binary") == 3
    assert kinds.count("continuous") == 9 + 27 + 27
    assert len(m.constraints) == 42
    for family, count in [("eq2[", 3), ("eq3[", 9), ("eq4[", 3),
                          ("eq5[", 9), ("eq6[", 9), ("eq7[", 9)]:
        assert label_counts(m, family) == count


def test_zero_demand_rhs_all_zero():
    m = build_nc(zero_demand_instance())
    for con in m.constraints:
        assert con.rhs == 0.0


def test_nc_optimum_matches_route_oracle(toy3):
    best, hubs = brute_force_nc(toy3)
    assert best == 25.0 and hubs == (1,)
    sol = solve_by_enumeration(build_nc(toy3))
    assert sol.objective == pytest.approx(25.0, abs=1e-9)


def test_literal_distribution_cost_option(toy3):
    opts = ModelOptions(distribution_cost="literal-Cij")
    best, _ = brute_force_nc(toy3, distribution="literal")
    assert best == 35.0
    sol = solve_milp(build_nc(toy3, opts))
    assert sol.objective == pytest.approx(35.0, abs=1e-9)


def test_scenario_zero_sigma_identical_model(toy3):
    nc = build_nc(toy3)
    sd = build_scenario_deterministic(toy3, 0)
    assert [v.name for v in sd.variables] == [v.name for v in nc.variables]
    assert sd.objective == nc.objective
    assert sd.constraints == nc.constraints


def test_scenario_sigma_shifts_setup_coefficients():
    inst = make_toy3(scenarios=((5.0, 5.0, 5.0),))
    nc = dict(build_nc(inst).objective)
    sd = dict(build_scenario_deterministic(inst, 0).objective)
    for k in range(3):
        j = build_nc(inst).name_index[f"H[{k}]"]
        assert sd[j] == nc[j] + 5.0
    with pytest.raises(FormulationError, match="scenario index"):
        build_scenario_deterministic(inst, 1)


def test_scenario_optimum_pinned():
    inst = make_toy3(scenarios=((0.0, 10.0, 0.0),))
    assert solve_by_enumeration(
        build_scenario_deterministic(inst, 0)).objective == pytest.approx(35.0)


def test_cc_single_zero_scenario_equals_nc(toy3):
    obj_cc = solve_milp(build_cc(toy3)).objective
    obj_nc = solve_milp(build_nc(toy3)).objective
    assert abs(obj_cc - obj_nc) <= 1e-9 * max(1.0, abs(obj_nc))


def test_cc_one_epigraph_row_per_scenario():
    inst = make_toy3(scenarios=((0.0, 0.0, 0.0), (0.0, 10.0, 0.0)))
    m = build_cc(inst)
    assert label_counts(m, "eq10[") == 2
    assert "t" in m.name_index
    assert solve_milp(m).objective == pytest.approx(35.0, abs=1e-9)


def test_ccu_row_counts_and_baseline_check():
    inst = make_toy3(scenarios=((0.0, 0.0, 0.0), (0.0, 100.0, 0.0)))
    m = build_ccu(inst, [25.0, 120.0])
    assert label_counts(m, "eq12[") == 2
    assert label_counts(m, "eq13[") == 2
    with pytest.raises(FormulationError, match="baselines"):
        build_ccu(inst, [25.0])


def test_ocu_requires_two_chains():
    inst = make_toy3(chains=((0, 1, 2),))
    with pytest.raises(FormulationError, match="two supply chains"):
        build_ocu(inst, [25.0])


def test_ocu_coupling_counts_match_quantifiers(toy3):
    chains = [set(c) for c in toy3.chains]
    pairs = [(a, b) for a in range(2) for b in range(2) if a != b]
    expect = {
        "eq16": {(i, k) for a, b in pairs
                 for i in chains[a] for k in chains[b]},
        "eq17": {(i, j, l) for a, b in pairs for i in chains[a]
                 for j in chains[a] for l in chains[b]},
        "eq18": {(i, k, l) for a, b in pairs for i in chains[a]
                 for k in chains[a] for l in chains[b]},
        "eq19": {(i, k, l) for a, b in pairs for i in chains[a]
                 for l in chains[a] for k in chains[b]},
        "eq20": {(i, k, l) for a, b in pairs for i in chains[a]
                 for k in chains[b] for l in chains[b]},
    }
    pats = coupling_patterns(toy3)
    for fam, exp in expect.items():
        assert set(pats[fam]) == exp
    assert (len(pats["eq16"]), len(pats["eq17"]),
            len(pats["eq18"]), len(pats["eq19"])) == (7, 15, 15, 15)

    ccu_rows = len(build_ccu(toy3, [25.0]).constraints)
    m = build_ocu(toy3, [25.0], ModelOptions(eq20_mode="omit"))
    assert len(m.constraints) == (ccu_rows + 3 + len(expect["eq16"])
                                  + len(expect["eq17"]) + len(expect["eq18"])
                                  + len(expect["eq19"]))
    lin = build_ocu(toy3, [25.0], ModelOptions(eq20_mode="linearized"))
    assert len(lin.constraints) == len(m.constraints) + 2 * len(expect["eq20"])


def test_ocu_eq21_replaces_eq12(toy3):
    m = build_ocu(toy3, [25.0])
    assert label_counts(m, "eq12[") == 0
    assert label_counts(m, "eq21[") == 1
    assert label_counts(m, "eq15[") == 3


def test_big_m_values(toy3):
    assert compute_big_m(toy3, "eq16", (0, 1)) == 10.0
    assert compute_big_m(toy3, "eq17", (0, 2, 1)) == 10.0
    assert compute_big_m(toy3, "eq17", (0, 1, 2)) == 0.0
    assert compute_big_m(toy3, "eq18", (0, 1, 2)) == 10.0
    zero = zero_demand_instance()
    for fam, idx in [("eq16", (0, 2)), ("eq17", (0, 0, 2)), ("eq20", (0, 2, 2))]:
        assert compute_big_m(zero, fam, idx) == 0.0
    total = compute_big_m(toy3, "eq16", (1, 2), mode="total-demand")
    assert total == 10.0
    for i in range(3):
        for k in range(3):
            assert compute_big_m(toy3, "eq16", (i, k)) <= total


def test_big_m_validity_on_solved_instances():
    for seed in (0, 1):
        inst = generate_instance(GeneratorConfig(seed=seed, n=4, chain_count=2,
                                                 scenario_count=1))
        sol = solve_milp(build_nc(inst))
        pats = coupling_patterns(inst)
        for (i, k) in pats["eq16"]:
            assert sol.values[f"Z[{i},{k}]"] <= compute_big_m(inst, "eq16", (i, k)) + 1e-7
        for (i, j, l) in pats["eq17"]:
            assert sol.values[f"X[{i},{l},{j}]"] <= compute_big_m(inst, "eq17", (i, j, l)) + 1e-7
        for fam in ("eq18", "eq19", "eq20"):
            for (i, k, l) in pats[fam]:
                assert sol.values[f"Y[{i},{k},{l}]"] <= compute_big_m(inst, fam, (i, k, l)) + 1e-7


def test_build_determinism(toy3):
    a, b = build_ocu(toy3, [25.0]), build_ocu(toy3, [25.0])
    assert [v.name for v in a.variables] == [v.name for v in b.variables]
    assert a.constraints == b.constraints
    assert a.objective == b.objective


@pytest.mark.parametrize("builder", [
    lambda i: build_nc(i),
    lambda i: build_scenario_deterministic(i, 0),
    lambda i: build_cc(i),
    lambda i: build_ccu(i, [25.0]),
    lambda i: build_ocu(i, [25.0]),
])
def test_traceability_of_all_labels(toy3, builder):
    m = builder(toy3)
    for con in m.constraints:
        tag = re.match(r"^eq(\d+)", con.label)
        assert tag and 1 <= int(tag.group(1)) <= 22, con.label


def test_model_options_validated():
    with pytest.raises(FormulationError, match="eq20_mode"):
        ModelOptions(eq20_mode="sometimes")


def test_every_decision_variable_named_once(toy3):
    m = build_ocu(toy3, [25.0])
    n = toy3.n
    expected = ([f"H[{k}]" for k in range(n)]
                + [f"Z[{i},{k}]" for i in range(n) for k in range(n)]
                + [f"Y[{i},{k},{l}]" for i in range(n) for k in range(n)
                   for l in range(n)]
                + [f"X[{i},{l},{j}]" for i in range(n) for l in range(n)
                   for j in range(n)]
                + ["Rs[0]", "R"]
                + [f"I[{k}]" for k in range(n)]
                + [f"T[{k}]" for k in range(n)])
    assert sorted(m.name_index) == sorted(expected)
    assert len(set(m.name_index.values())) == len(expected)


# -- exact builder output ------------------------------------------------------
#
# Every builder's variables (order, names, bounds, kinds), objective, row labels,
# each row's term order and rhs feed the compiled form and the presolve's
# subtraction order, so equal output here means bit-identical solves.  The
# digests were taken from the builders before they shared one flow block.

def _digest_corpus():
    insts = [make_toy3()]
    for seed in range(3):
        insts += [
            generate_instance(GeneratorConfig(seed=seed, n=3, scenario_count=2)),
            generate_instance(GeneratorConfig(seed=seed, n=4,
                                              overlap_fraction=0.3)),
            generate_instance(GeneratorConfig(seed=seed, n=5, chain_count=3,
                                              scenario_count=3)),
        ]
    return insts


_DIGEST_OPTIONS = (ModelOptions(), ModelOptions("literal-Cij", "collaborative-split",
                                                "omit", "total-demand"))


def _digest_builders():
    def scenarios(inst, opts):
        return [build_scenario_deterministic(inst, s, opts)
                for s in range(inst.num_scenarios)]

    def base(inst):
        return [10.25 * (s + 1) for s in range(inst.num_scenarios)]

    builders = {
        "nc": lambda inst, opts: [build_nc(inst, opts)],
        "scenario": scenarios,
        "cc": lambda inst, opts: [build_cc(inst, opts)],
        "ccu": lambda inst, opts: [build_ccu(inst, base(inst), opts)],
        "ocu": lambda inst, opts: [build_ocu(inst, base(inst), opts)],
        "coupling": lambda inst, opts: [
            build_coupling_polytope(inst, replace(opts, eq20_mode="omit"))],
        "coupling+eq20": lambda inst, opts: [build_coupling_polytope(inst, opts)],
    }
    for fam in ("eq15",) + COUPLING_FAMILIES:
        builders[f"ocu[{fam}]"] = (
            lambda inst, opts, fam=fam: [
                ocu_with_families(inst, base(inst), opts, (fam,))])
    return builders


EXPECTED_BUILD_DIGESTS = {
    "nc": "ec5fb93981f9d8a3",
    "scenario": "8a4a75d97b555276",
    "cc": "b168099ac10e8578",
    "ccu": "55e4074bc047ae3c",
    "ocu": "e9b5871e89489e57",
    "coupling": "cbd81d9a631c5f15",
    "coupling+eq20": "7edda49c862149df",
    "ocu[eq15]": "14e16ae7b9ccb99d",
    "ocu[eq16]": "8e8fd49db9c197ff",
    "ocu[eq17]": "9fb3ac99a3b88018",
    "ocu[eq18]": "ce03c69664dd203a",
    "ocu[eq19]": "8f72eaeccf661048",
    "ocu[eq20]": "e045bf871dbe5ab8",
}


def test_builders_output_pinned_exactly():
    corpus = _digest_corpus()
    got = {}
    for name, build in _digest_builders().items():
        h = hashlib.sha256()
        for inst in corpus:
            for opts in _DIGEST_OPTIONS:
                for m in build(inst, opts):
                    h.update(repr((m.variables, m.objective, m.constraints,
                                   m.name_index)).encode())
        got[name] = h.hexdigest()[:16]
    assert got == EXPECTED_BUILD_DIGESTS
