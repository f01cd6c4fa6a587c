"""Metamorphic relations of the hub models.

Each relation changes an instance in a way whose effect on the optima is
known and compares optima and verdicts only, never flows or
``nodes_explored``: a tied optimum may be reported at another vertex, or
found after another number of nodes, once the data change.  Instances:
n=3 and n=4, generator seeds 0-2, two scenarios; the Hypothesis test
draws its relabeling and scale at n=3.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relabel
from hubloc.claims import CLAIM_CHECKS, SolveMemo
from hubloc.formulations import build_cc, build_ccu, build_nc, build_ocu
from hubloc.instance import GeneratorConfig, generate_instance
from hubloc.milp import solve_milp, solve_milps, unwrap
from hubloc.regret import compute_baselines, hub_sets

CASES = [(n, seed) for n in (3, 4) for seed in range(3)]
IDS = [f"n{n}-seed{seed}" for n, seed in CASES]


def _instance(n, seed):
    return generate_instance(GeneratorConfig(seed=seed, n=n, chain_count=2,
                                             scenario_count=2))


def _optima(inst):
    """The baselines and the nc, cc, ccu and ocu optima of ``inst``."""
    base = compute_baselines(inst)
    models = {"nc": build_nc(inst), "cc": build_cc(inst),
              "ccu": build_ccu(inst, base), "ocu": build_ocu(inst, base)}
    solved = [unwrap(o) for o in solve_milps(list(models.values()))]
    assert all(sol.status == "optimal" for sol in solved)
    return base, {name: sol.objective for name, sol in zip(models, solved)}


def _verdicts(inst):
    memo = SolveMemo(inst)
    memo.prepare(list(CLAIM_CHECKS))
    return {claim: check(inst, memo=memo).verdict
            for claim, check in CLAIM_CHECKS.items()}


@functools.lru_cache(maxsize=None)
def _reference(n, seed):
    inst = _instance(n, seed)
    return inst, *_optima(inst), _verdicts(inst)


def _assert_close(got, want):
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (got, want)


def _assert_regret_floor(base, optima):
    floor = -1e-9 * max(1.0, *base)
    assert optima["ccu"] >= floor and optima["ocu"] >= floor, optima


@pytest.mark.parametrize("n, seed", CASES, ids=IDS)
def test_relabeling_nodes_keeps_optima_and_verdicts(n, seed):
    inst, _, optima, verdicts = _reference(n, seed)
    moved = relabel(inst, [(v + 1) % n for v in range(n)])
    base, got = _optima(moved)
    for name, value in optima.items():
        _assert_close(got[name], value)
    assert _verdicts(moved) == verdicts
    _assert_regret_floor(base, got)


def _with_third_scenario(inst, supplement):
    """The baselines and the ccu and ocu optima of ``inst`` with the
    scenario ``supplement`` appended."""
    more = replace(inst, scenarios=np.vstack([inst.scenarios, supplement]))
    assert (more.setup + more.scenarios >= 0).all()
    base = compute_baselines(more)
    assert len(base) == 3
    solved = [unwrap(o) for o in solve_milps([build_ccu(more, base),
                                              build_ocu(more, base)])]
    return base, dict(zip(("ccu", "ocu"), (sol.objective for sol in solved)))


@pytest.mark.parametrize("n, seed", CASES, ids=IDS)
def test_a_copy_of_a_scenario_keeps_max_regret(n, seed):
    inst, _, optima, _ = _reference(n, seed)
    base, got = _with_third_scenario(inst, inst.scenarios[0])
    for name, value in got.items():
        _assert_close(value, optima[name])
    _assert_regret_floor(base, got)


@pytest.mark.parametrize("n, seed", CASES, ids=IDS)
def test_a_new_scenario_never_lowers_max_regret(n, seed):
    # every design's max regret over three scenarios is at least its max
    # over the first two, whose baselines are unchanged
    inst, _, optima, _ = _reference(n, seed)
    _, got = _with_third_scenario(inst, inst.scenarios[0, ::-1])
    for name, value in got.items():
        want = optima[name]
        assert value >= want - 1e-9 * max(1.0, abs(want)), name


@pytest.mark.parametrize("n, seed", CASES, ids=IDS)
def test_charging_the_open_hubs_raises_max_regret(n, seed):
    # a third scenario that charges the ccu optimum's open hubs twice their
    # setup: on these instances it strictly raises both models' max regret,
    # so the relation above is not only ever met with equality
    inst, base, optima, _ = _reference(n, seed)
    hubs = hub_sets(solve_milp(build_ccu(inst, base)).values)["open_hubs"]
    supplement = np.zeros(n)
    supplement[hubs] = 2 * inst.setup[hubs]
    _, got = _with_third_scenario(inst, supplement)
    for name, value in got.items():
        want = optima[name]
        assert value > want + 1e-6 * max(1.0, abs(want)), (name, value, want)


@given(seed=st.sampled_from(range(3)), perm=st.permutations(range(3)),
       scale=st.sampled_from([2.0 ** -2, 2.0, 2.0 ** 10]))
@settings(max_examples=10, derandomize=True, deadline=None)
def test_relabeling_and_scaling_keep_or_scale_each_optimum(seed, perm, scale):
    inst, _, optima, _ = _reference(3, seed)
    moved = relabel(inst, perm)
    for name, value in _optima(moved)[1].items():
        _assert_close(value, optima[name])
    scaled = replace(moved, cost=scale * moved.cost, setup=scale * moved.setup,
                     scenarios=scale * moved.scenarios)
    for name, value in _optima(scaled)[1].items():
        _assert_close(value, scale * optima[name])


@pytest.mark.parametrize("n, seed", CASES, ids=IDS)
def test_scaling_costs_by_four_scales_each_optimum(n, seed):
    inst, _, optima, _ = _reference(n, seed)
    scaled = replace(inst, cost=4 * inst.cost, setup=4 * inst.setup,
                     scenarios=4 * inst.scenarios)
    base, got = _optima(scaled)
    for name, value in optima.items():
        _assert_close(got[name], 4 * value)
    _assert_regret_floor(base, got)


@pytest.mark.parametrize("n, seed", CASES, ids=IDS)
def test_max_regret_is_not_negative(n, seed):
    _, base, optima, _ = _reference(n, seed)
    _assert_regret_floor(base, optima)
