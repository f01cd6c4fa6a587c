"""Metamorphic relations of the hub models.

Each relation changes an instance in a way whose effect on the optima is
known and compares optima and verdicts only, never flows or
``nodes_explored``: a tied optimum may be reported at another vertex, or
found after another number of nodes, once the data change.  Instances:
n=3 and n=4, generator seeds 0-2, two scenarios.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from conftest import relabel
from hubloc.claims import CLAIM_CHECKS, SolveMemo
from hubloc.formulations import build_cc, build_ccu, build_nc, build_ocu
from hubloc.instance import GeneratorConfig, generate_instance
from hubloc.milp import solve_milps, unwrap
from hubloc.regret import compute_baselines

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


@pytest.mark.parametrize("n, seed", CASES, ids=IDS)
def test_a_copy_of_a_scenario_keeps_max_regret(n, seed):
    inst, _, optima, _ = _reference(n, seed)
    doubled = replace(inst, scenarios=np.vstack([inst.scenarios,
                                                 inst.scenarios[:1]]))
    base = compute_baselines(doubled)
    assert len(base) == 3
    solved = [unwrap(o) for o in solve_milps([build_ccu(doubled, base),
                                              build_ocu(doubled, base)])]
    got = dict(zip(("ccu", "ocu"), (sol.objective for sol in solved)))
    for name, value in got.items():
        _assert_close(value, optima[name])
    _assert_regret_floor(base, got)


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
