import itertools
from dataclasses import replace

import numpy as np
import pytest

from hubloc.formulations import COUPLING_FAMILIES, build_ocu
from hubloc.instance import Instance


def make_toy3(scenarios=((0.0, 0.0, 0.0),), chains=((0, 1), (1, 2)),
              capacity=(20.0, 20.0, 20.0), setup=(100.0, 5.0, 100.0)):
    """Three nodes, one 10-unit flow 0 -> 2, line-shaped costs.

    Small enough that every model can be checked against the closed-form
    route oracle below.
    """
    demand = np.zeros((3, 3))
    demand[0, 2] = 10.0
    cost = np.array([[0.0, 1.0, 2.0],
                     [1.0, 0.0, 1.0],
                     [2.0, 1.0, 0.0]])
    return Instance(n=3, demand=demand, cost=cost,
                    setup=np.array(setup, dtype=float),
                    capacity=np.array(capacity, dtype=float),
                    chi=1.0, alpha=0.5, delta=1.0,
                    scenarios=np.array(scenarios, dtype=float),
                    chains=chains)


@pytest.fixture
def toy3():
    return make_toy3()


def relabel(inst, perm):
    """The same instance with old node ``v`` renamed ``perm[v]``."""
    old = [0] * inst.n
    for v, new in enumerate(perm):
        old[new] = v
    return Instance(
        n=inst.n, demand=inst.demand[old][:, old], cost=inst.cost[old][:, old],
        setup=inst.setup[old], capacity=inst.capacity[old], chi=inst.chi,
        alpha=inst.alpha, delta=inst.delta, scenarios=inst.scenarios[:, old],
        chains=tuple(tuple(sorted(perm[v] for v in ch)) for ch in inst.chains))


def ocu_with_families(inst, baselines, opts, families):
    """:func:`build_ocu` keeping, of the hub-split rows eq15..eq20, only
    those of ``families``; every other row, variable and the objective are
    the full model's."""
    model = build_ocu(inst, baselines, opts)
    drop = set(("eq15",) + COUPLING_FAMILIES) - set(families)
    return replace(model, constraints=[c for c in model.constraints
                                       if c.label.split("[")[0] not in drop])


def route_unit_cost(inst, o, d, k, l, distribution="standard"):
    c = inst.cost
    dist = c[l, d] if distribution == "standard" else c[o, d]
    return inst.chi * c[o, k] + inst.alpha * c[k, l] + inst.delta * dist


def subset_cost(inst, hubs, s, distribution="standard"):
    """Closed-form scenario cost of opening exactly ``hubs``.

    Only valid for single-commodity instances whose flow fits inside any
    single hub's capacity, so the optimal routing is the cheapest (k, l)
    hub pair and no flow splitting is ever needed.
    """
    origins = np.nonzero(inst.demand.sum(axis=1))[0]
    assert len(origins) <= 1, "route oracle needs a single-commodity instance"
    eff = inst.effective_setup(s)
    total = float(sum(eff[k] for k in hubs))
    if len(origins) == 0:
        return total
    o = int(origins[0])
    dests = np.nonzero(inst.demand[o])[0]
    assert len(dests) == 1
    d = int(dests[0])
    flow = inst.demand[o, d]
    if not hubs or all(inst.capacity[k] < flow for k in hubs):
        return float("inf")
    best = min(route_unit_cost(inst, o, d, k, l, distribution)
               for k in hubs for l in hubs)
    return total + flow * best


def brute_force_nc(inst, distribution="standard"):
    """Best hub subset by full enumeration of the route oracle."""
    best = float("inf")
    best_set = None
    for r in range(inst.n + 1):
        for hubs in itertools.combinations(range(inst.n), r):
            c = subset_cost(inst, hubs, 0, distribution)
            if c < best - 1e-12:
                best, best_set = c, hubs
    return best, best_set


def brute_force_max_regret(inst, distribution="standard"):
    """CCU optimum by enumerating hub subsets against exact baselines."""
    subsets = [hubs for r in range(inst.n + 1)
               for hubs in itertools.combinations(range(inst.n), r)]
    baselines = [min(subset_cost(inst, h, s, distribution) for h in subsets)
                 for s in range(inst.num_scenarios)]
    best = float("inf")
    best_set = None
    for hubs in subsets:
        worst = max(subset_cost(inst, hubs, s, distribution) - baselines[s]
                    for s in range(inst.num_scenarios))
        if worst < best - 1e-12:
            best, best_set = worst, hubs
    return best, best_set, baselines
