"""Model builders for the four hub-location formulations.

Naming follows the model family's own constraint numbering, which every
row label carries:

* eq2..eq7    flow balance, capacity and linking rows shared by all models
* eq10        epigraph rows of the worst-case setup-cost model (CC)
* eq12, eq13  regret definition and max-regret rows (CCU)
* eq15..eq22  collaborative/non-collaborative hub split and the big-M
              coupling rows over supply-chain pairs (OCU)

Decision variables: H[k] opens a hub, Z[i,k] is the collection flow from
origin i into hub k, Y[i,k,l] the transfer flow of commodity i across the
hub arc (k,l), X[i,l,j] the distribution flow of commodity i from hub l to
destination j.  The OCU split adds I[k] (collaborative) and T[k]
(non-collaborative) with H = I + T, plus free regret variables Rs[s], R.

The four models share one flow polytope.  ``_flow_block`` builds it (the
H/Z/Y/X columns at fixed offsets and rows eq2..eq7), and each builder only
adds its objective or regret wrapper and, for OCU, the hub split rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .instance import Instance, origin_supply
from .model import BINARY, CONTINUOUS, EQ, GE, LE, LinearModel

INF = float("inf")

COUPLING_FAMILIES = ("eq16", "eq17", "eq18", "eq19", "eq20")


class FormulationError(ValueError):
    """Raised when a builder precondition is not met."""


@dataclass(frozen=True)
class ModelOptions:
    """Switches for the deliberately ambiguous parts of the formulations.

    distribution_cost
        ``standard-Clj`` prices the distribution leg hub-to-destination;
        ``literal-Cij`` prices it origin-to-destination, which makes the
        leg cost independent of the serving hub.
    ocu_objective
        ``as-written`` charges F[k]*T[k] on top of the full effective
        setup for every open hub; ``collaborative-split`` charges the
        effective setup only on collaborative hubs.
    eq20_mode
        ``linearized`` expands the product row into two big-M rows (exact
        for nonnegative flow and binary T); ``omit`` drops the family so
        its redundancy can be probed.
    big_m_mode
        ``per-constraint-tight`` derives the smallest valid deactivation
        bound per row; ``total-demand`` uses the total flow volume.
    """

    distribution_cost: str = "standard-Clj"
    ocu_objective: str = "as-written"
    eq20_mode: str = "linearized"
    big_m_mode: str = "per-constraint-tight"

    def __post_init__(self):
        checks = {
            "distribution_cost": ("literal-Cij", "standard-Clj"),
            "ocu_objective": ("as-written", "collaborative-split"),
            "eq20_mode": ("omit", "linearized"),
            "big_m_mode": ("total-demand", "per-constraint-tight"),
        }
        for name, allowed in checks.items():
            if getattr(self, name) not in allowed:
                raise FormulationError(
                    f"{name} must be one of {allowed}, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# shared pieces


def flow_cost_pairs(inst: Instance, opts: ModelOptions) -> list[tuple[str, float]]:
    """(variable name, objective coefficient) for all flow variables, in
    the order the flow block adds their columns."""
    n, C = inst.n, inst.cost
    pairs = []
    for i in range(n):
        for k in range(n):
            pairs.append((f"Z[{i},{k}]", inst.chi * C[i, k]))
    for i in range(n):
        for k in range(n):
            for l in range(n):
                pairs.append((f"Y[{i},{k},{l}]", inst.alpha * C[k, l]))
    for i in range(n):
        for l in range(n):
            for j in range(n):
                cij = C[l, j] if opts.distribution_cost == "standard-Clj" else C[i, j]
                pairs.append((f"X[{i},{l},{j}]", inst.delta * cij))
    return pairs


class _FlowBlock(NamedTuple):
    """A model holding H[k], the flows and rows eq2..eq7, with the column
    index of every H/Z/Y/X variable (nested lists: ``Y[i][k][l]``) and the
    flow cost terms."""

    model: LinearModel
    H: list[int]
    Z: list[list[int]]
    Y: list[list[list[int]]]
    X: list[list[list[int]]]
    flow_costs: list[tuple[int, float]]

    def cost_terms(self, setup: np.ndarray, setup_cols=None) -> list[tuple[int, float]]:
        """Setup cost on ``setup_cols`` (default H) plus every flow cost."""
        cols = self.H if setup_cols is None else setup_cols
        return [(j, float(f)) for j, f in zip(cols, setup)] + self.flow_costs


def _unit(cols, coeff: float = 1.0) -> list[tuple[int, float]]:
    return [(j, coeff) for j in cols]


def _flow_block(inst: Instance, opts: ModelOptions) -> _FlowBlock:
    """New model with columns H[k] = k, Z[i,k] = n + i*n + k,
    Y[i,k,l] = n + n^2 + (i*n + k)*n + l and
    X[i,l,j] = n + n^2 + n^3 + (i*n + l)*n + j, and rows eq2..eq7 (supply,
    demand, capacity, conservation, linking).  Wrappers append their own
    columns and rows after these."""
    n, W = inst.n, inst.demand
    model = LinearModel()
    for k in range(n):
        model.add_variable(f"H[{k}]", BINARY)
    pairs = flow_cost_pairs(inst, opts)
    for name, _ in pairs:
        model.add_variable(name, CONTINUOUS, 0.0, INF)
    cols = np.arange(n, n + len(pairs))
    H = list(range(n))
    Z = cols[:n * n].reshape(n, n).tolist()
    Y = cols[n * n:n * n + n ** 3].reshape(n, n, n).tolist()
    X = cols[n * n + n ** 3:].reshape(n, n, n).tolist()
    nodes = range(n)
    supply = [origin_supply(inst, i) for i in nodes]
    inflow = [float(W[:, j].sum()) for j in nodes]
    for i in nodes:
        model.add_constraint(f"eq2[i={i}]", _unit(Z[i]), EQ, supply[i])
    for i in nodes:
        for j in nodes:
            model.add_constraint(f"eq3[i={i},j={j}]",
                                 _unit([X[i][l][j] for l in nodes]), EQ, W[i, j])
    for k in nodes:
        model.add_constraint(f"eq4[k={k}]",
                             _unit([Z[i][k] for i in nodes])
                             + [(H[k], -inst.capacity[k])], LE, 0.0)
    for i in nodes:
        for k in nodes:
            terms = (_unit(Y[i][k]) + _unit(X[i][k])
                     + _unit([Y[i][l][k] for l in nodes], -1.0) + [(Z[i][k], -1.0)])
            model.add_constraint(f"eq5[i={i},k={k}]", terms, EQ, 0.0)
    for i in nodes:
        for k in nodes:
            model.add_constraint(f"eq6[i={i},k={k}]",
                                 [(Z[i][k], 1.0), (H[k], -supply[i])], LE, 0.0)
    for l in nodes:
        for j in nodes:
            terms = _unit([X[i][l][j] for i in nodes]) + [(H[l], -inflow[j])]
            model.add_constraint(f"eq7[l={l},j={j}]", terms, LE, 0.0)
    return _FlowBlock(model, H, Z, Y, X,
                      [(j, float(c)) for j, (_, c) in zip(cols.tolist(), pairs)])


def _add_hub_split(model: LinearModel, n: int) -> tuple[list[int], list[int]]:
    """Binary I[k] (collaborative) then T[k] (non-collaborative) columns."""
    return ([model.add_variable(f"I[{k}]", BINARY) for k in range(n)],
            [model.add_variable(f"T[{k}]", BINARY) for k in range(n)])


def _require_two_chains(inst: Instance) -> None:
    if len(inst.chains) < 2:
        raise FormulationError(
            "at least two supply chains required for the collaboration model")


def _regret_block(inst: Instance, baselines, opts: ModelOptions, split: bool):
    """Flow block minimizing R over free Rs[s] and R, with regret rows eq12
    (eq21 with ``split``: I[k], T[k] follow R and F[k]*T[k] is charged) and
    rows eq13 R >= Rs[s].  Returns the block and the (I, T) columns or None."""
    base = [float(v) for v in baselines]
    if len(base) != inst.num_scenarios:
        raise FormulationError(
            f"got {len(base)} baselines for {inst.num_scenarios} scenarios")
    fb = _flow_block(inst, opts)
    model = fb.model
    rs = [model.add_variable(f"Rs[{s}]", CONTINUOUS, -INF, INF)
          for s in range(len(base))]
    r_var = model.add_variable("R", CONTINUOUS, -INF, INF)
    label, setup_cols, fixed, hub_split = "eq12", fb.H, [], None
    if split:
        I, T = hub_split = _add_hub_split(model, inst.n)
        label = "eq21"
        if opts.ocu_objective == "collaborative-split":
            setup_cols = I
        fixed = [(j, float(f)) for j, f in zip(T, inst.setup)]
    for s, b in enumerate(base):
        terms = fb.cost_terms(inst.effective_setup(s), setup_cols) + fixed
        model.add_constraint(f"{label}[s={s}]", terms + [(rs[s], -1.0)], EQ, b)
    for s in range(len(base)):
        model.add_constraint(f"eq13[s={s}]", [(r_var, 1.0), (rs[s], -1.0)], GE, 0.0)
    model.set_objective([(r_var, 1.0)])
    return fb, hub_split


def coupling_patterns(inst: Instance) -> dict[str, list[tuple]]:
    """Index tuples for each big-M family, expanded over all ordered pairs
    of distinct chains and deduplicated."""
    chains = [sorted(set(ch)) for ch in inst.chains]
    pairs = [(a, b) for a in range(len(chains)) for b in range(len(chains))
             if a != b]
    eq16, eq17, eq18, eq19, eq20 = set(), set(), set(), set(), set()
    for a, b in pairs:
        ca, cb = chains[a], chains[b]
        for i in ca:
            for k in cb:
                eq16.add((i, k))
            for k in cb:
                for l in cb:
                    eq20.add((i, k, l))
            for j in ca:
                for l in cb:
                    eq17.add((i, j, l))
            for k in ca:
                for l in cb:
                    eq18.add((i, k, l))
            for l in ca:
                for k in cb:
                    eq19.add((i, k, l))
    return {"eq16": sorted(eq16), "eq17": sorted(eq17), "eq18": sorted(eq18),
            "eq19": sorted(eq19), "eq20": sorted(eq20)}


def compute_big_m(inst: Instance, constraint: str, indices: tuple,
                  mode: str = "per-constraint-tight") -> float:
    """Deactivation bound M for one coupling row.

    Tight mode returns the smallest bound the flow variable can reach in a
    cycle-free feasible point: the origin supply O_i for collection and
    transfer rows, the single demand W[i, j] for distribution rows.
    """
    if constraint not in COUPLING_FAMILIES:
        raise ValueError(f"unknown coupling family {constraint!r}")
    if mode == "total-demand":
        return float(inst.demand.sum())
    if mode != "per-constraint-tight":
        raise ValueError(f"unknown big-M mode {mode!r}")
    if constraint == "eq17":
        i, j, _ = indices
        return float(inst.demand[i, j])
    i = indices[0]
    return origin_supply(inst, i)


def _add_coupling_rows(fb: _FlowBlock, I, T, inst: Instance,
                       opts: ModelOptions) -> None:
    model = fb.model
    patterns = coupling_patterns(inst)

    def row(label, flow, hub, family, idx):
        m = compute_big_m(inst, family, idx, opts.big_m_mode)
        model.add_constraint(label, [(flow, 1.0), (T[hub], m)], LE, m)

    for k in range(inst.n):
        model.add_constraint(f"eq15[k={k}]",
                             [(fb.H[k], 1.0), (I[k], -1.0), (T[k], -1.0)],
                             EQ, 0.0)
    for i, k in patterns["eq16"]:
        row(f"eq16[i={i},k={k}]", fb.Z[i][k], k, "eq16", (i, k))
    for i, j, l in patterns["eq17"]:
        row(f"eq17[i={i},j={j},l={l}]", fb.X[i][l][j], l, "eq17", (i, j, l))
    for i, k, l in patterns["eq18"]:
        row(f"eq18[i={i},k={k},l={l}]", fb.Y[i][k][l], l, "eq18", (i, k, l))
    for i, k, l in patterns["eq19"]:
        row(f"eq19[i={i},k={k},l={l}]", fb.Y[i][k][l], k, "eq19", (i, k, l))
    if opts.eq20_mode == "linearized":
        for i, k, l in patterns["eq20"]:
            for side, hub in (("k", k), ("l", l)):
                row(f"eq20[i={i},k={k},l={l},side={side}]", fb.Y[i][k][l], hub,
                    "eq20", (i, k, l))


# ---------------------------------------------------------------------------
# builders: the flow block under each model's objective or regret wrapper


def _build_priced(inst: Instance, opts: ModelOptions, setup) -> LinearModel:
    fb = _flow_block(inst, opts)
    fb.model.set_objective(fb.cost_terms(setup))
    return fb.model


def build_nc(inst: Instance, opts: ModelOptions = ModelOptions()) -> LinearModel:
    """Deterministic base model: eq2..eq7 with base setup costs."""
    return _build_priced(inst, opts, inst.setup)


def build_scenario_deterministic(inst: Instance, s: int,
                                 opts: ModelOptions = ModelOptions()) -> LinearModel:
    """Base model priced with the scenario-s effective setup F + sigma^s."""
    if not (0 <= s < inst.num_scenarios):
        raise FormulationError(f"scenario index {s} out of range")
    return _build_priced(inst, opts, inst.effective_setup(s))


def build_cc(inst: Instance, opts: ModelOptions = ModelOptions()) -> LinearModel:
    """Worst-case model: minimize t subject to t >= scenario cost for all s."""
    fb = _flow_block(inst, opts)
    t = fb.model.add_variable("t", CONTINUOUS, -INF, INF)
    for s in range(inst.num_scenarios):
        terms = fb.cost_terms(inst.effective_setup(s)) + [(t, -1.0)]
        fb.model.add_constraint(f"eq10[s={s}]", terms, LE, 0.0)
    fb.model.set_objective([(t, 1.0)])
    return fb.model


def build_ccu(inst: Instance, baselines,
              opts: ModelOptions = ModelOptions()) -> LinearModel:
    """Max-regret model: minimize R with R >= scenario cost - baseline."""
    return _regret_block(inst, baselines, opts, split=False)[0].model


def build_ocu(inst: Instance, baselines,
              opts: ModelOptions = ModelOptions()) -> LinearModel:
    """Max-regret model with the collaborative/non-collaborative hub split
    and big-M rows blocking cross-chain use of non-collaborative hubs."""
    _require_two_chains(inst)
    fb, (I, T) = _regret_block(inst, baselines, opts, split=True)
    _add_coupling_rows(fb, I, T, inst, opts)
    return fb.model


def build_coupling_polytope(inst: Instance,
                            opts: ModelOptions = ModelOptions()) -> LinearModel:
    """Flow polytope eq2..eq7 plus the hub-split rows eq15..eq20, with no
    regret machinery and a zero objective.  As in :func:`build_ocu`, eq20
    is built exactly when ``opts.eq20_mode`` is ``linearized``.

    Used to check fixed split designs and by redundancy probes that
    maximize a single flow variable under a fixed binary pattern.
    """
    _require_two_chains(inst)
    fb = _flow_block(inst, opts)
    I, T = _add_hub_split(fb.model, inst.n)
    _add_coupling_rows(fb, I, T, inst, opts)
    return fb.model
