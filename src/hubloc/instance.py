"""Problem data model: validation, JSON file format, random generation.

An instance describes a capacitated multiple-allocation hub location
problem over ``n`` nodes.  Every origin-destination flow is routed
origin -> hub -> hub -> destination (the two hubs may coincide), with
per-leg discount factors ``chi`` (collection), ``alpha`` (transfer) and
``delta`` (distribution).  Setup costs vary by scenario through additive
supplements, and the node set is covered by one or more supply-chain
subsets used by the collaboration-restricted formulation.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np


class ParseError(ValueError):
    """Raised when instance file content is not well-formed."""


class ValidationError(ValueError):
    """Raised when instance data violates a model invariant."""


class ConfigError(ValueError):
    """Raised when a generator configuration is inconsistent."""


_FILE_KEYS = ("n", "demand", "cost", "setup", "capacity", "chi", "alpha",
              "delta", "scenarios", "chains")
_ARRAYS = ("demand", "cost", "setup", "capacity", "scenarios")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem data.

    Attributes
    ----------
    n : int
        Node count.
    demand : (n, n) array
        Flow W[i, j] >= 0 from origin i to destination j.
    cost : (n, n) array
        Unit transport cost C[i, j] >= 0 with zero diagonal.
    setup : (n,) array
        Base hub setup cost F[k] >= 0.
    capacity : (n,) array
        Hub collection capacity Gamma[k] > 0.
    chi, alpha, delta : float
        Collection / transfer / distribution discount factors in (0, 10].
    scenarios : (S, n) array
        Per-scenario setup supplements sigma[s, k]; the effective setup
        cost under scenario s is F[k] + sigma[s, k] and must stay >= 0.
    chains : tuple of tuples
        Supply-chain node subsets; non-empty, pairwise distinct, union
        covers all nodes.  Subsets may overlap.
    """

    n: int
    demand: np.ndarray
    cost: np.ndarray
    setup: np.ndarray
    capacity: np.ndarray
    chi: float
    alpha: float
    delta: float
    scenarios: np.ndarray
    chains: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for key in _ARRAYS:
            object.__setattr__(self, key, _readonly(getattr(self, key)))
        # the file format's rules: integer chain entries and real discount
        # factors, neither of them a bool
        for ch in self.chains:
            for v in ch:
                if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                    raise ValidationError(
                        f"chain entries must be integers, not {v!r}")
        for key in ("chi", "alpha", "delta"):
            v = getattr(self, key)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValidationError(
                    f"discount factors must be real numbers, not {v!r}")
            object.__setattr__(self, key, float(v))
        object.__setattr__(self, "chains",
                           tuple(tuple(int(v) for v in ch) for ch in self.chains))
        _validate(self)

    @property
    def num_scenarios(self) -> int:
        return self.scenarios.shape[0]

    def effective_setup(self, s: int) -> np.ndarray:
        """Setup cost vector F + sigma^s for scenario s."""
        return self.setup + self.scenarios[s]

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.n == other.n
                and all(np.array_equal(getattr(self, key), getattr(other, key))
                        for key in _ARRAYS)
                and self.chi == other.chi
                and self.alpha == other.alpha
                and self.delta == other.delta
                and self.chains == other.chains)


def _check_node_count(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError("node count must be a positive integer")


def _validate(inst: Instance) -> None:
    n = inst.n
    _check_node_count(n)
    if inst.demand.shape != (n, n):
        raise ValidationError("demand matrix must be n x n")
    if inst.cost.shape != (n, n):
        raise ValidationError("cost matrix must be n x n")
    if inst.setup.shape != (n,):
        raise ValidationError("setup vector must have length n")
    if inst.capacity.shape != (n,):
        raise ValidationError("capacity vector must have length n")
    if inst.scenarios.ndim != 2 or inst.scenarios.shape[1] != n:
        raise ValidationError("each scenario supplement vector must have length n")
    if inst.scenarios.shape[0] < 1:
        raise ValidationError("at least one scenario required")
    for a in (inst.demand, inst.cost, inst.setup, inst.capacity, inst.scenarios):
        if not np.all(np.isfinite(a)):
            raise ValidationError("all numeric entries must be finite")
    for v in (inst.chi, inst.alpha, inst.delta):
        if not np.isfinite(v) or not (0.0 < v <= 10.0):
            raise ValidationError("discount factors must lie in (0, 10]")
    if np.any(inst.demand < 0):
        raise ValidationError("demand must be nonnegative")
    if np.any(inst.cost < 0):
        raise ValidationError("cost must be nonnegative")
    if np.any(np.diagonal(inst.cost) != 0):
        raise ValidationError("cost diagonal must be zero")
    if np.any(inst.setup < 0):
        raise ValidationError("setup cost must be nonnegative")
    if np.any(inst.capacity <= 0):
        raise ValidationError("capacity must be positive")
    if np.any(inst.setup + inst.scenarios < 0):
        raise ValidationError("effective setup F + sigma must be nonnegative")
    if len(inst.chains) < 1:
        raise ValidationError("at least one chain required")
    seen = set()
    covered = set()
    for ch in inst.chains:
        if len(ch) == 0:
            raise ValidationError("chains must be non-empty")
        members = frozenset(ch)
        if len(members) != len(ch):
            raise ValidationError("chain contains a repeated node")
        if any(v < 0 or v >= n for v in members):
            raise ValidationError("chain node index out of range")
        if members in seen:
            raise ValidationError("chains must be pairwise distinct")
        seen.add(members)
        covered |= members
    if covered != set(range(n)):
        raise ValidationError("chain union must cover all nodes")


def origin_supply(inst: Instance, i: int) -> float:
    """Total supply O_i = sum_j W[i, j] leaving origin i."""
    if not (0 <= i < inst.n):
        raise ValueError(f"node index {i} out of range")
    return float(inst.demand[i].sum())


# ---------------------------------------------------------------------------
# file format


def load_instance(text: str) -> Instance:
    """Parse instance-file content (UTF-8 JSON) into a validated Instance."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise ParseError("top-level value must be a JSON object")
    unknown = set(data) - set(_FILE_KEYS)
    if unknown:
        raise ParseError(f"unknown key {sorted(unknown)[0]!r}")
    missing = set(_FILE_KEYS) - set(data)
    if missing:
        raise ParseError(f"missing key {sorted(missing)[0]!r}")
    if not isinstance(data["n"], int) or isinstance(data["n"], bool):
        raise ParseError("'n' must be an integer")
    n = data["n"]
    _check_node_count(n)   # before the shapes, which it decides

    def matrix(key):
        v = data[key]
        if (not isinstance(v, list) or len(v) != n
                or any(not isinstance(r, list) or len(r) != n for r in v)):
            raise ParseError(f"'{key}' must be {n} arrays of {n} numbers")
        return _num_array(v, key)

    def vector(key):
        v = data[key]
        if not isinstance(v, list) or len(v) != n:
            raise ParseError(f"'{key}' must be an array of {n} numbers")
        return _num_array(v, key)

    demand = matrix("demand")
    cost = matrix("cost")
    setup = vector("setup")
    capacity = vector("capacity")
    scalars = {}
    for key in ("chi", "alpha", "delta"):
        v = data[key]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ParseError(f"'{key}' must be a number")
        scalars[key] = float(_num_array(v, key))
    if not isinstance(data["scenarios"], list):
        raise ParseError("'scenarios' must be an array of objects")
    supplements = []
    for s, item in enumerate(data["scenarios"]):
        if not isinstance(item, dict) or set(item) != {"supplement"}:
            raise ParseError(f"scenario {s} must be an object with a single "
                             f"'supplement' key")
        sup = item["supplement"]
        if not isinstance(sup, list) or len(sup) != n:
            raise ParseError(f"scenario {s} supplement must be an array of {n} numbers")
        supplements.append(_num_array(sup, "supplement"))
    if not supplements:
        raise ValidationError("at least one scenario required")
    if not isinstance(data["chains"], list):
        raise ParseError("'chains' must be an array of arrays of integers")
    chains = []
    for a, ch in enumerate(data["chains"]):
        if (not isinstance(ch, list)
                or any(not isinstance(v, int) or isinstance(v, bool) for v in ch)):
            raise ParseError(f"chain {a} must be an array of integers")
        chains.append(tuple(ch))
    return Instance(n=n, demand=demand, cost=cost, setup=setup,
                    capacity=capacity, scenarios=np.array(supplements),
                    chains=tuple(chains), **scalars)


def _num_array(v, key) -> np.ndarray:
    arr = np.array(v, dtype=object)
    flat = arr.ravel()
    for x in flat:
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ParseError(f"'{key}' contains a non-numeric entry")
    try:
        return np.array(v, dtype=float)
    except OverflowError:
        raise ParseError(f"'{key}' holds an integer too large for a float") from None


def save_instance(inst: Instance) -> str:
    """Serialize to the JSON file format; load(save(x)) == x bit-exactly."""
    payload = {
        "n": inst.n,
        "demand": [list(row) for row in inst.demand],
        "cost": [list(row) for row in inst.cost],
        "setup": list(inst.setup),
        "capacity": list(inst.capacity),
        "chi": inst.chi,
        "alpha": inst.alpha,
        "delta": inst.delta,
        "scenarios": [{"supplement": list(row)} for row in inst.scenarios],
        "chains": [list(ch) for ch in inst.chains],
    }
    return json.dumps(payload, indent=2) + "\n"


def instance_fingerprint(inst: Instance) -> str:
    """Stable hex digest of the canonical file serialization."""
    import hashlib
    return hashlib.sha256(save_instance(inst).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# random generation


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape knobs for seeded random instances.

    ``capacity_tightness`` is the fraction of total demand a single hub can
    absorb; values below 1/n are raised to 1/n so that opening every hub is
    always capacity-feasible.  ``overlap_fraction`` = 0 makes the chains a
    partition of the node set.
    """

    seed: int
    n: int
    chain_count: int = 2
    overlap_fraction: float = 0.0
    scenario_count: int = 1
    demand_density: float = 0.6
    cost_mode: str = "euclidean-from-random-points"
    capacity_tightness: float = 0.6

    def __post_init__(self):
        for name in ("seed", "n", "chain_count", "scenario_count"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)):
                raise ConfigError(f"{name} must be an integer, not {value!r}")
            # a Python int even when given a numpy one, as Instance.n must be
            object.__setattr__(self, name, int(value))
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.n < 1:
            raise ConfigError("n must be positive")
        if self.chain_count < 1:
            raise ConfigError("chain_count must be at least 1")
        if self.chain_count > self.n:
            raise ConfigError("chain_count exceeds node count")
        if not (0.0 <= self.overlap_fraction <= 1.0):
            raise ConfigError("overlap_fraction must lie in [0, 1]")
        if self.scenario_count < 1:
            raise ConfigError("scenario_count must be at least 1")
        if not (0.0 < self.demand_density <= 1.0):
            raise ConfigError("demand_density must lie in (0, 1]")
        if self.cost_mode not in ("euclidean-from-random-points", "uniform-random"):
            raise ConfigError(f"unknown cost_mode {self.cost_mode!r}")
        if not (0.0 < self.capacity_tightness <= 1.0):
            raise ConfigError("capacity_tightness must lie in (0, 1]")


def _ceil3(x: np.ndarray) -> np.ndarray:
    return np.ceil(x * 1000.0) / 1000.0


def generate_instance(cfg: GeneratorConfig) -> Instance:
    """Deterministically generate a valid instance from a seeded config."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n

    mask = rng.random((n, n)) < cfg.demand_density
    demand = np.where(mask, np.round(rng.uniform(1.0, 10.0, (n, n)), 3), 0.0)
    np.fill_diagonal(demand, 0.0)

    if cfg.cost_mode == "euclidean-from-random-points":
        pts = rng.uniform(0.0, 100.0, (n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        cost = np.round(np.sqrt((diff ** 2).sum(axis=2)) / 10.0, 3)
    else:
        cost = np.round(rng.uniform(1.0, 20.0, (n, n)), 3)
    np.fill_diagonal(cost, 0.0)

    setup = np.round(rng.uniform(20.0, 120.0, n), 3)

    total = demand.sum()
    if total > 0:
        base = max(cfg.capacity_tightness, 1.0 / n) * total
        capacity = _ceil3(base * rng.uniform(1.0, 1.25, n))
    else:
        capacity = np.ones(n)

    chi = 1.0
    alpha = round(rng.uniform(0.2, 0.8), 3)
    delta = 1.0

    scenarios = np.round(rng.uniform(0.0, 0.5, (cfg.scenario_count, n)) * setup, 3)

    chains = _make_chains(rng, n, cfg.chain_count, cfg.overlap_fraction)

    return Instance(n=n, demand=demand, cost=cost, setup=setup,
                    capacity=capacity, chi=chi, alpha=alpha, delta=delta,
                    scenarios=scenarios, chains=chains)


def _make_chains(rng, n, chain_count, overlap_fraction):
    perm = [int(v) for v in rng.permutation(n)]
    sizes = [n // chain_count] * chain_count
    for i in range(n % chain_count):
        sizes[i] += 1
    chains, start = [], 0
    for size in sizes:
        chains.append(sorted(perm[start:start + size]))
        start += size

    extra = int(round(overlap_fraction * n))
    for _ in range(extra):
        candidates = []
        for a, ch in enumerate(chains):
            members = set(ch)
            for v in range(n):
                if v in members:
                    continue
                widened = frozenset(members | {v})
                if all(widened != frozenset(other)
                       for b, other in enumerate(chains) if b != a):
                    candidates.append((a, v))
        if not candidates:
            break
        a, v = candidates[int(rng.integers(len(candidates)))]
        chains[a] = sorted(set(chains[a]) | {v})
    return tuple(tuple(ch) for ch in chains)
