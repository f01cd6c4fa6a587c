import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hubloc.instance import (ConfigError, GeneratorConfig, Instance,
                             ParseError, ValidationError, generate_instance,
                             load_instance, origin_supply, save_instance)

MINIMAL = json.dumps({
    "n": 1,
    "demand": [[0.0]],
    "cost": [[0.0]],
    "setup": [1.0],
    "capacity": [5.0],
    "chi": 1.0, "alpha": 0.5, "delta": 1.0,
    "scenarios": [{"supplement": [0.0]}],
    "chains": [[0]],
})


def test_minimal_instance_loads():
    inst = load_instance(MINIMAL)
    assert inst.n == 1
    assert inst.num_scenarios == 1
    assert inst.chains == ((0,),)


def test_zero_capacity_rejected():
    data = json.loads(MINIMAL)
    data["capacity"] = [0.0]
    with pytest.raises(ValidationError, match="capacity must be positive"):
        load_instance(json.dumps(data))


def test_chain_union_must_cover():
    data = json.loads(MINIMAL)
    data.update(n=3, demand=[[0.0] * 3] * 3, cost=[[0.0] * 3] * 3,
                setup=[1.0] * 3, capacity=[5.0] * 3,
                scenarios=[{"supplement": [0.0] * 3}], chains=[[0], [1]])
    data["cost"] = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    with pytest.raises(ValidationError, match="chain union must cover all nodes"):
        load_instance(json.dumps(data))


@pytest.mark.parametrize("mutate,exc,match", [
    (lambda d: [d], ParseError, "top-level value must be a JSON object"),
    (lambda d: d.update(bogus=1), ParseError, "unknown key"),
    (lambda d: d.__delitem__("setup"), ParseError, "missing key"),
    (lambda d: d.update(n="one"), ParseError, "'n' must be an integer"),
    (lambda d: d.update(n=True), ParseError, "must be an integer"),
    (lambda d: d.update(n=-1), ValidationError,
     "node count must be a positive integer"),
    (lambda d: d.update(n=0), ValidationError, "node count"),
    (lambda d: d.update(demand=[[0.0, 0.0]]), ParseError,
     "'demand' must be 1 arrays of 1 numbers"),
    (lambda d: d.update(cost=[0.0]), ParseError,
     "'cost' must be 1 arrays of 1 numbers"),
    (lambda d: d.update(capacity=[5.0, 5.0]), ParseError,
     "'capacity' must be an array of 1 numbers"),
    (lambda d: d.update(alpha="half"), ParseError, "'alpha' must be a number"),
    (lambda d: d.update(delta=True), ParseError, "'delta' must be a number"),
    (lambda d: d.update(scenarios={"supplement": [0.0]}), ParseError,
     "'scenarios' must be an array of objects"),
    (lambda d: d.update(chains=[0]), ParseError,
     "chain 0 must be an array of integers"),
    (lambda d: d.update(chains={"a": [0]}), ParseError,
     "'chains' must be an array of arrays of integers"),
    (lambda d: d.update(scenarios=[{"supplement": []}]), ParseError,
     "scenario 0 supplement must be an array of 1 numbers"),
    (lambda d: d.update(scenarios=[[0.0]]), ParseError,
     "scenario 0 must be an object"),
    (lambda d: d.update(setup=["1"]), ParseError,
     "'setup' contains a non-numeric entry"),
    (lambda d: d.update(cost=[[None]]), ParseError,
     "'cost' contains a non-numeric entry"),
    (lambda d: d.update(scenarios=[{"supplement": [False]}]), ParseError,
     "'supplement' contains a non-numeric entry"),
    (lambda d: d.update(scenarios=[]), ValidationError,
     "at least one scenario required"),
    (lambda d: d.update(chains=[]), ValidationError,
     "at least one chain required"),
    (lambda d: d.update(chains=[[0, 0]]), ValidationError, "repeated node"),
    (lambda d: d.update(chains=[[0, 1]]), ValidationError,
     "chain node index out of range"),
    (lambda d: d.update(chains=[[-1, 0]]), ValidationError,
     "index out of range"),
    (lambda d: d.update(cost=[[1.0]]), ValidationError,
     "cost diagonal must be zero"),
    (lambda d: d.update(cost=[[-1.0]]), ValidationError,
     "cost must be nonnegative"),
    (lambda d: d.update(capacity=[float("inf")]), ValidationError,
     "all numeric entries must be finite"),
    (lambda d: d.update(demand=[[float("nan")]]), ValidationError,
     "must be finite"),
    (lambda d: d.update(alpha=float("inf")), ValidationError,
     "discount factors"),
    (lambda d: d.update(chains=[["a"]]), ParseError, "array of integers"),
    (lambda d: d.update(scenarios=[{"supplement": [0.0], "p": 0.5}]),
     ParseError, "single"),
    (lambda d: d.update(setup=[-1.0]), ValidationError, "setup"),
    (lambda d: d.update(chi=0.0), ValidationError, "discount"),
    (lambda d: d.update(demand=[[-2.0]]), ValidationError, "demand"),
    (lambda d: d.update(scenarios=[{"supplement": [-2.0]}]),
     ValidationError, "effective setup"),
    (lambda d: d.update(chains=[[0], [0]]), ValidationError, "distinct"),
    (lambda d: d.update(chains=[[]]), ValidationError, "non-empty"),
    (lambda d: d.update(chi=10**400), ParseError,
     "'chi' holds an integer too large for a float"),
    (lambda d: d.update(demand=[[10**400]]), ParseError,
     "'demand' holds an integer too large for a float"),
])
def test_bad_files_rejected(mutate, exc, match):
    """``mutate`` edits the minimal file in place, or returns a new one."""
    data = json.loads(MINIMAL)
    replaced = mutate(data)
    with pytest.raises(exc, match=match):
        load_instance(json.dumps(data if replaced is None else replaced))


# Any JSON value, with integers beyond float range among the leaves.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3)
    | st.integers() | st.integers(2**1024, 10**400)
    | st.integers(-10**400, -2**1024),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(json.loads(MINIMAL))), value=_JSON_VALUES)
@example(key="chi", value=10**400)
@example(key="capacity", value=[-10**400])
def test_any_value_of_one_key_loads_or_raises_a_typed_error(key, value):
    data = json.loads(MINIMAL)
    data[key] = value
    try:
        load_instance(json.dumps(data))
    except (ParseError, ValidationError):
        pass


def _minimal_fields(**changes):
    fields = dict(n=1, demand=np.zeros((1, 1)), cost=np.zeros((1, 1)),
                  setup=np.ones(1), capacity=np.full(1, 5.0), chi=1.0,
                  alpha=0.5, delta=1.0, scenarios=np.zeros((1, 1)),
                  chains=((0,),))
    fields.update(changes)
    return fields


@pytest.mark.parametrize("changes,match", [
    (dict(n=1.0), "node count must be a positive integer"),
    (dict(n=True), "node count must be a positive"),
    (dict(n=0), "node count"),
    (dict(demand=np.zeros((1, 2))), "demand matrix must be n x n"),
    (dict(cost=np.zeros(1)), "cost matrix must be n x n"),
    (dict(setup=np.ones((1, 1))), "setup vector must have length n"),
    (dict(capacity=np.ones(2)), "capacity vector must have length n"),
    (dict(scenarios=np.zeros(1)),
     "each scenario supplement vector must have length n"),
    (dict(scenarios=np.zeros((1, 2))),
     "each scenario supplement vector must have length n"),
    (dict(scenarios=np.zeros((0, 1))), "at least one scenario required"),
])
def test_constructor_rejects_bad_shapes(changes, match):
    assert Instance(**_minimal_fields()).n == 1
    with pytest.raises(ValidationError, match=match):
        Instance(**_minimal_fields(**changes))


@pytest.mark.parametrize("changes", [
    dict(chains=((0.7,),)), dict(chains=((1.0,),)), dict(chains=((True,),)),
    dict(chains=(("0",),)), dict(chains=((np.float64(0.0),),)),
    dict(chi=True), dict(chi="1"), dict(alpha=None), dict(delta=np.True_),
    dict(alpha=1 + 0j)],
    ids=["chain-fraction", "chain-float", "chain-bool", "chain-string",
         "chain-numpy-float", "chi-bool", "chi-string", "alpha-none",
         "delta-numpy-bool", "alpha-complex"])
def test_constructor_rejects_what_the_file_format_rejects(changes):
    # a fractional chain entry was truncated, chi=True saved as
    # "chi": true, which load_instance rejects, and chi="1" failed in numpy
    (key, value), = changes.items()
    what = "chain entries must be integers" if key == "chains" else \
        "discount factors must be real numbers"
    with pytest.raises(ValidationError, match=what):
        Instance(**_minimal_fields(**changes))


def test_constructor_takes_numpy_numbers_and_stores_floats():
    inst = Instance(**_minimal_fields(
        chi=np.float64(1.0), alpha=np.float32(0.5), delta=np.int64(1),
        chains=((np.int64(0),),)))
    assert [type(inst.chi), type(inst.alpha), type(inst.delta)] == [float] * 3
    assert (inst.chi, inst.alpha, inst.delta) == (1.0, 0.5, 1.0)
    assert type(inst.chains[0][0]) is int
    assert load_instance(save_instance(inst)) == inst
    assert save_instance(inst) == save_instance(
        Instance(**_minimal_fields(delta=1.0)))


@pytest.mark.parametrize("changes,match", [
    (dict(n=0), "n must be positive"),
    (dict(chain_count=0), "chain_count must be at least 1"),
    (dict(overlap_fraction=-0.1), r"overlap_fraction must lie in \[0, 1\]"),
    (dict(overlap_fraction=1.5), r"overlap_fraction must lie in \[0, 1\]"),
    (dict(scenario_count=0), "scenario_count must be at least 1"),
    (dict(demand_density=0.0), r"demand_density must lie in \(0, 1\]"),
    (dict(demand_density=1.5), r"demand_density must lie in \(0, 1\]"),
    (dict(cost_mode="manhattan"), "unknown cost_mode 'manhattan'"),
    (dict(capacity_tightness=0.0), r"capacity_tightness must lie in \(0, 1\]"),
    (dict(capacity_tightness=1.5),
     r"capacity_tightness must lie in \(0, 1\]"),
])
def test_generator_config_range_checks(changes, match):
    with pytest.raises(ConfigError, match=match):
        GeneratorConfig(**{"seed": 0, "n": 3, **changes})


@pytest.mark.parametrize("changes", [
    dict(n=4.0), dict(scenario_count=2.0), dict(chain_count=2.0),
    dict(seed=True), dict(seed=1.5), dict(n="4"), dict(chain_count=None)],
    ids=["n-float", "scenario_count-float", "chain_count-float", "seed-bool",
         "seed-fraction", "n-string", "chain_count-none"])
def test_generator_config_counts_must_be_integers(changes):
    # a float count once failed inside numpy or on list multiplication, and
    # seed=True was taken as seed 1
    (name, value), = changes.items()
    with pytest.raises(ConfigError,
                       match=f"{name} must be an integer, not {value!r}"):
        GeneratorConfig(**{"seed": 0, "n": 4, **changes})


def test_generator_config_takes_a_numpy_integer_seed():
    assert save_instance(generate_instance(GeneratorConfig(
        seed=np.int64(3), n=4))) == save_instance(generate_instance(
            GeneratorConfig(seed=3, n=4)))


def test_generator_config_takes_numpy_integer_counts():
    cfg = GeneratorConfig(seed=np.int64(3), n=np.int32(4),
                          chain_count=np.int16(2), scenario_count=np.uint8(2))
    assert [type(cfg.seed), type(cfg.n), type(cfg.chain_count),
            type(cfg.scenario_count)] == [int] * 4
    assert save_instance(generate_instance(cfg)) == save_instance(
        generate_instance(GeneratorConfig(seed=3, n=4, chain_count=2,
                                          scenario_count=2)))


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match=r"line 1, column"):
        load_instance("{not json")


def test_roundtrip_minimal():
    inst = load_instance(MINIMAL)
    assert load_instance(save_instance(inst)) == inst


def test_roundtrip_generated():
    inst = generate_instance(GeneratorConfig(seed=42, n=5, chain_count=2,
                                             scenario_count=3))
    again = load_instance(save_instance(inst))
    assert again == inst
    assert save_instance(again) == save_instance(inst)


def test_roundtrip_preserves_negative_sigma():
    data = json.loads(MINIMAL)
    data["setup"] = [10.0]
    data["scenarios"] = [{"supplement": [-9.999999999999998]}]
    inst = load_instance(json.dumps(data))
    back = load_instance(save_instance(inst))
    assert back.scenarios[0, 0] == -9.999999999999998


def test_generator_deterministic():
    cfg = GeneratorConfig(seed=1, n=4, chain_count=2, scenario_count=2)
    assert generate_instance(cfg) == generate_instance(cfg)


def test_generator_partition_at_zero_overlap():
    inst = generate_instance(GeneratorConfig(seed=1, n=4, chain_count=2,
                                             overlap_fraction=0.0))
    members = [set(ch) for ch in inst.chains]
    assert members[0] & members[1] == set()
    assert members[0] | members[1] == {0, 1, 2, 3}


def test_generator_overlap_shares_nodes():
    inst = generate_instance(GeneratorConfig(seed=2, n=6, chain_count=3,
                                             overlap_fraction=0.5))
    members = [set(ch) for ch in inst.chains]
    assert set().union(*members) == set(range(6))
    counts = {v: sum(v in m for m in members) for v in range(6)}
    assert any(c >= 2 for c in counts.values())


def test_generator_chain_count_error():
    with pytest.raises(ConfigError, match="chain_count exceeds node count"):
        GeneratorConfig(seed=0, n=2, chain_count=3)


def test_generator_negative_seed_error():
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        GeneratorConfig(seed=-1, n=3)


def test_generator_capacity_covers_demand():
    for seed in range(20):
        inst = generate_instance(GeneratorConfig(
            seed=seed, n=5, chain_count=2, capacity_tightness=0.05))
        assert inst.capacity.sum() >= inst.demand.sum()


def test_origin_supply_zero_matrix():
    inst = load_instance(MINIMAL)
    assert origin_supply(inst, 0) == 0.0


def test_origin_supply_index_out_of_range():
    inst = load_instance(MINIMAL)
    for i in (-1, inst.n):
        with pytest.raises(ValueError, match=f"node index {i} out of range"):
            origin_supply(inst, i)


def test_instance_equality_with_another_type():
    inst = load_instance(MINIMAL)
    assert inst.__eq__(1) is NotImplemented
    assert (inst == 1) is False
    assert inst != "x"


def test_origin_supply_toy3():
    from conftest import make_toy3
    inst = make_toy3()
    assert origin_supply(inst, 0) == 10.0
    assert origin_supply(inst, 1) == 0.0


def test_origin_supply_sums_to_total():
    inst = generate_instance(GeneratorConfig(seed=3, n=6, chain_count=3))
    total = sum(origin_supply(inst, i) for i in range(6))
    assert total == pytest.approx(inst.demand.sum(), abs=1e-12)


def test_thousand_seeds_valid_and_roundtrip():
    # construction re-validates, so surviving construction means the
    # invariants hold; spot-check the file format on a slice
    for seed in range(1000):
        inst = generate_instance(GeneratorConfig(
            seed=seed, n=3 + seed % 5, chain_count=1 + seed % 3,
            overlap_fraction=(seed % 4) / 4.0, scenario_count=1 + seed % 3))
        if seed % 97 == 0:
            assert load_instance(save_instance(inst)) == inst


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63 - 1),
       n=st.integers(1, 8),
       data=st.data())
def test_generator_property(seed, n, data):
    cfg = GeneratorConfig(
        seed=seed, n=n,
        chain_count=data.draw(st.integers(1, n)),
        overlap_fraction=data.draw(st.floats(0.0, 1.0)),
        scenario_count=data.draw(st.integers(1, 4)),
        demand_density=data.draw(st.floats(0.05, 1.0)),
        cost_mode=data.draw(st.sampled_from(
            ["euclidean-from-random-points", "uniform-random"])),
        capacity_tightness=data.draw(st.floats(0.01, 1.0)))
    inst = generate_instance(cfg)
    assert inst == generate_instance(cfg)
    assert load_instance(save_instance(inst)) == inst
    assert set().union(*(set(c) for c in inst.chains)) == set(range(n))
    if cfg.overlap_fraction == 0.0:
        assert sum(len(c) for c in inst.chains) == n
