"""LPs that an absolute ratio-test threshold pivoted into a singular basis.

Each failed on a pivot entry just above 1e-9 in a column whose largest
entry is in the hundreds or thousands.  The threshold is now relative to
that largest entry, and the optima below agree with HiGHS.
"""

import pytest

from conftest import relabel
from hubloc.formulations import build_scenario_deterministic
from hubloc.instance import GeneratorConfig, generate_instance
from hubloc.regret import solve_ocu
from hubloc.simplex import solve_lp, verify_certificate


def test_relabeled_n6_regret_solves():
    """A B&B child LP of this instance raised ``singular basis (408
    columns)`` under the absolute threshold."""
    inst = relabel(generate_instance(GeneratorConfig(
        seed=12, n=6, chain_count=2, scenario_count=2)), [4, 5, 0, 3, 1, 2])
    sol = solve_ocu(inst)
    assert sol.status == "optimal"
    assert sol.baselines == pytest.approx([706.001416514, 696.807416514],
                                          rel=1e-9)
    assert abs(sol.objective) <= 1e-9 * max(sol.baselines)


def test_n9_scenario_child_lp_solves():
    """Phase 2 pivoted on |N[r,s]| = 1.64e-9 in a column reaching 1.3e3,
    and the refined basics then broke row eq4[k=2] by 71."""
    inst = generate_instance(GeneratorConfig(seed=0, n=9, chain_count=2,
                                             scenario_count=2))
    model = build_scenario_deterministic(inst, 1)
    assert model.variables[1].name == "H[1]"
    res = solve_lp(model, extra_bounds={1: (0.0, 0.0)})
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1526.3796097728246, rel=1e-9)
    assert verify_certificate(model, res).passed
