"""Acceptance gate: every numbered criterion below runs at its stated
tolerance and prints one PASS/FAIL line (run with ``pytest -v -s``).

The oracle side of each dual check is either the exhaustive binary
enumeration (independent of branch and bound) or the closed-form route
arithmetic from conftest (independent of the LP machinery altogether).
"""

import re
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import brute_force_max_regret, brute_force_nc, make_toy3
from hubloc.claims import (CONFIRMED, COUNTEREXAMPLE, check_cc_nc_consistency,
                           check_eq20_redundancy, check_i_redundancy,
                           check_theorem1, check_tk_never_one)
from hubloc.formulations import (ModelOptions, build_cc, build_ccu, build_nc,
                                 build_ocu, build_scenario_deterministic)
from hubloc.instance import GeneratorConfig, generate_instance
from hubloc.milp import solve_by_enumeration, solve_milp
from hubloc.model import check_feasibility
from hubloc.regret import compute_baselines, solve_ccu, solve_ocu
from hubloc.simplex import solve_lp, verify_certificate

RELTOL = 1e-6


def _report(num, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {name}: {state} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _inst(seed, n, scenarios, overlap=0.0, density=0.7, tightness=0.6):
    return generate_instance(GeneratorConfig(
        seed=seed, n=n, chain_count=2, overlap_fraction=overlap,
        scenario_count=scenarios, demand_density=density,
        capacity_tightness=tightness))


def _agree(a, b):
    if a.status != b.status:
        return False
    if a.status != "optimal":
        return True
    return abs(a.objective - b.objective) <= RELTOL * max(1.0, abs(a.objective))


def test_criterion_1_oracle_equivalence():
    shapes = [3] * 20 + [4] * 20 + [5] * 10
    start = time.perf_counter()
    bad = []
    for t, n in enumerate(shapes):
        inst = _inst(seed=1000 + t, n=n, scenarios=1 + t % 3,
                     overlap=0.0 if t % 2 else 0.3,
                     tightness=0.5 if t % 3 else 0.9)
        base = compute_baselines(inst)
        for name, model in [("nc", build_nc(inst)), ("cc", build_cc(inst)),
                            ("ccu", build_ccu(inst, base)),
                            ("ocu", build_ocu(inst, base))]:
            if not _agree(solve_milp(model), solve_by_enumeration(model)):
                bad.append((1000 + t, name))
    elapsed = time.perf_counter() - start
    _report(1, "oracle equivalence (50 instances, 4 formulations)",
            not bad and elapsed < 300.0,
            f"mismatches={bad} runtime={elapsed:.1f}s")


def test_criterion_2_theorem1_sweep():
    failures = []
    worst_residual = 0.0
    for t in range(100):
        inst = _inst(seed=2000 + t, n=3 if t % 10 < 7 else 4,
                     scenarios=1 + t % 3, overlap=0.0 if t % 2 else 0.4)
        assert np.all(inst.scenarios >= 0.0)
        rep = check_theorem1(inst)
        worst_residual = max(worst_residual, rep.evidence["max_replay_residual"])
        if rep.verdict != CONFIRMED or rep.evidence["max_replay_residual"] > 1e-7:
            failures.append(2000 + t)
    _report(2, "regret dominance sweep, claim thm1 (100 instances, as-written, "
               "sigma >= 0)",
            not failures, f"failures={failures} "
            f"worst_incumbent_replay_residual={worst_residual:.2e}")


def test_criterion_3_regret_sanity():
    bad = []
    for t in range(20):
        scen = 1 + t % 3
        inst = _inst(seed=3000 + t, n=3 + t % 2, scenarios=scen)
        for sol in (solve_ccu(inst), solve_ocu(inst)):
            if sol.status != "optimal":
                bad.append((3000 + t, "infeasible"))
                continue
            if any(r < -1e-9 for r in sol.regrets):
                bad.append((3000 + t, "negative regret"))
            if abs(sol.objective - max(sol.regrets)) > 1e-9 * max(1.0, abs(sol.objective)):
                bad.append((3000 + t, "max-regret mismatch"))
            if scen == 1 and sol.objective > 1e-9:
                bad.append((3000 + t, "single-scenario regret"))
    _report(3, "regret sanity (R_s >= 0, R* = max R_s, |S|=1 collapse)",
            not bad, f"violations={bad}")


def test_criterion_4_cc_nc_consistency():
    bad = []
    for t in range(50):
        inst = _inst(seed=4000 + t, n=3 + t % 2, scenarios=1 + t % 3)
        rep = check_cc_nc_consistency(inst)
        if rep.verdict != CONFIRMED:
            bad.append((4000 + t, rep.evidence["gap"]))
    _report(4, "CC equals NC under zero supplements (50 instances, 1e-9 rel)",
            not bad, f"failures={bad}")


def test_criterion_5_i_elimination():
    bad = []
    for t in range(50):
        n = 3 + (t % 3 == 0)
        inst = _inst(seed=5000 + t, n=n, scenarios=1 + t % 2,
                     overlap=0.0 if t % 2 else 0.5)
        rep = check_i_redundancy(inst)
        if rep.verdict != CONFIRMED or rep.evidence["binary_reduction"] != n:
            bad.append(5000 + t)
    _report(5, "I-variable elimination preserves optima (50 instances)",
            not bad, f"failures={bad}")


def test_criterion_6_eq20_checker_self_consistency():
    from hubloc.formulations import build_coupling_polytope
    tally = {}
    bad = []
    for t in range(30):
        disjoint = t < 15
        inst = _inst(seed=6000 + t, n=3 + t % 2, scenarios=1 + t % 2,
                     overlap=0.0 if disjoint else 0.5)
        if not disjoint and all(
                len(set(a) & set(b)) == 0
                for i, a in enumerate(inst.chains)
                for b in inst.chains[i + 1:]):
            inst = _inst(seed=6000 + t, n=4, scenarios=1, overlap=0.75)
        rep = check_eq20_redundancy(inst)
        tally[rep.verdict] = tally.get(rep.verdict, 0) + 1
        if rep.verdict == CONFIRMED:
            if not rep.evidence["optima_equal"]:
                bad.append((6000 + t, "confirmed but optima differ"))
        elif rep.verdict == COUNTEREXAMPLE:
            base = build_coupling_polytope(inst, ModelOptions(eq20_mode="omit"))
            residuals = check_feasibility(base, rep.witness)
            if residuals:
                bad.append((6000 + t, "witness violates linear rows"))
            i, k, l = map(int, re.match(
                r"eq20\[i=(\d+),k=(\d+),l=(\d+)\]",
                rep.evidence["violated_row"]).groups())
            m = rep.evidence["big_m"]
            lhs = rep.witness[f"Y[{i},{k},{l}]"]
            rhs = m * (1 - round(rep.witness[f"T[{k}]"])) \
                * (1 - round(rep.witness[f"T[{l}]"]))
            if not lhs - rhs > 1e-4 * m:
                bad.append((6000 + t, "violation below threshold"))
        else:
            bad.append((6000 + t, "inconclusive"))
    _report(6, "eq20 redundancy checker self-consistency (30 instances)",
            not bad, f"verdicts={tally} problems={bad}")


def test_criterion_7_known_value_pins():
    toy = make_toy3()
    oracle_obj, oracle_hubs = brute_force_nc(toy)
    sol = solve_by_enumeration(build_nc(toy))
    pin_nc = (oracle_obj == 25.0 and oracle_hubs == (1,)
              and abs(sol.objective - 25.0) <= 1e-9
              and sol.open_hubs == (1,))
    shifted = make_toy3(scenarios=((0.0, 10.0, 0.0),))
    base = solve_by_enumeration(build_scenario_deterministic(shifted, 0))
    pin_scen = abs(base.objective - 35.0) <= 1e-9
    regret_inst = make_toy3(scenarios=((0.0, 0.0, 0.0), (0.0, 100.0, 0.0)))
    r_star, r_set, r_base = brute_force_max_regret(regret_inst)
    ccu = solve_ccu(regret_inst)
    pin_regret = (r_star == 5.0 and abs(ccu.objective - 5.0) <= 1e-6
                  and ccu.baselines == pytest.approx(list(r_base)))
    _report(7, "known-value pins (toy3: NC=25@{1}, baseline 35, CCU R*=5)",
            pin_nc and pin_scen and pin_regret,
            f"nc={sol.objective} baseline={base.objective} ccu={ccu.objective}")


def test_criterion_8_lp_certificates():
    checked = 0
    bad = []
    for seed in (8000, 8001, 8002):
        inst = _inst(seed=seed, n=4, scenarios=2)
        base = compute_baselines(inst)
        for model in (build_nc(inst), build_cc(inst), build_ccu(inst, base),
                      build_ocu(inst, base)):
            res = solve_lp(model)
            if res.status != "optimal":
                bad.append((seed, "relaxation not optimal"))
                continue
            rep = verify_certificate(model, res)
            checked += 1
            if not rep.passed:
                bad.append((seed, rep.failures[:2]))
            x = res.x.copy()
            j = int(np.argmax(np.abs(x)))
            x[j] += 1e-3
            if verify_certificate(model, replace(res, x=x)).passed:
                bad.append((seed, "perturbation not caught"))
    _report(8, "LP certificates (all relaxations pass, perturbations fail)",
            not bad and checked == 12, f"checked={checked} problems={bad}")


def test_criterion_9_tk_claim_sweep():
    tally = {}
    degenerate = 0
    errors = []
    for t in range(100):
        inst = _inst(seed=9000 + t, n=3 if t % 5 else 4, scenarios=1 + t % 2,
                     overlap=0.0 if t % 2 else 0.4)
        try:
            rep = check_tk_never_one(inst)
        except Exception as exc:  # tool errors fail the criterion
            errors.append((9000 + t, repr(exc)))
            continue
        tally[rep.verdict] = tally.get(rep.verdict, 0) + 1
        if rep.evidence["zero_objective"]:
            degenerate += 1
    _report(9, "T_k claim sweep (100 instances, zero tool errors)",
            not errors and sum(tally.values()) == 100,
            f"tally={tally} zero_objective_flagged={degenerate} errors={errors}")
