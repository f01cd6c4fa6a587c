"""Write ``expected_sweep.json``, the reference for the ``sweep`` workload.

For every corpus seed it runs ``hubloc sweep`` once and keeps the exit
code and the claim rows.  Before writing, every MILP optimum in those rows
is solved again by HiGHS, from the same formulations but without hubloc's
LP or branch-and-bound code, and the file is written only if all agree to
1e-6 relative.  The run checks later sweeps against the file, so it never
needs scipy in the timed process.

Run from the repository root after a change that is meant to alter claim
outputs:  python3 perfbench/make_expected.py
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from hubloc import cli
from hubloc.claims import eliminate_collaborative_vars
from hubloc.formulations import (ModelOptions, build_cc, build_ccu, build_nc,
                                 build_ocu, build_scenario_deterministic)
from hubloc.instance import GeneratorConfig, Instance, generate_instance
from hubloc.model import GE, with_extra_constraint

import reference
import workloads


def highs_optima(seed):
    """HiGHS optimum of every MILP a sweep row reports, by claim id and
    CSV column.  ``None`` stands for an infeasible model."""
    inst = generate_instance(GeneratorConfig(seed=seed, n=4, chain_count=2,
                                             scenario_count=2))
    opts = ModelOptions()
    base = [reference.highs_solve(build_scenario_deterministic(inst, s))
            for s in range(inst.num_scenarios)]
    ocu_model = build_ocu(inst, base)
    ocu = reference.highs_solve(ocu_model)
    t_sum = [(ocu_model.name_index[f"T[{k}]"], 1.0) for k in range(inst.n)]
    zero = Instance(n=inst.n, demand=inst.demand, cost=inst.cost,
                    setup=inst.setup, capacity=inst.capacity, chi=inst.chi,
                    alpha=inst.alpha, delta=inst.delta,
                    scenarios=np.zeros_like(inst.scenarios),
                    chains=inst.chains)
    return {
        "thm1": {"value_a": reference.highs_solve(build_ccu(inst, base)),
                 "value_b": ocu},
        "eq20_redundant": {
            "value_a": reference.highs_solve(
                build_ocu(inst, base, replace(opts, eq20_mode="omit"))),
            "value_b": ocu},
        "tk_never_one": {
            "value_a": ocu,
            "value_b": reference.highs_solve(with_extra_constraint(
                ocu_model, "tk_floor[sum]", t_sum, GE, 1.0))},
        "i_redundant": {
            "value_a": ocu,
            "value_b": reference.highs_solve(
                eliminate_collaborative_vars(ocu_model))},
        "cc_nc_consistency": {
            "value_a": reference.highs_solve(build_nc(inst)),
            "value_b": reference.highs_solve(build_cc(zero))},
    }


def main():
    header = ["seed", "n", "claim", "verdict", "value_a", "value_b",
              "value_c", "flag"]
    out = {"about": "hubloc sweep --trials 1 --nodes 4 --seed <seed>; MILP "
                    "optima in value_a/value_b confirmed by HiGHS "
                    f"(scipy.optimize.milp) to {reference.REL_TOL:g} relative",
           "instances": {}}
    with tempfile.TemporaryDirectory(prefix=".work-",
                                     dir=ROOT / "perfbench") as tmp:
        for seed in workloads.SWEEP_SEEDS:
            path = Path(tmp) / "sweep.csv"
            rc = cli.run(workloads.sweep_args(seed, path))
            rows = workloads.parse_sweep_rows(path.read_text(encoding="utf-8"))
            optima = highs_optima(seed)
            for row in rows:
                cells = dict(zip(header, row))
                for col, ref in optima[cells["claim"]].items():
                    got = float(cells[col]) if cells[col] else None
                    if not reference.agree(got, ref):
                        sys.exit(f"seed {seed} {cells['claim']} {col}: "
                                 f"hubloc {got!r} vs HiGHS {ref!r}")
            out["instances"][str(seed)] = {"rc": rc, "rows": rows,
                                           "highs": optima}
            print(f"seed {seed}: exit {rc}, {len(rows)} rows confirmed",
                  file=sys.stderr)
    workloads.EXPECTED_SWEEP.write_text(json.dumps(out, indent=1) + "\n",
                                        encoding="utf-8")


if __name__ == "__main__":
    main()
