"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

It checks, on this checkout:

* every workload: two traced runs of one seed give identical deterministic
  counters, no item fails, the printed metrics are exactly the ones
  BENCHMARK.json lists, and ``simplex.solve_lp`` takes at least 85% of the
  traced item time;
* ``sweep``: 18 ``solve_milp`` calls per instance, half of them distinct;
* one short untraced run per workload prints every end-to-end metric with
  no failures;
* without ``src/`` (only BENCHMARK.json and the benchmark's own files) the
  benchmark exits non-zero and prints no result.

It takes about four minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1

# Counters that depend only on the inputs, never on the clock.
NOT_DETERMINISTIC = {"simplex.solve_lp.share", "trace.overhead_frac"}


def run(workload, trace, seconds=22, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=cwd, capture_output=True, text=True, timeout=600)
    return out


def result(out):
    if out.returncode != 0:
        raise AssertionError(f"exit {out.returncode}: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def units(res):
    return {k: v["unit"] for k, v in res["metrics"].items()}


def deterministic(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if k not in NOT_DETERMINISTIC
            and v["unit"] in ("count", "ratio")}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        first, second = (result(run(name, 1)) for _ in range(2))
        expect(units(first) == layer_units,
               f"{name}: traced metrics and units match BENCHMARK.json")
        expect(first["failed"] == 0 and second["failed"] == 0,
               f"{name}: traced runs have no failed item")
        a, b = deterministic(first["metrics"]), deterministic(second["metrics"])
        diff = sorted(k for k in a if a[k] != b.get(k))
        expect(not diff and a.keys() == b.keys(),
               f"{name}: {len(a)} deterministic counters repeat exactly "
               f"{diff or ''}")
        share = first["metrics"]["simplex.solve_lp.share"]["value"]
        expect(share >= 0.85, f"{name}: solve_lp share {share:.3f} >= 0.85")
        if name == "sweep":
            calls = a["milp.solve_milp.calls"]
            per_instance = calls / a["cli.run.calls"]
            expect(per_instance == 18,
                   f"sweep: {per_instance:g} solve_milp calls per instance")
            expect(a["milp.solve_milp.distinct_frac"] == 0.5,
                   f"sweep: distinct_frac {a['milp.solve_milp.distinct_frac']}")
        plain = result(run(name, 0, seconds=4))
        expect(units(plain) == e2e_units,
               f"{name}: untraced metrics and units match BENCHMARK.json")
        expect(plain["failed"] == 0 and plain["correct"],
               f"{name}: fail_frac 0 in the untraced run")

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work-*", "results",
                                                      "__pycache__"))
        out = run("oracle", 0, seconds=1, cwd=bare)
        last = out.stdout.strip().splitlines()[-1:] or [""]
        expect(out.returncode != 0 and '"correct"' not in last[0],
               f"without src/: exit {out.returncode}, no result printed")

    print("selftest:", "FAILED " + "; ".join(problems) if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
