"""The three workloads: their corpora, items and independent checks.

A run visits a corpus made of the first N seeds of the hubloc generator,
not selected by solve time, with N set by the run length.  The corpus does
not depend on the benchmark seed, so every run measures the same mix of
hard and easy instances: single instances differ by up to 8x in solve
time, and a corpus of this size drawn from the seed would move throughput
by more than any bound worth enforcing.  The benchmark seed sets the order
of the items and, for ``oracle`` and ``regret_n6``, a relabeling of the
nodes of every instance, which changes the bytes the program reads and
the search's tie-breaking, but not the optima.

Items call hubloc through module attributes so that the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import csv
import io
import json
import random
from pathlib import Path

from hubloc import cli, formulations, milp, regret
from hubloc.instance import (GeneratorConfig, Instance, generate_instance,
                             save_instance)

import reference

HERE = Path(__file__).resolve().parent
EXPECTED_SWEEP = HERE / "expected_sweep.json"

# Corpus sizes for a run of REF_SECONDS; other run lengths scale them, and
# a traced run takes half.  Each size gives at least 16 items, so that
# item_s_tail, the percentile with 10 items above it, sits near p40 and
# averages several instances.  A regret_n6 run therefore lasts longer
# than REF_SECONDS (about 32 s on the reference machine).
REF_SECONDS = 22
CORPUS = {"sweep": 18, "oracle": 18, "regret_n6": 16}
# Seeds that expected_sweep.json covers, the largest sweep corpus.
SWEEP_SEEDS = tuple(range(24))


def sweep_args(seed, out):
    return ["sweep", "--trials", "1", "--seed", str(seed), "--nodes", "4",
            "-o", str(out)]


def oracle_instance(seed):
    """n=4, scenario count cycling 1..3, overlap and capacity tightness
    varied as in acceptance criterion 1."""
    return generate_instance(GeneratorConfig(
        seed=seed, n=4, chain_count=2,
        overlap_fraction=0.0 if seed % 2 else 0.3,
        scenario_count=1 + seed % 3, demand_density=0.7,
        capacity_tightness=0.5 if seed % 3 else 0.9))


def regret_instance(seed):
    """n=6, S=2: 489 variables, 454 rows and 18 binaries in ``ocu``."""
    return generate_instance(GeneratorConfig(seed=seed, n=6, chain_count=2,
                                             scenario_count=2))


def relabel(inst: Instance, perm) -> Instance:
    """The same instance with old node ``v`` renamed ``perm[v]``."""
    old = [0] * inst.n
    for v, new in enumerate(perm):
        old[new] = v
    return Instance(
        n=inst.n, demand=inst.demand[old][:, old], cost=inst.cost[old][:, old],
        setup=inst.setup[old], capacity=inst.capacity[old], chi=inst.chi,
        alpha=inst.alpha, delta=inst.delta, scenarios=inst.scenarios[:, old],
        chains=tuple(tuple(sorted(perm[v] for v in ch)) for ch in inst.chains))


class SweepItem:
    """One ``hubloc sweep`` over one generator seed: all five claims."""

    def __init__(self, seed, workdir, expected):
        self.id = f"sweep-{seed}"
        self.seed = seed
        self.out = workdir / f"{self.id}.csv"
        self.expected = expected

    def call(self):
        return cli.run(sweep_args(self.seed, self.out))

    def collect(self, rc):
        return rc, self.out.read_text(encoding="utf-8")

    def check(self, output):
        rc, text = output
        want = self.expected[str(self.seed)]
        if rc != want["rc"]:
            return f"exit code {rc}, expected {want['rc']}"
        rows = parse_sweep_rows(text)
        if len(rows) != len(want["rows"]):
            return f"{len(rows)} claim rows, expected {len(want['rows'])}"
        for got, exp in zip(rows, want["rows"]):
            if got[:4] != exp[:4]:
                return f"row {got[:4]} differs from expected {exp[:4]}"
            for g, e in zip(got[4:], exp[4:]):
                if not _cells_agree(g, e):
                    return f"{got[2]}: value {g} differs from expected {e}"
        return None


def _cells_agree(got, exp):
    try:
        return reference.agree(float(got), float(exp))
    except ValueError:
        return got == exp


def parse_sweep_rows(text):
    """Claim rows of a sweep CSV, header and tally lines dropped."""
    return [r for r in csv.reader(io.StringIO(text))
            if r and not r[0].startswith("#")][1:]


class OracleItem:
    """Baselines, then nc/cc/ccu/ocu by branch and bound and by the
    enumeration oracle; the check compares the two routes."""

    def __init__(self, seed, perm):
        self.id = f"oracle-{seed}"
        self.inst = relabel(oracle_instance(seed), perm)

    def call(self):
        inst = self.inst
        base = regret.compute_baselines(inst)
        models = (("nc", formulations.build_nc(inst)),
                  ("cc", formulations.build_cc(inst)),
                  ("ccu", formulations.build_ccu(inst, base)),
                  ("ocu", formulations.build_ocu(inst, base)))
        return [(name, milp.solve_milp(m), milp.solve_by_enumeration(m))
                for name, m in models]

    def collect(self, result):
        return [(name, (b.status, b.objective), (e.status, e.objective))
                for name, b, e in result]

    def check(self, output):
        for name, (bs, bo), (es, eo) in output:
            if bs != "optimal" or es != "optimal":
                return f"{name}: status {bs} by B&B, {es} by enumeration"
            if not reference.agree(bo, eo):
                return f"{name}: B&B {bo!r} vs enumeration {eo!r}"
        return None


class RegretItem:
    """``hubloc regret --model ocu`` on one n=6 instance file; checked
    against HiGHS baselines and max regret."""

    def __init__(self, seed, perm, workdir):
        self.id = f"regret_n6-{seed}"
        self.inst = relabel(regret_instance(seed), perm)
        self.path = workdir / f"{self.id}.json"
        self.path.write_text(save_instance(self.inst), encoding="utf-8")
        self.out = workdir / f"{self.id}.out.json"
        self._reference = None

    def call(self):
        return cli.run(["regret", "--model", "ocu", str(self.path),
                        "-o", str(self.out)])

    def collect(self, rc):
        return rc, json.loads(self.out.read_text(encoding="utf-8"))

    def reference(self):
        if self._reference is None:
            inst = self.inst
            base = [reference.highs_solve(
                formulations.build_scenario_deterministic(inst, s))
                for s in range(inst.num_scenarios)]
            self._reference = (base, reference.highs_solve(
                formulations.build_ocu(inst, base)))
        return self._reference

    def check(self, output):
        rc, report = output
        if rc != 0 or report["status"] != "optimal":
            return f"exit code {rc}, status {report['status']}"
        base, max_regret = self.reference()
        for s, (got, ref) in enumerate(zip(report["baselines"], base)):
            if not reference.agree(got, ref):
                return f"baseline {s}: {got!r} vs HiGHS {ref!r}"
        if not reference.agree(report["max_regret"], max_regret):
            return f"max regret {report['max_regret']!r} vs HiGHS {max_regret!r}"
        return None


def corpus_size(workload, seconds, traced):
    n = max(2, round(CORPUS[workload] * seconds / REF_SECONDS))
    if traced:
        n = max(1, n // 2)
    return min(n, len(SWEEP_SEEDS)) if workload == "sweep" else n


def prepare(workload, seed, workdir, size):
    """The corpus of ``size`` instances, in the order the seed gives."""
    rng = random.Random(f"{workload}/{seed}")
    seeds = rng.sample(range(size), size)
    if workload == "sweep":
        expected = json.loads(EXPECTED_SWEEP.read_text(encoding="utf-8"))
        return [SweepItem(s, workdir, expected["instances"]) for s in seeds]
    if workload == "oracle":
        return [OracleItem(s, rng.sample(range(4), 4)) for s in seeds]
    if workload == "regret_n6":
        return [RegretItem(s, rng.sample(range(6), 6), workdir) for s in seeds]
    raise ValueError(f"unknown workload {workload!r}")
