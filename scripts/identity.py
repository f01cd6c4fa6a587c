"""Write the byte-identity corpus of this checkout to a directory.

    python scripts/identity.py OUTDIR

For each CLI command of the corpus, OUTDIR gets ``NN-<name>.out``,
``.err`` and ``.rc`` files: its stdout, stderr and exit code.  It also
gets ``lp_digest.txt``: the number of LPs and pivots, and one SHA-256 over
the (status, objective, iterations, x, basis, vstatus, duals) of every
``LPResult`` that ``solve_lp`` returns on the LP corpus below.  Last, it
gets ``solution_digest.txt``: the number of MILP ``Solution``s that the
same corpus produces with the helper process forced on, and one
SHA-256 over their status, objective, ``nodes_explored``, value bits and
incumbents, so the path that splits LPs between two processes is covered
too.  Both digests sort the hashes of one corpus item before they combine
them, so they do not depend on the order in which the item's LPs or
searches run.  A change that must keep every report and every pivot path
passes when

    python scripts/identity.py a     # in the parent checkout
    python scripts/identity.py b     # in the changed checkout
    diff -r a b

prints nothing.  The script imports ``hubloc`` from the ``src`` directory
next to it, so each checkout is measured on its own code.  Outputs name
no path, so two checkouts in different directories can be compared.  The
script sets no BLAS environment variable: each solve runs with numpy's
OpenBLAS at one thread (``simplex.one_blas_thread``), so the corpus reads
the same whatever thread count the caller's environment gives it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from hubloc import claims, cli, milp, regret, simplex  # noqa: E402
from hubloc.formulations import (build_cc, build_ccu, build_nc,  # noqa: E402
                                 build_ocu)
from hubloc.instance import GeneratorConfig, generate_instance  # noqa: E402
from hubloc.model import BINARY, LE, LinearModel  # noqa: E402

GEN7 = ["--seed", "7", "--chains", "2", "--scenarios", "2"]
INSTANCE = "gen7-n4.json"
INSTANCE_N6 = "gen7-n6.json"

# (name, argv); argv may read the instance files that earlier commands wrote
COMMANDS = (
    [("gen-n4", ["gen", *GEN7, "--nodes", "4", "-o", INSTANCE]),
     ("gen-n6", ["gen", *GEN7, "--nodes", "6", "-o", INSTANCE_N6]),
     ("sweep-s0-n3", ["sweep", "--trials", "3", "--seed", "0", "--nodes", "3"]),
     ("sweep-s5-n4-total-literal",
      ["sweep", "--trials", "2", "--seed", "5", "--nodes", "4", "--big-m",
       "total", "--distribution-cost", "literal"])]
    + [(f"solve-{m}", ["solve", "--model", m, INSTANCE])
       for m in ("nc", "cc", "ccu", "ocu")]
    + [(f"regret-{m}", ["regret", "--model", m, INSTANCE]) for m in ("ccu", "ocu")]
    + [(f"verify-{c}", ["verify", "--claim", c, INSTANCE])
       for c in ("thm1", "eq20", "tk", "ivar", "ccnc")]
    + [("regret-ocu-n6", ["regret", "--model", "ocu", INSTANCE_N6]),
       ("verify-tk-trials",
        ["verify", "--claim", "tk", "--trials", "2", "--seed", "3", "--nodes", "3"]),
       ("regret-ocu-omit", ["regret", "--model", "ocu", "--eq20", "omit", INSTANCE]),
       ("verify-eq20-omit",
        ["verify", "--claim", "eq20", "--eq20", "omit", INSTANCE]),
       ("verify-eq20-n8",
        ["verify", "--claim", "eq20", "--trials", "1", "--nodes", "8"])])


def oracle_instance(seed):
    """n=4 with the scenario count, overlap and capacity tightness varied."""
    return generate_instance(GeneratorConfig(
        seed=seed, n=4, chain_count=2,
        overlap_fraction=0.0 if seed % 2 else 0.3,
        scenario_count=1 + seed % 3, demand_density=0.7,
        capacity_tightness=0.5 if seed % 3 else 0.9))


def sweep_lps(seed):
    """Every LP of ``hubloc sweep`` on one n=4 instance: the five claims."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["sweep", "--trials", "1", "--seed", str(seed), "--nodes", "4"])


def oracle_lps(seed):
    """Baselines, then nc/cc/ccu/ocu by branch and bound and by enumeration."""
    inst = oracle_instance(seed)
    base = regret.compute_baselines(inst)
    for model in (build_nc(inst), build_cc(inst), build_ccu(inst, base),
                  build_ocu(inst, base)):
        milp.solve_milp(model)
        milp.solve_by_enumeration(model)


def regret_n6_lps(seed):
    """The hub-split max-regret model at n=6 with two scenarios."""
    regret.solve_ocu(generate_instance(GeneratorConfig(
        seed=seed, n=6, chain_count=2, scenario_count=2)))


def knapsack_lps(seed):
    """A three-row knapsack: only <= rows with nonnegative right-hand
    sides, so its root LP starts from the slack basis, with no artificial
    and no phase 1."""
    rng = np.random.default_rng(seed)
    model = LinearModel()
    for j in range(12):
        model.add_variable(f"x[{j}]", BINARY)
    weights = rng.integers(1, 20, size=(3, 12))
    for r, w in enumerate(weights):
        model.add_constraint(f"cap[{r}]", enumerate(w), LE, 0.4 * w.sum())
    model.set_objective(enumerate(-rng.integers(1, 30, size=12)))
    milp.solve_milp(model)


LP_CORPUS = ([("sweep", sweep_lps, s) for s in range(6)]
             + [("oracle", oracle_lps, s) for s in range(6)]
             + [("regret_n6", regret_n6_lps, s) for s in range(4)]
             + [("knapsack", knapsack_lps, s) for s in range(4)])


def run_commands(outdir: Path, commands) -> None:
    """Run each command in ``outdir``, keeping its stdout, stderr and code."""
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for i, (name, argv) in enumerate(commands):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
            stem = f"{i:02d}-{name}"
            Path(f"{stem}.out").write_text(out.getvalue(), encoding="utf-8")
            Path(f"{stem}.err").write_text(err.getvalue(), encoding="utf-8")
            Path(f"{stem}.rc").write_text(f"{rc}\n", encoding="utf-8")
    finally:
        os.chdir(cwd)


def _combine(corpus, item: list, label: str, counts: dict) -> str:
    """Run each corpus item with ``item`` emptied first, count what it
    appended there and hash its sorted entries into one SHA-256; returns
    the digest file, with ``counts`` (read after the runs) below the count."""
    h = hashlib.sha256()
    total = 0
    for name, run, seed in corpus:
        item.clear()
        run(seed)
        total += len(item)
        h.update(repr((name, seed, sorted(item))).encode())
    names = ", ".join(sorted({name for name, _, _ in corpus}))
    lines = [f"corpus: {names}", f"{label}: {total}",
             *(f"{key}: {value}" for key, value in counts.items()),
             f"sha256: {h.hexdigest()}"]
    return "\n".join(lines) + "\n"


def lp_digest(corpus) -> str:
    """LP count, pivot count and one SHA-256 over every LP result; the
    hashes of one corpus item are sorted before they are combined."""
    counts = {"pivots": 0}
    item: list[str] = []
    solve_lp = simplex.solve_lp

    def recording(model, extra_bounds=None):
        res = solve_lp(model, extra_bounds)
        counts["pivots"] += res.iterations
        one = hashlib.sha256(
            repr((res.status, res.objective, res.iterations)).encode())
        for a in (res.x, res.basis, res.vstatus, res.duals):
            if a is not None:
                one.update(np.ascontiguousarray(a).tobytes())
        item.append(one.hexdigest())
        return res

    patched = (milp, claims)
    for mod in patched:
        mod.solve_lp = recording
    try:
        return _combine(corpus, item, "lps", counts)
    finally:
        for mod in patched:
            mod.solve_lp = solve_lp


def _solution_hash(sol) -> str:
    h = hashlib.sha256()
    h.update(repr((sol.status, sol.objective, sol.nodes_explored,
                   list(sol.values))).encode())
    h.update(np.array(list(sol.values.values()), dtype=float).tobytes())
    for objective, values in sol.incumbents:
        h.update(repr((objective, list(values))).encode())
        h.update(np.array(list(values.values()), dtype=float).tobytes())
    return h.hexdigest()


def solution_digest(corpus) -> str:
    """Solution count and one SHA-256 over every MILP Solution of the
    corpus, solved with the helper forced on.  Every Solution is an
    outcome of ``milp._run_searches``, the one scheduler, so only that is
    wrapped.  Searches that may run side by side can finish in another
    order, so the hashes of one corpus item are sorted before they are
    combined."""
    run_searches = milp._run_searches
    item: list[str] = []

    def recording(runs, helper):
        outcomes = run_searches(runs, helper)
        item.extend(_solution_hash(o) for o in outcomes
                    if isinstance(o, milp.Solution))
        return outcomes

    milp._run_searches = recording
    forced, milp._FORCE_HELPER = milp._FORCE_HELPER, True
    try:
        return _combine(corpus, item, "solutions", {})
    finally:
        milp._FORCE_HELPER = forced
        milp._run_searches = run_searches


def write_identity(outdir: Path, commands=COMMANDS, corpus=LP_CORPUS) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    run_commands(outdir, commands)
    (outdir / "lp_digest.txt").write_text(lp_digest(corpus), encoding="utf-8")
    (outdir / "solution_digest.txt").write_text(solution_digest(corpus),
                                                encoding="utf-8")


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python scripts/identity.py OUTDIR", file=sys.stderr)
        return 1
    write_identity(Path(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
