"""Command-line front end.

Commands: ``gen`` (seeded instances), ``solve`` (any of the four models),
``regret`` (regret pipeline report), ``verify`` (one claim, single instance
or seeded sweep), ``sweep`` (all claims over seeded instances).

Exit codes: 0 for an optimal solve or an all-CONFIRMED verification, 2 when
the outcome is infeasible / COUNTEREXAMPLE / INCONCLUSIVE (reports stay
machine-readable either way), 1 for usage, IO or validation errors and
for a solver breakdown (``SimplexError``, ``HelperError``), each printed
as one ``error:`` line.
All file outputs are written atomically and contain no timestamps, so
identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import uuid

from .claims import CLAIM_CHECKS, CONFIRMED, CSV_FIELDS, SolveMemo
from .formulations import ModelOptions, build_cc, build_nc
from .instance import (GeneratorConfig, Instance, generate_instance,
                       instance_fingerprint, load_instance, save_instance)
from .milp import HelperError, solve_milp
from .regret import (InfeasibleScenarioError, regret_report, solution_to_json,
                     solve_ccu, solve_ocu)
from .simplex import SimplexError

# each input error class is a ValueError; the solver's breakdowns and a
# lost helper process print as one line too
_ERRORS = (ValueError, OSError, SimplexError, HelperError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _atomic_write(path: str, text: str) -> None:
    # mode 0666 less the umask, as open() gives, not mkstemp's fixed 0600
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".hubloc-{uuid.uuid4().hex}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, path: str | None) -> None:
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _add_option_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--distribution-cost", choices=("literal", "standard"),
                   default="standard")
    p.add_argument("--ocu-objective", choices=("as-written", "split"),
                   default="as-written")
    p.add_argument("--eq20", choices=("omit", "linearized"),
                   default="linearized")
    p.add_argument("--big-m", choices=("total", "tight"), default="tight")


def _add_shape_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--chains", type=int, default=2)
    p.add_argument("--scenarios", type=int, default=2)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--density", type=float, default=0.6)
    p.add_argument("--cost-mode", choices=("euclidean", "uniform"),
                   default="euclidean")
    p.add_argument("--tightness", type=float, default=0.6)


def _options_from(args) -> ModelOptions:
    return ModelOptions(
        distribution_cost={"literal": "literal-Cij",
                           "standard": "standard-Clj"}[args.distribution_cost],
        ocu_objective={"as-written": "as-written",
                       "split": "collaborative-split"}[args.ocu_objective],
        eq20_mode=args.eq20,
        big_m_mode={"total": "total-demand",
                    "tight": "per-constraint-tight"}[args.big_m],
    )


def _config_from(args, seed: int) -> GeneratorConfig:
    return GeneratorConfig(
        seed=seed, n=args.nodes, chain_count=args.chains,
        overlap_fraction=args.overlap, scenario_count=args.scenarios,
        demand_density=args.density,
        cost_mode={"euclidean": "euclidean-from-random-points",
                   "uniform": "uniform-random"}[args.cost_mode],
        capacity_tightness=args.tightness)


def _load(path: str) -> Instance:
    with open(path, encoding="utf-8") as f:
        return load_instance(f.read())


def build_parser() -> _Parser:
    parser = _Parser(prog="hubloc")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    _add_shape_flags(p)
    p.add_argument("-o", "--output")

    p = sub.add_parser("solve", help="solve one model exactly")
    p.add_argument("instance")
    p.add_argument("--model", choices=("nc", "cc", "ccu", "ocu"), required=True)
    _add_option_flags(p)
    p.add_argument("-o", "--output")

    p = sub.add_parser("regret", help="run the regret pipeline")
    p.add_argument("instance")
    p.add_argument("--model", choices=("ccu", "ocu"), required=True)
    _add_option_flags(p)
    p.add_argument("-o", "--output")

    p = sub.add_parser("verify", help="check one claim")
    p.add_argument("instance", nargs="?")
    p.add_argument("--claim", choices=sorted(CLAIM_CHECKS), required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    _add_shape_flags(p)
    _add_option_flags(p)
    p.add_argument("-o", "--output")

    p = sub.add_parser("sweep", help="run every claim over seeded instances")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    _add_shape_flags(p)
    _add_option_flags(p)
    p.add_argument("-o", "--output")
    return parser


def _cmd_gen(args) -> int:
    cfg = _config_from(args, args.seed)
    _emit(save_instance(generate_instance(cfg)), args.output)
    return 0


def _cmd_solve(args) -> int:
    """``solve`` and ``regret``: load, solve, stamp and write the report."""
    inst = _load(args.instance)
    opts = _options_from(args)
    if args.model == "ccu":
        sol = solve_ccu(inst, opts)
    elif args.model == "ocu":
        sol = solve_ocu(inst, opts)
    else:
        build = build_nc if args.model == "nc" else build_cc
        sol = solve_milp(build(inst, opts))
    report = (regret_report(sol) if args.command == "regret"
              else solution_to_json(sol))
    report["model"] = args.model
    report["options"] = opts.to_dict()
    report["instance"] = instance_fingerprint(inst)
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    return 0 if sol.status == "optimal" else 2


def _sweep_rows(claim_keys, trials, args, opts):
    """One CSV body per (seed, claim); ordering is by seed then claim.
    The checks of one instance share one memo, which first solves every
    model they need side by side, and is dropped with the instance."""
    if trials < 1:
        raise UsageError("--trials must be at least 1")
    buf = io.StringIO()
    buf.write("seed,n,claim,verdict,value_a,value_b,value_c,flag\n")
    tally: dict[str, int] = {}
    for t in range(trials):
        cfg = _config_from(args, args.seed + t)
        inst = generate_instance(cfg)
        memo = SolveMemo(inst, opts)
        memo.prepare(claim_keys)
        for key in claim_keys:
            report = CLAIM_CHECKS[key](inst, opts, memo=memo)
            tally[report.verdict] = tally.get(report.verdict, 0) + 1
            vals = [report.evidence.get(c, "") for c in CSV_FIELDS[key]]
            buf.write(",".join([str(cfg.seed), str(cfg.n), report.claim_id,
                                report.verdict] + [_csv_cell(v) for v in vals])
                      + "\n")
    for verdict in sorted(tally):
        buf.write(f"# tally {verdict}={tally[verdict]}\n")
    all_confirmed = set(tally) <= {CONFIRMED}
    return buf.getvalue(), all_confirmed


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _cmd_verify(args) -> int:
    opts = _options_from(args)
    if args.trials is None:
        if not args.instance:
            raise UsageError("verify needs an instance file or --trials")
        inst = _load(args.instance)
        report = CLAIM_CHECKS[args.claim](inst, opts)
        _emit(json.dumps(report.to_json(), indent=2) + "\n", args.output)
        return 0 if report.verdict == CONFIRMED else 2
    if args.instance:
        raise UsageError("verify takes an instance file or --trials, not both")
    body, all_confirmed = _sweep_rows([args.claim], args.trials, args, opts)
    _emit(body, args.output)
    return 0 if all_confirmed else 2


def _cmd_sweep(args) -> int:
    opts = _options_from(args)
    body, all_confirmed = _sweep_rows(sorted(CLAIM_CHECKS), args.trials, args,
                                      opts)
    _emit(body, args.output)
    return 0 if all_confirmed else 2


_COMMANDS = {"gen": _cmd_gen, "solve": _cmd_solve, "regret": _cmd_solve,
             "verify": _cmd_verify, "sweep": _cmd_sweep}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            return _COMMANDS[args.command](args)
        except InfeasibleScenarioError as e:
            report = json.dumps({"status": "infeasible", "detail": str(e)})
            _emit(report + "\n", args.output)
            return 2
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except _ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
