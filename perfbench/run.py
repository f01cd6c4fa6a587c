"""hubloc benchmark: time to certified optima and claim verdicts.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 22 --trace 0

Run from the repository root.  One process, one client, one item at a time
(a closed loop).  ``--trace 0`` times each item of the workload's corpus
once and prints the end-to-end metrics.  ``--trace 1`` runs half as many
items once untraced and once traced, and prints the per-layer metrics.
Every item's output is checked, outside the timed region, against a
reference that does not go through hubloc's branch and bound.  The last
line of standard output is the result as one JSON object.  The full
record, and for traced runs the spans, go to ``perfbench/results/``.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: under contention a threaded
# 266x266 solve took 80x longer than a single-threaded one.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("sweep", "oracle", "regret_n6")
SETUP_PROBES = 7
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=22)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# environment block


def _openblas():
    """(threads in force, build config) from the loaded OpenBLAS, if any."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is None or conf is None:
                    continue
                get.restype = ctypes.c_int
                conf.restype = ctypes.c_char_p
                return get(), conf().decode()
    return None, None


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "hubloc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(loadavg):
    import numpy

    threads, config = _openblas()
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": threads,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas.get("version"),
        "openblas_config": config,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "loadavg_start": loadavg,
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(args, gauge):
    """Wall seconds from process start to first item, in fresh
    interpreters.

    Each probe is a new ``python3`` that imports hubloc and builds the
    workload's inputs, so imports are paid every time, as a user pays
    them.  No timeout is passed: with one, ``Popen.wait`` polls every
    50 ms and the probe times snap to that grid.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        gauge.sample()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    gauge.sample()
    return samples


def run_pass(items, gauge, tracer=None):
    """Run every item once, with a calibration before each item and
    after the last.

    Only ``item.call()`` is inside the clock; reading the output back and
    checking it happen outside.
    """
    records = []
    for item in items:
        gauge.sample()
        if tracer is not None:
            tracer.item = item.id
        output = error = None
        t0 = time.perf_counter()
        try:
            ret = item.call()
            wall = time.perf_counter() - t0
            output = item.collect(ret)
        except Exception:
            wall = time.perf_counter() - t0
            error = traceback.format_exc()
        records.append({"item": item, "wall_s": wall, "output": output,
                        "error": error})
    gauge.sample()
    return records


def rate(ref_s):
    """Items per reference second."""
    return len(ref_s) / sum(ref_s)


def check(records):
    """Fill in each record's error from the item's independent check."""
    for r in records:
        if r["error"] is None:
            try:
                r["error"] = r["item"].check(r["output"])
            except Exception:
                r["error"] = traceback.format_exc()
    return sum(r["error"] is not None for r in records)


def quantile(times, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta((n+1)p,
    (n+1)(1-p)) weights.  With 16 to 18 items a single order statistic
    follows the noise of whichever item holds that rank: over ten
    `regret_n6` runs of 11 items the plain median spread by 0.15 (IQR
    over median) and this estimate by 0.08.
    """
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(times)
    n = len(xs)
    edges = betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n)
    return float(np.diff(edges) @ xs)


def tail(times):
    """The highest percentile with at least TAIL_BEYOND samples above it,
    estimated as above."""
    n = len(times)
    rank = max(1, n - TAIL_BEYOND)
    return quantile(times, rank / n), {
        "percentile": 100.0 * rank / n, "samples": n, "beyond": n - rank,
        "estimator": "Harrell-Davis"}


E2E_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_s_p50": "s",
             "item_s_tail": "s", "pass_frac": "ratio", "peak_rss_mb": "MB"}


def _unit(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("items_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ms_per_lp"):
        return "ms"
    if name.endswith("us_per_pivot"):
        return "us"
    if name.endswith(("_frac", ".share")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------


def run_all(args):
    """Run every workload in its own process and print one combined
    result, its metrics prefixed with the workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        print(out.stdout, end="")
        print(out.stderr, end="", file=sys.stderr)
        if out.returncode != 0:
            return out.returncode
        res = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update(
            {f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    with open("/proc/loadavg", encoding="utf-8") as f:
        loadavg = f.read().strip()
    if not (SRC / "hubloc" / "__init__.py").is_file():
        print(f"error: hubloc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        if args.setup_only:
            size = workloads.corpus_size(args.workload, args.seconds,
                                         args.trace)
            workloads.prepare(args.workload, args.seed, workdir, size)
            return 0
        return measure(args, loadavg, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, loadavg, workdir):
    import tracing
    import workloads

    env = environment(loadavg)
    setup_gauge = clock.Gauge()
    setup_walls = measure_setup(args, setup_gauge)
    size = workloads.corpus_size(args.workload, args.seconds, args.trace)
    items = workloads.prepare(args.workload, args.seed, workdir, size)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setup_wall_s": setup_walls}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)

    if args.trace:
        untraced_gauge, traced_gauge = clock.Gauge(), clock.Gauge()
        untraced = run_pass(items, untraced_gauge)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(items, traced_gauge, tracer)
        finally:
            tracer.uninstall()
        records = untraced + traced
        metrics = tracing.layer_metrics(
            tracer.spans, sum(r["wall_s"] for r in traced))
        metrics["trace.items_per_s"] = rate(traced_gauge.ref_seconds(
            [r["wall_s"] for r in traced]))
        metrics["trace.untraced_items_per_s"] = rate(
            untraced_gauge.ref_seconds([r["wall_s"] for r in untraced]))
        metrics["trace.overhead_frac"] = (
            metrics["trace.untraced_items_per_s"]
            / metrics["trace.items_per_s"] - 1.0)
        spans_path = RESULTS / f"{tag}.spans.jsonl"
        tracer.write_spans(spans_path)
        record["spans_file"] = spans_path.name
        record["layers"] = tracing.layer_summary(tracer.spans)
        record["calibration_s"] = {"setup": setup_gauge.samples,
                                   "untraced": untraced_gauge.samples,
                                   "traced": traced_gauge.samples}
    else:
        gauge = clock.Gauge()
        records = run_pass(items, gauge)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls = [r["wall_s"] for r in records]
        refs = gauge.ref_seconds(walls)
        for r, ref in zip(records, refs):
            r["ref_s"] = ref
        tail_ref, record["tail"] = tail(refs)
        metrics = {
            "setup_s": statistics.median(setup_gauge.ref_seconds(setup_walls)),
            "items_per_s": rate(refs),
            "item_s_p50": quantile(refs, 0.5),
            "item_s_tail": tail_ref,
            "peak_rss_mb": peak_rss_mb,
        }
        record["slowdown"] = statistics.median(gauge.samples) / clock.REF_CAL_S
        record["calibration_s"] = {"setup": setup_gauge.samples,
                                   "items": gauge.samples}
        record["wall"] = {"setup_s": statistics.median(setup_walls),
                          "items_per_s": rate(walls),
                          "item_s_p50": quantile(walls, 0.5),
                          "item_s_tail": tail(walls)[0]}

    failed = check(records)
    attempted = len(records)
    if not args.trace:
        metrics["pass_frac"] = 1.0 - failed / attempted
    record["fail_frac"] = failed / attempted
    record["items"] = [{"id": r["item"].id, "wall_s": r["wall_s"],
                        "ref_s": r.get("ref_s"), "error": r["error"]}
                       for r in records]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": _unit(k)}
                          for k, v in metrics.items()}}
    record["result"] = result
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")

    for r in records:
        if r["error"]:
            print(f"FAILED {r['item'].id}: {r['error']}", file=sys.stderr)
    print("env: " + json.dumps(env))
    print(f"{args.workload} seed {args.seed}: {attempted} items, "
          f"{failed} failed (fail_frac {failed / attempted:g} ratio)")
    if "tail" in record:
        t = record["tail"]
        print(f"item_s_tail is p{t['percentile']:.0f} of {t['samples']} "
              f"items ({t['beyond']} beyond)")
    if "wall" in record:
        w = record["wall"]
        print(f"wall clock: items_per_s {w['items_per_s']:.4g} 1/s, "
              f"item_s_p50 {w['item_s_p50']:.4g} s, setup_s "
              f"{w['setup_s']:.4g} s; calibration ran {record['slowdown']:.3f}x "
              f"its reference time; times below are reference seconds")
    for k, v in result["metrics"].items():
        print(f"  {k:40s} {v['value']:<14.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
