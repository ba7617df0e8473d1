"""Benchmark command for lcdunkl: one workload, one seed, one result line.

    python3 lcdbench/run.py --workload {cli_cold,estimate_warm,calculus_gauss}
                            --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ./src. BLAS
and OpenMP pools of this process and of every child are pinned to one
thread before numpy loads. The timed phase runs whole rounds of the
workload's operations until S seconds have passed, then checks every
output against the benchmark's own references. The last stdout line is
one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0; the per-layer metrics with --trace 1).

With --trace 1 the same rounds run twice, untraced and then with the
layer tracer installed; the per-layer metrics come from the traced pass
and trace.overhead_s is the traced minus the untraced wall time, per
operation. Raw outputs go to lcdbench/raw/.
"""

import os
import time

START = time.perf_counter()

THREAD_PINS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS, Record  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RAW = os.path.join(HERE, "raw")


def timed_phase(wl, seconds, rounds=None):
    """Whole rounds until `seconds` of operation time pass (or `rounds` rounds)."""
    records, wall, i = [], 0.0, 0
    while (wall < seconds) if rounds is None else (i < rounds):
        ops = wl.round_ops(i)
        t0 = time.perf_counter()
        for op in ops:
            s = time.perf_counter()
            try:
                out, err = wl.run(op), None
            except Exception as exc:  # an operation that raises is counted as failed
                out, err = None, f"{type(exc).__name__}: {exc}"
            records.append(Record(op, time.perf_counter() - s, out, err))
        wall += time.perf_counter() - t0
        i += 1
    return records, wall, i


def check_records(wl, records):
    by_round = {}
    for r in records:
        by_round.setdefault(r.op.round, []).append(r)
    for r in records:
        if r.error is None:
            try:
                r.checks = wl.check(r, by_round[r.op.round])
            except Exception as exc:  # unreadable or malformed output fails its operation
                r.error = f"check: {type(exc).__name__}: {exc}"


def setup_children(args, n):
    """Set-up time of `n` fresh processes running only this workload's set-up."""
    out = []
    for _ in range(n):
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def check_margins(records, extra_checks):
    """Worst measured/tolerance ratio of each check over the passing operations."""
    worst = {}
    for c in [c for r in records if not r.op.known_fault for c in r.checks] + list(extra_checks):
        worst[c.name] = max(worst.get(c.name, 0.0), c.measured / c.tolerance)
    return worst


def summarize(records, extra_checks):
    failed = [r for r in records if r.failed]
    unexpected = [r for r in failed if not r.op.known_fault]
    correct = not unexpected and all(c.ok for c in extra_checks)
    for r in unexpected[:5]:
        bad = r.error or "; ".join(f"{c.name}={c.measured:.3e} > {c.tolerance:.1e}" for c in r.checks if not c.ok)
        print(f"# FAILED {r.op.kind} round {r.op.round}: {bad}")
    for c in extra_checks:
        if not c.ok:
            print(f"# FAILED {c.name}={c.measured:.3e} > {c.tolerance:.1e}")
    return correct, len(failed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lcdunkl", "__init__.py")):
        print(f"lcdunkl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC

    cls = WORKLOADS[args.workload]
    raw_dir = os.path.join(RAW, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(raw_dir, ignore_errors=True)
    os.makedirs(raw_dir)

    if args.trace:
        from tracing import Tracer, layer_metrics, setup_metrics

        tracer = Tracer()
        if cls.in_process:
            tracer.install()
    wl = cls(args.seed, SRC, raw_dir)
    wl.setup()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"nproc={os.cpu_count()} threads={json.dumps(THREAD_PINS, sort_keys=True)}")

    if not args.trace:
        setup_samples = [setup_s] + setup_children(args, 2) if cls.in_process else wl.setup_samples()
        records, wall, rounds = timed_phase(wl, args.seconds)
        who = resource.RUSAGE_SELF if cls.in_process else resource.RUSAGE_CHILDREN
        rss_kb = resource.getrusage(who).ru_maxrss
        check_records(wl, records)
        ok_times = [r.seconds for r in records if not r.failed]
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (len(ok_times) / wall, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(ok_times) if ok_times else float("nan"), "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        detail = {"setup_samples_s": setup_samples, "rounds": rounds, "wall_s": wall,
                  "op_seconds": [[r.op.kind, r.seconds, r.failed] for r in records]}
    else:
        setup_spans = tracer.take()
        tracer.uninstall()
        _, plain_wall, rounds = timed_phase(wl, args.seconds)
        if cls.in_process:
            tracer.install()
        else:
            wl.traced = True
        records, wall, _ = timed_phase(wl, args.seconds, rounds=rounds)
        tracer.uninstall()
        check_records(wl, records)
        spans, import_s = (tracer.take(), 0.0) if cls.in_process else wl.traced_spans(records)
        values = layer_metrics(spans, len(records))
        values["cli.import_s"] = import_s
        values["trace.overhead_s"] = (wall - plain_wall) / len(records)
        values.update(setup_metrics(setup_spans))
        units = {"bessel_points": "count", "calls": "count", "table_builds": "count", "table_hit_ratio": "ratio",
                 "table_mb": "MB", "contraction_entries": "count", "transforms_per_estimate": "count",
                 "eval_points": "count", "bessel_ns_per_point": "ns", "ns_per_entry": "ns"}
        metrics = {name: (v, units.get(name.rsplit(".", 1)[1], "s")) for name, v in values.items()}
        detail = {"rounds": rounds, "untraced_wall_s": plain_wall, "traced_wall_s": wall}
        with open(os.path.join(raw_dir, "spans.json"), "w") as fh:
            json.dump(spans, fh)

    extra = wl.rule_checks() if hasattr(wl, "rule_checks") else []
    correct, n_failed = summarize(records, extra)
    detail["check_margins"] = check_margins(records, extra)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": n_failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(os.path.join(raw_dir, "result.json"), "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    if not cls.in_process:
        wl.cleanup(records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
