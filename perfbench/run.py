#!/usr/bin/env python3
"""Layered benchmark of the join-project engine (see BENCHMARK.json).

Run one workload (builds the benchmark first if needed):

    python3 perfbench/run.py --workload paper-dense --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones; with --trace 1 the per-layer ones. Each run also stores its full record
(machine fingerprint, notes, raw cold-probe samples) under
<build dir>/results/.

Other modes:

    python3 perfbench/run.py --selftest
        builds and runs the arithmetic self-test, then a tiny-size smoke run
        of every workload (untraced and traced).
    python3 perfbench/run.py --compare BASE.json [...] --against NEW.json [...]
        compares two sets of stored result records workload by workload
        (medians, change against each metric's bound); refuses to compare
        records whose machine fingerprints differ.
    python3 perfbench/run.py --write-manifest [--seed N]
        runs each workload traced once and rewrites BENCHMARK.json, whose
        workload rationales quote the shares measured in that run.

The build goes to $CARGO_TARGET_DIR/perfbench when that names a directory
inside the checkout, else to .bench_build/perfbench.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The workloads, in order; perfbench/src/main.cpp defines their queries.
WORKLOADS = ("paper-dense", "paper-sparse", "service-mixed")

# name, unit, better, bound (share of the parent's median a change may lose).
# Timings on a shared 4-vCPU host drift by about 10% from run to run, all
# queries together, so the timing bounds sit at the 0.25 ceiling; peak RSS
# repeats within about 2%.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cold_query_ms", "ms", "lower", 0.2),
    ("twopath_ms", "ms", "lower", 0.25),
    ("ssj_ms", "ms", "lower", 0.25),
    ("scj_ms", "ms", "lower", 0.25),
    ("star_ms", "ms", "lower", 0.25),
    ("service_qps", "1/s", "higher", 0.25),
    ("service_p50_ms", "ms", "lower", 0.25),
    ("service_tail_ms", "ms", "lower", 0.25),
    ("write_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# name, unit, better. Reported by --trace 1 on every workload (0 where the
# layer is idle).
PER_LAYER = [
    ("matrix.calibrate_ms", "ms", "lower"),
    ("matrix.kernel_ms", "ms", "lower"),
    ("matrix.kernel_nnz_per_s", "1/s", "higher"),
    ("matrix.blocks.dense", "count", "higher"),
    ("matrix.blocks.csr_dense", "count", "higher"),
    ("matrix.blocks.csr_csr", "count", "higher"),
    ("optimizer.plan_ms", "ms", "lower"),
    ("optimizer.regret", "ratio", "lower"),
    ("optimizer.out_qerror", "ratio", "lower"),
    ("optimizer.heavy_qerror", "ratio", "lower"),
    ("optimizer.plan_mismatch", "count", "lower"),
    ("mm_join.threshold_fit_ms", "ms", "lower"),
    ("mm_join.light_ms", "ms", "lower"),
    ("mm_join.csr_build_ms", "ms", "lower"),
    ("mm_join.degree_remap_ms", "ms", "lower"),
    ("mm_join.pack_ms", "ms", "lower"),
    ("mm_join.emit_ms", "ms", "lower"),
    ("mm_join.heavy_wall_ms", "ms", "lower"),
    ("mm_join.heavy_share", "ratio", "lower"),
    ("mm_join.emit_per_kernel", "ratio", "lower"),
    ("mm_join.blocks_pruned_frac", "ratio", "higher"),
    ("mm_join.parallel_eff", "ratio", "higher"),
    ("wcoj.ms", "ms", "lower"),
    ("wcoj.parallel_eff", "ratio", "higher"),
    ("star_join.plan_ms", "ms", "lower"),
    ("star_join.light_ms", "ms", "lower"),
    ("star_join.heavy_ms", "ms", "lower"),
    ("star_join.sink_finish_ms", "ms", "lower"),
    ("result_sink.finish_ms", "ms", "lower"),
    ("storage.add_relation_ms", "ms", "lower"),
    ("storage.prepare_ms", "ms", "lower"),
    ("query_service.queue_wait_ms", "ms", "lower"),
    ("query_service.shed", "count", "lower"),
    ("query_service.degraded", "count", "lower"),
    ("query_service.overhead_ms", "ms", "lower"),
    ("query_batcher.batch_wait_ms", "ms", "lower"),
    ("query_batcher.fanout_ms", "ms", "lower"),
    ("query_batcher.follower_frac", "ratio", "higher"),
    ("result_cache.hit_rate", "ratio", "higher"),
    ("result_cache.probe_ms", "ms", "lower"),
    ("result_cache.bypass_frac", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

RUN_SECONDS = 25
COLD_PROBES = 8
MAIN_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30
BUILD_TIMEOUT_S = 840
COVERAGE_FLOOR = 0.95


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    if env:
        d = (ROOT / env).resolve()
        if d == ROOT or ROOT in d.parents:
            return d / "perfbench"
    return ROOT / ".bench_build" / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    bdir = build_dir()
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (bdir / "CMakeCache.txt").exists():
        bdir.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr,
            timeout=max(1, deadline - time.monotonic()))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(bdir), "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr,
        timeout=max(1, deadline - time.monotonic()))
    return bdir


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError("no JSON result line")


def run_binary(bdir, args, timeout):
    proc = subprocess.run([str(bdir / "perfbench")] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    return proc.returncode, last_json_line(proc.stdout)


def run_workload(bdir, workload, seed, seconds, trace, size=None):
    """One benchmark run: the main process between two halves of the cold
    probes (untraced only), so a slow spell of the host at either end of
    the run moves at most half of the probes."""
    extra = ["--size", str(size)] if size else []
    base = ["--workload", workload, "--seed", str(seed)] + extra
    cold = []
    attempted = failed = 0

    def probes(n):
        nonlocal attempted, failed
        for _ in range(n):
            rc, probe = run_binary(bdir, base + ["--cold-probe"], PROBE_TIMEOUT_S)
            attempted += 1
            if rc != 0 or not probe.get("correct"):
                failed += 1
            else:
                cold.append(probe["cold_ms"])

    if not trace:
        probes(COLD_PROBES // 2)
    rc, res = run_binary(bdir, base + ["--seconds", str(seconds), "--trace",
                                       "1" if trace else "0"], MAIN_TIMEOUT_S)
    if not trace:
        probes(COLD_PROBES - COLD_PROBES // 2)
    metrics = res["metrics"]
    if not trace:
        ordered = {}
        for name, unit, _, _ in END_TO_END:
            if name == "cold_query_ms":
                ordered[name] = {"value": statistics.median(cold) if cold else 0.0,
                                 "unit": unit}
            elif name in metrics:
                ordered[name] = metrics[name]
        metrics = ordered
    attempted += res["attempted"]
    failed += res["failed"]
    result = {
        "correct": bool(res["correct"]) and failed == 0 and rc == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=int(trace), machine=res.get("machine", {}),
                  notes=res.get("notes", {}), cold_samples_ms=cold)
    return result, record


def store(record):
    out = build_dir() / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "{}_seed{}_trace{}.json".format(
        record["workload"], record["seed"], record["trace"])
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def check_layers(record):
    """Diagnostics on a traced record: low trace coverage is flagged."""
    m = record["metrics"]
    cov = m.get("trace.coverage", {}).get("value", 0.0)
    if cov < COVERAGE_FLOOR:
        log("WARNING: {} trace.coverage {:.3f} < {}".format(
            record["workload"], cov, COVERAGE_FLOOR))


def selftest():
    bdir = build()
    rc = subprocess.run([str(bdir / "perfbench_selftest")]).returncode
    if rc != 0:
        return rc
    for workload in WORKLOADS:
        for trace in (False, True):
            result, record = run_workload(bdir, workload, 7, 1, trace, size=0.05)
            names = [n for n, *_ in (PER_LAYER if trace else END_TO_END)]
            missing = [n for n in names if n not in result["metrics"]]
            ok = result["correct"] and result["failed"] == 0 and not missing
            log("smoke {} trace={}: {} (attempted {}, missing {})".format(
                workload, int(trace), "ok" if ok else "FAILED",
                result["attempted"], missing))
            if not ok:
                return 1
    log("perfbench smoke: all workloads ok")
    return 0


def fingerprint(record):
    return json.dumps(record.get("machine", {}), sort_keys=True)


def compare(base, new):
    sides = [[json.loads(Path(p).read_text()) for p in paths] for paths in (base, new)]
    prints = {fingerprint(r) for side in sides for r in side}
    if len(prints) != 1:
        log("refusing to compare: machine fingerprints differ:")
        for fp in sorted(prints):
            log("  " + fp)
        return 3
    bounds = {n: (b, better) for n, _, better, b in END_TO_END}
    worse = 0
    workloads = sorted({r["workload"] for side in sides for r in side})
    for w in workloads:
        runs = [[r for r in side if r["workload"] == w] for side in sides]
        names = sorted({n for side in runs for r in side for n in r["metrics"]})
        print("== " + w)
        for n in names:
            vals = [[r["metrics"][n]["value"] for r in side if n in r["metrics"]]
                    for side in runs]
            if not vals[0] or not vals[1]:
                continue
            a, b = statistics.median(vals[0]), statistics.median(vals[1])
            change = (b - a) / a if a else 0.0
            flag = ""
            if n in bounds:
                bound, better = bounds[n]
                loss = change if better == "lower" else -change
                if loss > bound:
                    flag = "  WORSE than bound {}".format(bound)
                    worse += 1
            print("  {:32s} {:14.6g} -> {:14.6g}  {:+7.1%}{}".format(n, a, b, change, flag))
    return 1 if worse else 0


def why_texts(records):
    """Workload rationales quoting the shares measured in traced runs."""
    def v(w, name):
        return records[w]["metrics"].get(name, {}).get("value", 0.0)

    def blocks(w):
        return sum(v(w, "matrix.blocks." + k) for k in ("dense", "csr_dense", "csr_csr"))

    d, s, m = WORKLOADS
    notes = records[m].get("notes", {})
    return {
        d: ("Heavy MM product dominates: heavy = {:.0%} of two-path execute wall, "
            "{:.0f} kernel blocks/round; star sink-finish {:.0f} ms. Loads matrix, "
            "mm_join, optimizer, star_join; no service.").format(
                v(d, "mm_join.heavy_share"), blocks(d), v(d, "star_join.sink_finish_ms")),
        s: ("Optimizer plans wcoj-full: {:.0f} heavy blocks, kernel {:.1f} ms, so "
            "matrix and mm_join idle; wcoj {:.0f} ms/round, regret {:.2f}. A kernel "
            "change should not move it.").format(
                blocks(s), v(s, "matrix.kernel_ms"), v(s, "wcoj.ms"),
                v(s, "optimizer.regret")),
        m: ("Loads admission, batching, cache, catalog writes: {:.0%} of reads hit "
            "the cache, {:.0%} bypass it (over entry limit), {:.0%} followers; tail "
            "= p{:.2f} of {:.0f} reads.").format(
                v(m, "result_cache.hit_rate"), v(m, "result_cache.bypass_frac"),
                v(m, "query_batcher.follower_frac"),
                notes.get("tail_percentile", 0.0), notes.get("tail_samples", 0)),
    }


def write_manifest(seed):
    bdir = build()
    records = {}
    for w in WORKLOADS:
        _, rec = run_workload(bdir, w, seed, RUN_SECONDS, True)
        # The tail percentile and its sample count come from the untraced run.
        _, rec0 = run_workload(bdir, w, seed, RUN_SECONDS, False)
        log("{}: records {} and {}".format(w, store(rec), store(rec0)))
        rec["notes"] = rec0["notes"]
        check_layers(rec)
        records[w] = rec
    whys = why_texts(records)
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": whys[w]} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    for w in manifest["workloads"]:
        if len(w["why"]) > 200:
            raise RuntimeError("why too long for {}: {}".format(w["name"], w["why"]))
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")
    log("wrote BENCHMARK.json")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-manifest", action="store_true")
    ap.add_argument("--compare", nargs="+", metavar="BASE.json")
    ap.add_argument("--against", nargs="+", metavar="NEW.json")
    args = ap.parse_args()

    if args.compare or args.against:
        if not (args.compare and args.against):
            ap.error("--compare needs --against")
        return compare(args.compare, args.against)
    if args.selftest:
        return selftest()
    if args.write_manifest:
        return write_manifest(args.seed)
    if not args.workload:
        ap.error("--workload is required")

    bdir = build()
    result, record = run_workload(bdir, args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    path = store(record)
    log("machine: {}  (record: {})".format(fingerprint(record), path))
    if args.trace:
        check_layers(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: {}".format(e))
        sys.exit(1)
