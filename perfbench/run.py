"""Run one htaplite benchmark workload and print its metrics.

    python3 perfbench/run.py --workload htap --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from its
`src/` directory. A run is a few segments run one after another, each in
a process of its own (segment.py), and the metrics pool their samples.
With --trace 0 the run reports the end-to-end metrics; with --trace 1
the same run has timing wrappers installed and reports the per-layer
metrics instead. Every metric is printed as a
`name value unit` line, a run record and (when traced) the spans go to
the --out directory, and the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the engine cannot be imported from the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# time a segment may take beyond its share of the run, for its engine
# build, its checks and a slow host
SEGMENT_MARGIN_S = 30


def import_engine():
    """Import htaplite from this checkout's src/, or say why not."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import htaplite
    except ImportError as exc:
        return "cannot import htaplite from %s: %s" % (src, exc)
    where = Path(htaplite.__file__).resolve().parent.parent
    if where != src.resolve():
        return "htaplite imported from %s, not from %s" % (where, src)
    return None


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def source_revision():
    """Git revision when the checkout has one, plus a digest of src/."""
    revision = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            revision = (target.read_text(encoding="utf-8").strip()
                        if target.is_file() else ref[5:])
        else:
            revision = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return revision, digest.hexdigest()[:16]


def percentile(values, q):
    return float(np.percentile(values, q))


def segment_cpus():
    """The CPUs a round of segments runs on, one segment pinned to each."""
    import workloads
    return sorted(os.sched_getaffinity(0))[:workloads.PARALLEL]


def run_segments(workload, seed, seconds, trace, scale, out_dir):
    """Run the segments in rounds, one per CPU at a time; returns their outputs."""
    import workloads
    cpus = segment_cpus()
    segment_seconds = seconds * len(cpus) / workloads.SEGMENTS
    outputs = []
    for first in range(0, workloads.SEGMENTS, len(cpus)):
        running = []
        try:
            for i, cpu in enumerate(cpus, start=first):
                spans = None
                if trace:
                    spans = str(out_dir / ("%s-seed%d-seg%d-spans.jsonl" % (workload, seed, i)))
                args = {"workload": workload, "seed": seed,
                        "seconds": segment_seconds, "trace": trace,
                        "scale": scale, "spans": spans, "cpu": cpu}
                running.append(subprocess.Popen(
                    [sys.executable, str(BENCH_DIR / "segment.py"), json.dumps(args)],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            deadline = perf_counter() + segment_seconds + SEGMENT_MARGIN_S
            for i, proc in enumerate(running, start=first):
                stdout, stderr = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
                if proc.returncode != 0:
                    raise RuntimeError("segment %d exited %d:\n%s"
                                       % (i, proc.returncode, stderr[-4000:]))
                outputs.append(json.loads(stdout.strip().splitlines()[-1]))
        finally:
            for proc in running:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
    return outputs


def end_to_end(segments):
    """The end-to-end metrics and, per tail metric, its sample count."""
    txn_ms = [1000.0 * x for seg in segments for x in seg["txn_latencies"]]
    per_query = {q: [1000.0 * x for seg in segments for x in seg["query_latencies"][q]]
                 for q in ("q1", "q6", "q19")}
    query_ms = [x for values in per_query.values() for x in values]
    attempted = sum(seg["txn_attempted"] + seg["query_attempted"] for seg in segments)
    failed = sum(sum(seg["txn_failures"].values()) + sum(seg["query_failures"].values())
                 for seg in segments)
    metrics = {
        "setup_s": statistics.median(seg["setup_s"] for seg in segments),
        "txn_per_s": statistics.median(len(seg["txn_latencies"]) / seg["txn_elapsed"]
                                       for seg in segments),
        "txn_p50_ms": percentile(txn_ms, 50),
        "txn_p90_ms": percentile(txn_ms, 90),
        "query_per_s": statistics.median(
            sum(map(len, seg["query_latencies"].values())) / seg["query_elapsed"]
            for seg in segments),
        "query_p50_ms": percentile(query_ms, 50),
        "query_p90_ms": percentile(query_ms, 90),
        "q1_p50_ms": statistics.median(per_query["q1"]),
        "q6_p50_ms": statistics.median(per_query["q6"]),
        "q19_p50_ms": statistics.median(per_query["q19"]),
        "peak_rss_mb": statistics.median(seg["rss_mb"] for seg in segments),
        "ok_ratio": (attempted - failed) / attempted,
    }
    beyond = {"txn_p90_ms": len(txn_ms) // 10, "query_p90_ms": len(query_ms) // 10}
    # recorded, not reported: too unsteady from run to run to hold a bound
    tail = {"p99": percentile(txn_ms, 99), "max": max(txn_ms)}
    return metrics, beyond, tail, attempted, failed


def run(workload, seed, seconds, trace, scale, out_dir):
    """One run; returns (result line dict, run record dict)."""
    import tracing
    import workloads

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    segments = run_segments(workload, seed, seconds, trace, scale, out_dir)
    metrics, beyond, tail, attempted, failed = end_to_end(segments)
    raw_metrics = end_to_end([dict(seg, **seg["raw"]) for seg in segments])[0]
    problems = [p for seg in segments for p in seg["problems"]]
    prints = [seg["fingerprint"] for seg in segments]
    if workload in workloads.DETERMINISTIC and any(p != prints[0] for p in prints):
        problems.append("segments of one seed disagree on the fingerprint: %r" % prints)

    def summed(key):
        total = Counter()
        for seg in segments:
            total.update(seg[key])
        return dict(total)

    revision, src_digest = source_revision()
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": bool(trace),
        "params": workloads.params(scale, seed),
        "revision": revision,
        "src_sha": src_digest,
        "nproc": os.cpu_count(),
        "segment_cpus": segment_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "correct": not problems,
        "problems": problems[:20],
        "transactions": {"attempted": sum(seg["txn_attempted"] for seg in segments),
                         "failures": summed("txn_failures")},
        "queries": {"attempted": sum(seg["query_attempted"] for seg in segments),
                    "failures": summed("query_failures")},
        "tracebacks": {k: v for seg in segments for k, v in seg["tracebacks"].items()},
        "samples_beyond_tail": beyond,
        "txn_tail_ms": tail,
        "setup_s": [seg["setup_s"] for seg in segments],
        "host_factor": [seg["host_factor"] for seg in segments],
        "fingerprint": prints[0],
        "end_to_end": metrics,
        "raw_end_to_end": raw_metrics,
    }
    lateness = [x for seg in segments for x in seg["txn_lateness"]]
    if lateness:
        record["writer_late_ms"] = {"p50": 1000.0 * percentile(lateness, 50),
                                    "p99": 1000.0 * percentile(lateness, 99),
                                    "max": 1000.0 * max(lateness)}

    spec = load_spec()
    if not trace:
        chosen = {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]}
    else:
        exports = [seg["trace"] for seg in segments]
        stats, children, durations, counts = tracing.combine(exports)
        layer = tracing.per_layer(stats, durations, counts)
        layer["txn.retries"] = sum(seg["aborts"] for seg in segments)
        for name in ("version_entries", "bytes_per_user_byte"):
            layer["storage." + name] = statistics.median(e[name] for e in exports)
        chosen = {m["name"]: layer[m["name"]] for m in spec["per_layer"]}
        record["run_query_accounting"] = tracing.run_query_accounting(stats, children)
        record["spans"] = {"kept": sum(e["spans_kept"] for e in exports),
                           "closed": sum(c for c, _, _ in stats.values())}

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in chosen.items()}

    stem = "%s-seed%d" % (workload, seed)
    untraced = out_dir / (stem + "-trace0.json")
    if trace and untraced.is_file():
        base = json.loads(untraced.read_text(encoding="utf-8"))
        # only an untraced run of the same sources and parameters compares
        if all(base.get(k) == record[k] for k in ("src_sha", "params", "seconds")):
            record["tracing_overhead"] = {k: metrics[k] - base["end_to_end"][k]
                                          for k in metrics if k in base["end_to_end"]}
    (out_dir / ("%s-trace%d.json" % (stem, trace))).write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": record["metrics"]}
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=100.0,
                        help="table scale factor (100: 60,012 order lines)")
    parser.add_argument("--out", default=str(ROOT / ".bench_out"),
                        help="directory for the run record and spans")
    args = parser.parse_args(argv)

    problem = import_engine()
    if problem is None and not (ROOT / "BENCHMARK.json").is_file():
        problem = "no BENCHMARK.json at %s" % ROOT
    if problem is not None:
        print("perfbench: " + problem, file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))

    result, record = run(args.workload, args.seed, args.seconds, args.trace,
                         args.scale, args.out)
    for problem in record["problems"]:
        print("CHECK FAILED: " + problem)
    for kind, text in record["tracebacks"].items():
        print("first %s:\n%s" % (kind, text.rstrip()), file=sys.stderr)
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    if "tracing_overhead" in record:
        print("tracing overhead: " + json.dumps(record["tracing_overhead"], sort_keys=True))
    raw = record["raw_end_to_end"]
    for name, metric in result["metrics"].items():
        print("%-32s %14.6g %-6s%s" % (name, metric["value"], metric["unit"],
                                       "  raw %.6g" % raw[name] if name in raw else ""))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
