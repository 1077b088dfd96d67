"""Paper-experiment benchmark for the DomainNet reproduction.

    python3 perfbench/run.py --workload sb-top55 --seed 0 --seconds 10 --trace 0

Run from the repository root. One run starts Spark through
``jobs/_common.get_spark`` (the program's own session settings) and
times the first harness call in that fresh JVM, which is what one
``python jobs/<experiment>.py`` costs; calls made after it while
``--seconds`` last are warm and only recorded. Every call's output is
checked (``workloads.py``); a call that raises or fails its check counts
as failed, and a run whose measured call failed prints no result.

``--trace 0`` prints the end-to-end metrics: ``run_s`` (the first call),
``setup_s`` (imports and Spark start), the driver's peak RSS and
``p_at_nhom.bc``. ``--trace 1`` makes the first call traced, repeats it
untraced in a second JVM on the same lake, and prints the per-layer
metrics (``spans.py``) and the tracing overhead (traced minus untraced
``run_s``). The last stdout line is one JSON object; the lines before it
name every metric with its unit.
Spans, per-call records and the environment go to
``.perfbench/<workload>-seed<n>-trace<t>.json``; the JVM's log goes to
the ``.log`` file beside it.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
#: Master width: Spark local mode, no wider than the machine.
CORES = min(4, len(os.sched_getaffinity(0)))
DRIVER_MEMORY = "2g"
WINDOW_WARNING = "No Partition Defined for Window operation"
#: Sources of the single-core kernel baseline (``bc.kernel_ms_per_source``).
KERNEL_SOURCES = 200

sys.path.insert(0, str(HERE))


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def check_layout() -> None:
    """Fail before starting Spark when the program is not beside us."""
    for rel in ("src/repro/eval/experiments.py", "jobs/_common.py"):
        if not (ROOT / rel).is_file():
            sys.exit(f"perfbench: {ROOT / rel} not found; run from a full checkout")


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess; an
    exported checkout has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def configure() -> None:
    """Environment for the Spark JVM and its Python workers. Workers need
    ``src`` on ``PYTHONPATH``; scratch files stay inside the checkout."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    # The program's own default is what gets measured.
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)
    # For the launcher JVM too; -XX:-UsePerfData keeps the JVMs' hsperfdata
    # files out of /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )
    sys.path[:0] = [src, str(ROOT / "jobs")]


def start_spark(log_path: Path):
    """Start a JVM and the program's SparkSession (``get_spark``), with
    the JVM's stderr, its log, appended to ``log_path``."""
    from _common import get_spark

    saved = os.dup(2)
    with open(log_path, "ab") as log:
        os.dup2(log.fileno(), 2)
    try:
        return get_spark("perfbench")
    finally:
        os.dup2(saved, 2)
        os.close(saved)


def stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = spark.sparkContext._gateway
    proc = gateway.proc
    spark.stop()
    gateway.shutdown()
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    # The next SparkContext launches a JVM of its own.
    SparkContext._gateway = None
    SparkContext._jvm = None


def jvm_peak_rss_mb(spark) -> float:
    pid = spark.sparkContext._gateway.proc.pid
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for JVM pid {pid}")


def persisted_rdds(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


def environment(spark) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    sc = spark.sparkContext
    conf = spark.conf
    return {
        "git_commit": git_commit(),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory", "?"),
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "adaptive_enabled": conf.get("spark.sql.adaptive.enabled"),
        "arrow_enabled": conf.get("spark.sql.execution.arrow.pyspark.enabled"),
        "auto_broadcast_threshold": conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "python": platform.python_version(),
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class LogCounter:
    """Counts the JVM's window warnings written since the last call."""

    def __init__(self, path: Path):
        self.path = path
        self.offset = path.stat().st_size

    def take(self) -> int:
        with open(self.path, "rb") as f:
            f.seek(self.offset)
            text = f.read()
        self.offset += len(text)
        return text.decode("utf-8", "replace").count(WINDOW_WARNING)


def harness_call(spark, wl, seed: int, logs: LogCounter, records: list) -> dict:
    """One checked harness call → its record (``ok`` False on failure)."""
    rec = {"seed": seed, "ok": False}
    before = persisted_rdds(spark)
    t0 = time.perf_counter()
    try:
        out = wl.call(spark, seed)
        rec["run_s"] = time.perf_counter() - t0
        rec["quality"] = wl.quality(out)
        rec["check_failures"] = wl.check(out, rec["quality"])
        rec["ok"] = not rec["check_failures"]
    except Exception:  # a failing call is a result, not a crash
        rec["run_s"] = time.perf_counter() - t0
        rec["error"] = traceback.format_exc()
        print(rec["error"], file=sys.stderr)
    rec["window_warnings"] = logs.take()
    rec["persisted_rdds"] = persisted_rdds(spark)
    rec["persisted_growth"] = rec["persisted_rdds"] - before
    for msg in rec.get("check_failures", []):
        print(f"perfbench: seed {seed}: output check failed: {msg}", file=sys.stderr)
    records.append(rec)
    return rec


def kernel_ms_per_source(csr, seed: int) -> float:
    """Single-core Brandes time per source on the driver, over a fixed,
    seeded set of sources of the traced call's last BC graph."""
    import numpy as np

    from repro.core.betweenness import brandes_dependencies

    rng = np.random.default_rng(seed)
    srcs = rng.choice(csr.n, size=min(KERNEL_SOURCES, csr.n), replace=False)
    t0 = time.perf_counter()
    for s in srcs:
        brandes_dependencies(csr.indptr, csr.indices, int(s))
    return (time.perf_counter() - t0) * 1000.0 / len(srcs)


def traced_call(spark, wl, seed, logs, records) -> tuple[dict, dict]:
    """One traced harness call → (its record, per-layer metrics)."""
    from spans import Tracer

    tracer = Tracer(spark, run_id=f"{wl.name}-{seed}")
    with tracer.patched():
        rec = harness_call(spark, wl, seed, logs, records)
    rec["traced"] = True
    self_s = tracer.self_seconds()
    counts = tracer.spark_counts()
    rec["spans"] = [vars(s) | {"seconds": s.seconds} for s in tracer.spans]
    rec["layer_spark"] = counts

    def c(layer, key):
        return counts.get(layer, {}).get(key, 0)

    kernel_ms = kernel_ms_per_source(tracer.bc_csr, seed) if tracer.bc_csr else 0.0
    bc_s = self_s.get("bc", 0.0)
    cores = spark.sparkContext.defaultParallelism
    return rec, {
        "lakes.gen_s": (self_s.get("lakes.gen", 0.0), "s"),
        "lakes.truth_s": (self_s.get("lakes.truth", 0.0), "s"),
        "lakes.clean_s": (self_s.get("lakes.clean", 0.0), "s"),
        "lakes.inject_s": (self_s.get("lakes.inject", 0.0), "s"),
        "graph.build_s": (self_s.get("graph", 0.0), "s"),
        "graph.spark_jobs": (c("graph", "jobs"), "count"),
        "graph.spark_tasks": (c("graph", "tasks"), "count"),
        "graph.n_nodes": (tracer.graph_sizes.get("n_nodes", 0), "count"),
        "graph.n_edges": (tracer.graph_sizes.get("n_edges", 0), "count"),
        "csr.collect_s": (self_s.get("csr", 0.0), "s"),
        "csr.bytes": (tracer.csr_bytes, "B"),
        "bc.s": (bc_s, "s"),
        "bc.sources": (tracer.bc_sources, "count"),
        "bc.kernel_ms_per_source": (kernel_ms, "ms"),
        "bc.cores": (cores, "count"),
        # Share of the cores' BC time spent in the kernel: sources ×
        # single-core ms/source over bc.s × cores.
        "bc.fanout_efficiency": (
            tracer.bc_sources * kernel_ms / (bc_s * 1000.0 * cores) if bc_s else 0.0,
            "ratio",
        ),
        "bc.spark_tasks": (c("bc", "tasks"), "count"),
        "lcc.s": (self_s.get("lcc", 0.0), "s"),
        "lcc.spark_tasks": (c("lcc", "tasks"), "count"),
        "rank.s": (self_s.get("rank", 0.0), "s"),
        "rank.spark_jobs": (c("rank", "jobs"), "count"),
        "metrics.s": (self_s.get("metrics", 0.0), "s"),
        "metrics.spark_jobs": (c("metrics", "jobs"), "count"),
        "d4.s": (self_s.get("d4", 0.0), "s"),
        "run.spark_jobs": (sum(v["jobs"] for v in counts.values()), "count"),
        "run.spark_stages": (sum(v["stages"] for v in counts.values()), "count"),
        "run.spark_tasks": (sum(v["tasks"] for v in counts.values()), "count"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    check_layout()
    from workloads import WORKLOADS, call_seed

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    log_path = stem.with_suffix(".log")
    log_path.write_bytes(b"")
    configure()
    seed = call_seed(args.seed, 0)
    records: list[dict] = []

    # run_s is the first harness call in a fresh JVM, as one
    # ``python jobs/<experiment>.py`` pays it. A traced run makes that
    # call traced, then the same call untraced in a second JVM.
    spark = start_spark(log_path)
    setup_s = time.perf_counter() - T_START
    try:
        env = environment(spark)
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        logs = LogCounter(log_path)
        if args.trace:
            traced, layers = traced_call(spark, wl, seed, logs, records)
        else:
            t0 = time.perf_counter()
            harness_call(spark, wl, seed, logs, records)
            # Later calls are warm; they are recorded, not reported.
            while time.perf_counter() - t0 < args.seconds:
                harness_call(spark, wl, call_seed(args.seed, len(records)), logs, records)
        jvm_hwm = jvm_peak_rss_mb(spark)
    finally:
        stop_spark(spark)
    if args.trace:
        spark = start_spark(log_path)
        try:
            harness_call(spark, wl, seed, LogCounter(log_path), records)
        finally:
            stop_spark(spark)
    first = records[-1] if args.trace else records[0]

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "trace": args.trace, "env": env,
         "setup_s": setup_s, "jvm_peak_rss_mb": jvm_hwm, "calls": records},
        indent=1, default=str,
    ))
    measured = [first, traced] if args.trace else [first]
    if not all(r["ok"] for r in measured):
        print("perfbench: a measured call failed; no result", file=sys.stderr)
        return 1
    if args.trace:
        metrics = layers | {
            # Leak and log counters come from the untraced call: the
            # traced one releases the caches its materializations took.
            "spark.persisted_rdds": (first["persisted_growth"], "count/run"),
            "spark.window_warnings": (first["window_warnings"], "count/run"),
            "trace.run_s": (traced["run_s"], "s"),
            "trace.overhead_s": (traced["run_s"] - first["run_s"], "s"),
        }
    else:
        metrics = {
            "run_s": (first["run_s"], "s"),
            "setup_s": (setup_s, "s"),
            "driver_peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "p_at_nhom.bc": (first["quality"]["p_at_nhom.bc"], "fraction"),
        }
        for k, v in first["quality"].items():
            if k != "p_at_nhom.bc":
                print(f"quality {k} = {v:.4f} fraction")
    warm = [r["run_s"] for r in records[1:] if r["ok"] and not args.trace]
    print(f"calls {attempted}, failed {failed}, error_rate {failed / attempted:.4f}, "
          f"JVM peak RSS {jvm_hwm:.0f} MB"
          + (f", warm calls median {statistics.median(warm):.2f} s" if warm else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
