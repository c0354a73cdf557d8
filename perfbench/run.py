"""Repository benchmark: Airphant search latency, build time and index size.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-dnf-cranfield --seed 1 --seconds 3 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``BENCHMARK.json``):
``build-search-uniform-hdfs``, ``search-dnf-cranfield`` and
``search-skiplist-hdfs``. ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` wraps each layer's public functions and
prints the per-layer metrics instead. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Every other output (stores, Spark scratch, span dumps, provenance) goes
under ``.bench_build/perfbench/`` in the repository.

Spark runs in-process as ``local[4]`` with 4 shuffle partitions, whatever
the caller's environment says, and the Builder's Python workers get
``src`` on their ``PYTHONPATH`` from here.
"""
import time

T0 = time.perf_counter()  # setup_s counts from process start

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
MASTER = "local[4]"
SHUFFLE_PARTITIONS = 4
#: The tail percentile reported; runs hold at least ten queries beyond it.
TAIL_PCT = 90


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    """Identifies the program measured when the checkout has no git metadata."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _spark_env(scratch: Path) -> None:
    """Pin the Spark launch before pyspark starts its JVM."""
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ.pop("SPARK_MASTER", None)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", MASTER,
        "--driver-memory", "1g",
        # no hsperfdata file under /tmp: the run writes only inside the checkout
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", shlex.quote(f"spark.local.dir={tmp}"),
        "pyspark-shell",
    ])


def _start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM (and with it the Python workers) to exit."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is None:
        return
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    scratch = WORK / f"run-{os.getpid()}"
    _spark_env(scratch)
    spark = _start_spark()
    spark_s = time.perf_counter() - T0
    try:
        s = bench.setup(spark, w, args.seed, scratch)
        setup_s = time.perf_counter() - T0
        if args.trace:
            metrics, samples, tracer = bench.traced(s, spark, args.seconds)
            wanted = spec["per_layer"]
        else:
            samples, _ = bench.measure(s, spark, args.seconds)
            metrics = bench.end_to_end(s, samples, setup_s, TAIL_PCT)
            wanted = spec["end_to_end"]
    finally:
        _stop_spark(spark)
        shutil.rmtree(scratch, ignore_errors=True)
    import pyspark

    provenance = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "src_sha256": _source_digest(), "nproc": os.cpu_count(), "spark": pyspark.__version__,
        "python": platform.python_version(), "spark_master": MASTER,
        "shuffle_partitions": SHUFFLE_PARTITIONS, "queries_per_pass": w.n_queries,
        "queries_measured": len(samples.cpu_ms), "setup_s": setup_s,
        "setup_phases": {"spark_s": spark_s, **s.phases},
    }
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(out_dir / f"{stem}.spans.jsonl")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    bench.report_errors(samples)
    result = {
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps({"provenance": provenance, **result}, indent=1))
    print(json.dumps({"provenance": provenance}))
    print(f"failed_frac {samples.failed / samples.attempted:.6g}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
