#!/usr/bin/env python3
"""End-to-end benchmark of the CLIMBER reproduction, with checked answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload point-query --seed 1 --seconds 10 --trace 0

One run starts one local SparkSession, generates RandomWalk 20k x 256
(``synth_data.random_walk_series``), builds a CLIMBER index with the
default ``ClimberParams()`` where the workload needs one, warms up, then
calls the workload's operation in a closed loop (one call in flight) for
``--seconds`` seconds, in whole rounds. Every answer and every build is
checked against numpy (``checks.py``); an operation whose output fails a
check counts as failed. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. README.md describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks as C
from selftest import run_selftest
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

N_SERIES, LENGTH, DATA_SEED = 20_000, 256, 11
K = 50
# The query set: BATCH members of the data set drawn with a fixed generator
# (paper §VII-A), the same for every --seed and chosen without the program,
# so every run meets the same queries; --seed orders the calls.
QUERY_SEED, BATCH = 0, 200
ROUND = 20  # point calls per round: the first ROUND queries of the set
DRIVER_MEMORY = "2g"
CORES = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    variant: str  # CLIMBER query variant, or "dss" for the exact full scan
    single: bool  # one query per call; otherwise the whole query set per call
    warmup_calls: int  # unmeasured calls before the first round

    @property
    def index(self) -> bool:
        return self.variant != "dss"

    def round(self, seed: int) -> list:
        """The calls of one round, in the seed's order: positions in the query set per call."""
        rng = np.random.default_rng(seed)
        if self.single:
            return [[int(j)] for j in rng.permutation(ROUND)]
        return [[int(j) for j in rng.permutation(BATCH)]]


WORKLOADS = {
    # Latency of a point call falls over the first ~100 calls of a process
    # as the JVM warms up, steepest over the first ~30.
    "point-query": Workload("adaptive-4x", True, 30),
    "full-scan": Workload("dss", False, 1),
}

END_TO_END = {"setup_s": "s", "call_p50_ms": "ms", "queries_per_s": "1/s", "recall": "share"}


T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"perfbench: {time.perf_counter() - T0:7.1f} s  {msg}", file=sys.stderr, flush=True)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------


def pin_environment(work: Path) -> None:
    """Fix Spark's settings here instead of inheriting them from SPARK_* variables."""
    for var in ("MASTER", "SPARK_MASTER", "SPARK_LOCAL_DIRS", "SPARK_CONF_DIR", "SPARK_DRIVER_MEMORY",
                "SPARK_DRIVER_MEM", "SPARK_EXECUTOR_MEMORY", "SPARK_SHUFFLE_PARTITIONS",
                "PYSPARK_SUBMIT_ARGS", "PYSPARK_DRIVER_PYTHON"):
        os.environ.pop(var, None)
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    # Spark's Python workers import ``repro`` from the checkout's src/.
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={work / 'spark'}",
        f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp}",
        "pyspark-shell",
    ])


def start_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("climber-perfbench")
        .config("spark.sql.shuffle.partitions", str(2 * CORES))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for its JVM (and with it the Python workers) to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# Inputs and what numpy says about them
# ---------------------------------------------------------------------------


def collect_matrix(df) -> np.ndarray:
    """The generated series as an (N, LENGTH) matrix whose row i is id i."""
    pdf = df.toPandas()
    ids = pdf["id"].to_numpy()
    X = np.empty((N_SERIES, LENGTH))
    if not np.array_equal(np.sort(ids), np.arange(N_SERIES)):
        raise C.CheckError("generated ids are not 0..N-1")
    X[ids] = np.stack(pdf["series"].to_numpy())
    return X


def exact_topk_all(X: np.ndarray, Q: np.ndarray, k: int):
    """Numpy brute-force top-k of the whole data set for every query.

    A GEMM pass keeps the 4k closest rows per query; exact distances are
    then computed on those by differences. The cut is verified to lie
    clear of the k-th distance, so no true neighbour can be left out.
    """
    d2 = (X * X).sum(1)[:, None] + (Q * Q).sum(1)[None, :] - 2.0 * (X @ Q.T)
    m = 4 * k
    part = np.argpartition(d2, m, axis=0)
    out = []
    for j in range(Q.shape[0]):
        cand = part[:m, j]
        ids, d = C.topk_exact(cand, X[cand], Q[j], k)
        if d[-1] ** 2 >= d2[part[m, j], j] - 1e-6:
            raise C.CheckError(f"query {j}: brute-force candidate cut too tight")
        out.append((ids, d))
    return out


@dataclass
class Stored:
    """The index's rows as read from its parquet files with pyarrow."""

    ids: np.ndarray
    pid: np.ndarray
    node: np.ndarray
    X: np.ndarray


def read_stored(data_path: str) -> Stored:
    import pyarrow.compute as pc
    import pyarrow.dataset as ds

    t = ds.dataset(data_path, format="parquet", partitioning="hive").to_table(columns=["id", "pid", "node", "series"])
    if pc.any(pc.not_equal(pc.list_value_length(t.column("series")), LENGTH)).as_py():
        raise C.CheckError(f"a stored series is not of length {LENGTH}")
    return Stored(
        ids=t.column("id").to_numpy().astype(np.int64),
        pid=t.column("pid").to_numpy().astype(np.int64),
        node=t.column("node").to_numpy(zero_copy_only=False),
        X=arrow_matrix(t.column("series")),
    )


def arrow_matrix(col) -> np.ndarray:
    """An Arrow list<double> column of length-LENGTH series as a 2-D array."""
    col = col.combine_chunks()
    return col.flatten().to_numpy().reshape(len(col), LENGTH)


def index_bytes(out_dir: Path) -> int:
    """Parquet data files plus skeleton and metadata, as stored on disk."""
    files = list((out_dir / "data").rglob("*.parquet")) + [out_dir / "skeleton.pkl", out_dir / "meta.json"]
    return sum(f.stat().st_size for f in files)


def check_build(idx, X: np.ndarray, stored: Stored, layers: dict) -> None:
    """The properties every CLIMBER build must have; raises CheckError."""
    C.check_stored_rows(stored.ids, stored.X, np.arange(N_SERIES), X)
    C.check_partition_counts(stored.pid, idx.pid_counts, N_SERIES)
    sig_rs, _ = idx.skeleton.signatures(stored.X)
    t0 = time.perf_counter()
    _, pid, _ = idx.skeleton.assign_records(sig_rs.astype(np.int64), stored.ids)
    layers["skeleton.assign_us_per_record"] = (time.perf_counter() - t0) / N_SERIES * 1e6
    C.check_assignment(stored.pid, pid, stored.ids)


def check_plans(idx, Q: np.ndarray) -> None:
    """Plans do not depend on batch position, and ``ClimberIndex.load`` gives the same ones.

    Query i of the set is planned at batch position i, as ``knn_batch``
    over the whole set would, and compared with its plan at position 0
    (a single-query call) and with the loaded index's plan.
    """
    from repro.core.index import ClimberIndex

    loaded = ClimberIndex.load(idx.out_dir)
    for variant in ("knn", "adaptive-4x"):
        at_i = [idx.plan(q, K, variant=variant, qid=i) for i, q in enumerate(Q)]
        C.check_same_plans(at_i, [idx.plan(q, K, variant=variant, qid=0) for q in Q],
                           f"{variant} plan at its batch position vs at position 0")
        C.check_same_plans(at_i, [loaded.plan(q, K, variant=variant, qid=i) for i, q in enumerate(Q)],
                           f"{variant} plan of the built vs the loaded index")


def query_set() -> np.ndarray:
    """Ids of the query set; it does not depend on ``--seed`` (see QUERY_SEED)."""
    return np.random.default_rng(QUERY_SEED).permutation(N_SERIES)[:BATCH]


# ---------------------------------------------------------------------------
# Measured loop
# ---------------------------------------------------------------------------


class Run:
    """Counts and latencies of one run's measured phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: list = []
        self.queries = 0
        self.errors: list = []

    def record(self, seconds: float, n_queries: int, error: str | None) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        if error is None:
            self.queries += n_queries
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it; 0 below 40 samples."""
    if n < 40:
        return 0
    return max(p for p in range(50, 100) if n * (100 - p) / 100 >= 10)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# Operations: one call each, its checks and, in a traced run, its probes
# ---------------------------------------------------------------------------


class Calls:
    """The query set, numpy's top-K for it, and one operation over some of its queries."""

    def __init__(self, X, qids, exact) -> None:
        self.X, self.qids, self.Q, self.exact = X, qids, X[qids], exact

    def call(self, Q: np.ndarray) -> dict:
        raise NotImplementedError

    def check_one(self, j: int, answer) -> None:
        raise NotImplementedError

    def invoke(self, js: list):
        """Answers to queries ``js`` in one call, or the error the call raised."""
        try:
            res = self.call(self.Q[js])
        except Exception as e:  # a call that raises is counted as failed; the run goes on
            return None, f"{type(e).__name__}: {e}"
        return [res.get(pos, []) for pos in range(len(js))], None

    def check(self, js: list, answers) -> str | None:
        for j, a in zip(js, answers):
            try:
                self.check_one(j, a)
            except C.CheckError as e:
                return f"query {j} (series {int(self.qids[j])}): {e}"
        return None

    def recalls(self, js: list, answers) -> list:
        return [C.recall(a, self.exact[j][0]) for j, a in zip(js, answers)]


class Climber(Calls):
    """One call is ``ClimberIndex.knn_batch`` on one query of the query set.

    ``plans[j]`` is the plan query j gets in a single-query call (batch
    position 0); its answer must be the exact top-K of the rows it selects.
    """

    def __init__(self, spark, idx, stored: Stored, variant: str, X, qids, exact) -> None:
        super().__init__(X, qids, exact)
        self.spark, self.idx, self.stored, self.variant = spark, idx, stored, variant
        self.plans = [idx.plan(q, K, variant=variant) for q in self.Q]
        self.expect = [C.expect_plan(stored.ids, stored.pid, stored.node, stored.X, p, q, K)
                       for p, q in zip(self.plans, self.Q)]
        self.rows_in = {int(p): int(c) for p, c in zip(*np.unique(stored.pid, return_counts=True))}
        self.probes: dict = {k: [] for k in ("open", "read_decode", "arrow_read", "ed", "call_rows")}

    def call(self, Q: np.ndarray) -> dict:
        return self.idx.knn_batch(self.spark, Q, K, variant=self.variant)[0]

    def check_one(self, j: int, answer) -> None:
        C.check_plan_answer(answer, self.expect[j], self.X, self.Q[j], K)

    def probe(self, js: list) -> None:
        """Time, beside the call, the layers ``knn_scan`` runs inside Spark."""
        import pyarrow.compute as pc
        import pyarrow.dataset as ds
        from pyspark.sql import functions as F
        from repro.core.distances import ed_np

        pids = sorted({p for j in js for p in self.plans[j].pids})
        t0 = time.perf_counter()
        df = self.spark.read.parquet(self.idx.data_path)
        t1 = time.perf_counter()
        pdf = df.where(F.col("pid").isin(pids)).select("id", "series").toPandas()
        np.stack(pdf["series"].to_numpy())
        t2 = time.perf_counter()
        t = ds.dataset(self.idx.data_path, format="parquet", partitioning="hive").to_table(
            columns=["id", "series"], filter=pc.field("pid").isin(pids))
        arrow_matrix(t.column("series"))
        t3 = time.perf_counter()
        ed = 0.0
        for j in js:
            _, sel = C.plan_rows(self.stored.pid, self.stored.node, self.plans[j])
            rows = self.stored.X[sel]
            t4 = time.perf_counter()
            ed_np(rows, self.Q[j])
            ed += time.perf_counter() - t4
        p = self.probes
        p["open"].append(t1 - t0)
        p["read_decode"].append(t2 - t1)
        p["arrow_read"].append(t3 - t2)
        p["ed"].append(ed)
        p["call_rows"].append(sum(self.rows_in.get(q, 0) for q in pids))

    def layer_metrics(self, tracer: Tracer) -> dict:
        p = self.probes
        scans, routes = tracer.durations("knn_scan"), tracer.durations("plan")
        plans = self.plans[:ROUND]  # the queries of a round
        plan_rows = float(np.mean([sum(self.rows_in.get(q, 0) for q in pl.pids) for pl in plans]))
        return {
            "query.route_ms": median(routes) * 1e3,
            "query.plan_partitions": float(np.mean([pl.n_partitions for pl in plans])),
            "query.plan_rows": plan_rows,
            "query.useful_ratio": K / plan_rows,
            "query.call_rows": float(np.mean(p["call_rows"])),
            "query.scan_ms": median(scans) * 1e3,
            "query.open_ms": median(p["open"]) * 1e3,
            "query.read_decode_ms": median(p["read_decode"]) * 1e3,
            "query.arrow_read_ms": median(p["arrow_read"]) * 1e3,
            "distances.ed_ms": median(p["ed"]) * 1e3,
            "query.scan_other_ms": median([s - o - r - e for s, o, r, e in zip(
                scans, p["open"], p["read_decode"], p["ed"])]) * 1e3,
        }


class FullScan(Calls):
    """One call is ``dss_knn`` with the whole query set over the cached DataFrame."""

    def __init__(self, df, dss_mod, X, qids, exact) -> None:
        super().__init__(X, qids, exact)
        self.df, self.dss_mod = df, dss_mod
        self.probes: dict = {"decode": [], "ed": []}

    def call(self, Q: np.ndarray) -> dict:
        return self.dss_mod.dss_knn(self.df, Q, K)

    def check_one(self, j: int, answer) -> None:
        C.check_exact_answer(answer, self.exact[j][1], self.X, self.Q[j], K)

    def probe(self, js: list) -> None:
        """Time, beside the call, the decode and ED that ``dss_knn`` runs inside Spark."""
        from repro.core.distances import ed_np

        t0 = time.perf_counter()
        pdf = self.df.select("id", "series").toPandas()
        Xd = np.stack(pdf["series"].to_numpy())
        t1 = time.perf_counter()
        ed_np(Xd, self.Q[js])
        self.probes["decode"].append(t1 - t0)
        self.probes["ed"].append(time.perf_counter() - t1)

    def layer_metrics(self, tracer: Tracer) -> dict:
        scans = tracer.durations("dss_knn")
        p = self.probes
        return {
            "dss.scan_ms": median(scans) * 1e3,
            "dss.decode_ms": median(p["decode"]) * 1e3,
            "distances.ed_ms": median(p["ed"]) * 1e3,
            "dss.other_ms": median([s - d - e for s, d, e in zip(scans, p["decode"], p["ed"])]) * 1e3,
        }


def build_layers(spark, df, idx, out_dir: Path) -> dict:
    """Build phases from ``BuildReport``, the FX conversion alone, and the index on disk."""
    from repro.core.paa import with_paa
    from repro.core.pivots import with_signatures

    r = idx.report
    t0 = time.perf_counter()
    with_signatures(with_paa(df, idx.params.w), idx.skeleton.pivots, idx.params.m).write.format(
        "noop").mode("overwrite").save()
    fx = time.perf_counter() - t0
    nbytes = index_bytes(out_dir)
    return {
        "index.sample_s": r.sample_s,
        "index.skeleton_s": r.skeleton_s,
        "index.redistribute_s": r.redistribute_s,
        "index.stats_s": r.stats_s,
        "fx.convert_s": fx,
        "index.assign_write_s": r.redistribute_s - fx,
        "skeleton.bytes": idx.global_index_size_bytes(),
        "index.partitions": len(idx.pid_counts),
        "index.fill_max": max(idx.pid_counts.values()) / idx.params.capacity,
        "index.bytes": nbytes,
        "index.bytes_per_input_byte": nbytes / (N_SERIES * LENGTH * 8),
    }


SPAN_NAMES = ("knn_batch", "plan", "knn_scan", "dss_knn", "build_index", "build_skeleton", "save")


def trace_metrics(tracer: Tracer, traced: list, untraced: list) -> dict:
    """Self time per span name, and what tracing costs a call."""
    own = tracer.self_times()
    out = {f"self.{name}_ms": median(own.get(name, [])) * 1e3 for name in SPAN_NAMES}
    out["trace.traced_p50_ms"] = median(traced) * 1e3
    out["trace.untraced_p50_ms"] = median(untraced) * 1e3
    out["trace.overhead_ms"] = out["trace.traced_p50_ms"] - out["trace.untraced_p50_ms"]
    out["trace.spans"] = len(tracer.spans)
    return out


def spark_floors(spark) -> dict:
    """Median cost of an empty one-partition job, without and with a Python worker."""

    def same(batches):
        yield from batches

    def timed(job) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            job()
            times.append(time.perf_counter() - t0)
        return median(times) * 1e3

    one = spark.range(0, 1, 1, 1)
    return {
        "spark.empty_job_ms": timed(one.count),
        "spark.python_job_ms": timed(lambda: one.mapInPandas(same, "id long").count()),
    }


def call_tail(latencies: list) -> dict:
    p = tail_percentile(len(latencies))
    tail = float(np.percentile(latencies, p)) * 1e3 if p else 0.0
    return {"call.samples": len(latencies), "call.tail_pct": p, "call.tail_ms": tail}


LAYER_UNITS = {
    "setup.session_s": "s", "setup.datagen_s": "s", "setup.build_s": "s",
    "query.route_ms": "ms", "query.plan_partitions": "count", "query.plan_rows": "rows",
    "query.call_rows": "rows", "query.useful_ratio": "share", "query.scan_ms": "ms",
    "query.open_ms": "ms", "query.read_decode_ms": "ms", "query.arrow_read_ms": "ms",
    "distances.ed_ms": "ms", "query.scan_other_ms": "ms",
    "dss.scan_ms": "ms", "dss.decode_ms": "ms", "dss.other_ms": "ms",
    "index.sample_s": "s", "index.skeleton_s": "s", "index.redistribute_s": "s", "index.stats_s": "s",
    "fx.convert_s": "s", "index.assign_write_s": "s", "skeleton.assign_us_per_record": "us",
    "skeleton.bytes": "bytes", "index.partitions": "count", "index.fill_max": "share",
    "index.bytes": "bytes", "index.bytes_per_input_byte": "share",
    **{f"self.{name}_ms": "ms" for name in SPAN_NAMES},
    "trace.traced_p50_ms": "ms", "trace.untraced_p50_ms": "ms", "trace.overhead_ms": "ms",
    "trace.spans": "count", "call.samples": "count", "call.tail_pct": "%", "call.tail_ms": "ms",
    "spark.empty_job_ms": "ms", "spark.python_job_ms": "ms",
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    # Turn SIGTERM into SystemExit so the session is stopped and the work
    # directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "core" / "index.py").is_file():
        fail(f"no CLIMBER sources under {SRC}; run from the root of a checkout")
    bad = run_selftest()
    if bad:
        fail("checker self-test: " + "; ".join(bad))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    pin_environment(work)
    sys.path.insert(0, str(SRC))
    try:
        result = run(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def run(args, wl: Workload, work: Path) -> dict:
    import repro.baselines.dss as dss_mod
    import repro.core.index as index_mod
    import repro.core.query as query_mod
    from repro.synth_data import random_walk_series

    tracer = Tracer()
    if args.trace:
        tracer.patch(index_mod.ClimberIndex, "knn_batch", "knn_batch")
        tracer.patch(index_mod.ClimberIndex, "plan", "plan")
        tracer.patch(query_mod, "knn_scan", "knn_scan")
        tracer.patch(dss_mod, "dss_knn", "dss_knn")
        tracer.patch(index_mod, "build_index", "build_index")
        tracer.patch(index_mod, "build_skeleton", "build_skeleton")
        tracer.patch(index_mod.ClimberIndex, "save", "save")
    layers: dict = {}

    # ---- set-up: what a user pays before the first query ------------------
    t_setup = time.perf_counter()
    spark = start_session()
    layers["setup.session_s"] = time.perf_counter() - t_setup
    try:
        t0 = time.perf_counter()
        df = random_walk_series(spark, n=N_SERIES, length=LENGTH, seed=DATA_SEED).cache()
        df.count()
        layers["setup.datagen_s"] = time.perf_counter() - t0
        idx = None
        layers["setup.build_s"] = 0.0
        if wl.index:
            out_dir = work / "index"
            t0 = time.perf_counter()
            tracer.enabled = bool(args.trace)
            idx = index_mod.build_index(spark, df, str(out_dir))
            tracer.enabled = False
            layers["setup.build_s"] = time.perf_counter() - t0
        setup_s = time.perf_counter() - t_setup
        log(f"set-up done in {setup_s:.1f} s")

        # ---- the query set and what numpy says about it (not timed) --------
        X = collect_matrix(df)
        qids = query_set()
        exact = exact_topk_all(X, X[qids], K)
        correct = True
        if wl.index:
            stored = read_stored(idx.data_path)
            try:
                check_build(idx, X, stored, layers)
                check_plans(idx, X[qids])
            except C.CheckError as e:
                print(f"perfbench: set-up build failed a check: {e}", file=sys.stderr)
                correct = False
            call = Climber(spark, idx, stored, wl.variant, X, qids, exact)
        else:
            call = FullScan(df, dss_mod, X, qids, exact)
        log("build and query set checked against numpy")

        # ---- warm-up: unmeasured calls, in the round's order ---------------
        calls = wl.round(args.seed)
        for i in range(wl.warmup_calls):
            call.invoke(calls[i % len(calls)])
        log("warm-up done")

        # ---- whole rounds of calls for --seconds ---------------------------
        res = Run()
        recalls, traced, untraced, probed = [], [], [], []
        i = 0
        t_start = time.perf_counter()
        while True:
            for js in calls:
                # A traced run traces every other call; the calls between
                # give the untraced latency the tracing overhead is read from.
                on = bool(args.trace) and i % 2 == 0
                tracer.enabled, tracer.op = on, i
                t0 = time.perf_counter()
                answers, error = call.invoke(js)
                dt = time.perf_counter() - t0
                tracer.enabled = False
                if answers is not None:
                    recalls.extend(call.recalls(js, answers))
                error = error or call.check(js, answers)
                res.record(dt, len(js), None if error is None else f"call {i}: {error}")
                (traced if on else untraced).append(dt)
                if on:
                    probed.append(js)
                i += 1
            if time.perf_counter() - t_start >= args.seconds:
                break
        log(f"{res.attempted} calls measured, {res.failed} failed")

        if args.trace:
            # Probes run after the measured phase, so traced and untraced
            # calls alike follow a call, not a probe.
            for js in probed:
                call.probe(js)
            layers.update(call.layer_metrics(tracer))
            layers.update(trace_metrics(tracer, traced, untraced))
            layers.update(call_tail(res.latencies))
            layers.update(spark_floors(spark))
            if wl.index:
                layers.update(build_layers(spark, df, idx, work / "index"))
            tracer.unpatch()
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json")
    finally:
        stop_session(spark)
        log("session stopped")

    for name in LAYER_UNITS:
        layers.setdefault(name, 0.0)
    for e in res.errors:
        print(f"perfbench: failed call: {e}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": float(v), "unit": LAYER_UNITS[name]} for name, v in sorted(layers.items())}
    else:
        values = {
            "setup_s": setup_s,
            "call_p50_ms": median(res.latencies) * 1e3,
            "queries_per_s": res.queries / sum(res.latencies),
            "recall": float(np.mean(recalls)) if recalls else 0.0,
        }
        metrics = {n: {"value": float(values[n]), "unit": u} for n, u in END_TO_END.items()}
    return {"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}


if __name__ == "__main__":
    main()
