#!/usr/bin/env python3
"""Benchmark of the ``repro`` engine, its estimate→plan→run path and its
join-order planner, on one named workload.

    python3 perfbench/run.py --workload star7-5k --seed 11 --seconds 5 --trace 0

Run it from the repository root; it imports the package from ``src/``.
One Spark session (``local[k]``, k ≤ 2 and ≤ the core count) serves the
whole run. The run generates the workload's relations from ``--seed``,
runs every case once untimed, checking it against its oracle (this pass is
also the warm-up), then runs timed passes round-robin over the cases until
``--seconds`` have passed: at least one pass, or two with ``--trace 1``.
Every end-to-end metric is the median of its timed calls.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A wrong answer
or a failed call makes the exit code 1. See README.md.
"""
from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import random
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench" / str(os.getpid())

SETUP_REPS = 3  # the first warms the JVM's load path and is not reported
SAMPLE_SEED = 0  # CorrelatedSample seed: fixed, so every answer call plans alike
PLAN_SHAPE_SEED = 1000  # fixes the planner case's tree shape; --seed draws its stats
PLAN_NODES = 15
PLAN_DRIVER = 1000.0


@dataclass(frozen=True)
class Case:
    name: str
    metric: str  # end-to-end metric
    kind: str  # "run" | "answer" | "plan"
    strategy: str = ""
    reps: int = 1  # calls per pass
    trace_only: bool = False  # runs only with --trace 1, for its layers


# The planner is pure Python. Its calls swing between ~0.2 s and ~0.4 s with
# the host's CPU, so their median spreads ~40% across runs: too wide for an
# end-to-end bound. It runs once per run as a check, and --trace 1 times it.
PLAN = Case("plan", "", "plan", reps=8)
CASES = [
    Case("answer", "answer_s", "answer"),
    Case("STD-flat", "", "run", "STD", trace_only=True),
    Case("SJ-STD-flat", "", "run", "SJ+STD", trace_only=True),
    Case("BVP-STD-flat", "", "run", "BVP+STD", trace_only=True),
]
RUN_LAYERS = ("std", "com", "sj_phase1", "bitvector")
PLAN_STRATEGIES = ("STD", "COM", "BVP+STD", "BVP+COM", "SJ+STD", "SJ+COM")


def star7_baseline():
    """The engine micro-benchmark's star-7: m ∈ [0.4, 0.7], fo ∈ [2, 5], shape seed 7."""
    from repro.experiments.shapes import sample_shaped_tree

    return sample_shaped_tree(
        "star7", random.Random(7), m_range=(0.4, 0.7), fo_range=(2.0, 5.0), n_driver=5000, max_out=5e5
    )


def snow21():
    """Snowflake-2-1 (two root-to-leaf paths of two edges) with every edge at m = 0.8, fo = 3."""
    from repro.core import jointree as jt

    return jt.snowflake(2, 1, {f"R{i}": jt.EdgeStats(0.8, 3.0) for i in range(2, 6)})


WORKLOADS = {
    "star7-5k": (star7_baseline, 5000),
    "snow21-5k": (snow21, 5000),
}


def plan_tree(seed: int):
    """A fixed 15-node shape with (m, fo) drawn from ``seed`` (T3's ranges),
    so Algorithm 1 does the same amount of work for every seed."""
    from repro.core.jointree import EdgeStats, random_tree

    tree = random_tree(random.Random(PLAN_SHAPE_SEED), max_nodes=PLAN_NODES, m_range=(0.05, 0.5))
    rng = random.Random(seed)
    for c in tree.bfs_order()[1:]:
        tree.stats[c] = EdgeStats(rng.uniform(0.05, 0.5), rng.uniform(1.0, 10.0))
    tree.size[tree.root] = PLAN_DRIVER
    for c in tree.bfs_order()[1:]:
        tree.size[c] = tree.size[tree.parent[c]] * tree.stats[c].m * tree.stats[c].fo
    return tree


# --------------------------------------------------------------------------
# Spark session
# --------------------------------------------------------------------------


# Two task threads leave room on a shared 4-core host. The JIT is set to
# warm up within the untimed pass: with the default C2 an answer call spent
# about twice its wall time in CPU, much of it compiling, and kept getting
# faster for 8+ calls. C1 alone, compiling after a tenth of the usual
# invocation counts, gives flat timed calls after one; its code cache would
# fill at the default size and stop the compiler.
CORES = min(2, os.cpu_count() or 1)
JVM_OPTIONS = [
    "-XX:-UsePerfData",
    "-XX:TieredStopAtLevel=1",
    "-XX:CompileThresholdScaling=0.1",
    "-XX:ReservedCodeCacheSize=256m",
    "-XX:+UseParallelGC",
    f"-XX:ParallelGCThreads={CORES}",
]


def start_spark():
    java_opts = " ".join([*JVM_OPTIONS, f"-Djava.io.tmpdir={WORK / 'tmp'}"])
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{CORES}]",
            "--driver-memory 2g",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            f"--conf spark.local.dir={shlex.quote(str(WORK / 'local'))}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM the gateway started."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def cpu_seconds() -> float:
    """CPU time used so far by this process and the Spark JVM (Linux /proc)."""
    from pyspark import SparkContext

    total = time.process_time()
    proc = getattr(SparkContext._gateway, "proc", None)
    try:
        with open(f"/proc/{proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (AttributeError, OSError, ValueError, IndexError):
        pass
    return total


def environment(spark) -> dict:
    import pyspark

    conf = spark.conf
    return {
        "nproc": os.cpu_count(),
        "master": spark.sparkContext.master,
        "pyspark": pyspark.__version__,
        "aqe": conf.get("spark.sql.adaptive.enabled"),
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "runtime_bloom_filter": conf.get("spark.sql.optimizer.runtime.bloomFilter.enabled"),
        "driver_memory": spark.sparkContext.getConf().get("spark.driver.memory", "1g"),
        "jvm_options": JVM_OPTIONS,
        "loadavg_start": list(os.getloadavg()),
    }


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------


def flat_sql(tree, select: str) -> str:
    joins = " ".join(
        f"JOIN {c} ON {tree.parent[c]}.{tree.join_cols[c][0]} = {c}.{tree.join_cols[c][1]}"
        for c in tree.bfs_order()[1:]
    )
    return f"SELECT {select} FROM {tree.root} {joins}"


def check_flat_checksum(tree, pdata, result) -> None:
    """Row count and per-column sum of ids of a flat result vs DuckDB."""
    from pyspark.sql import functions as F

    from repro.core.datagen import id_col
    from repro.oracle import assert_equivalent

    cols = [id_col(n) for n in tree.bfs_order()]
    got = result.agg(F.count(F.lit(1)).alias("n_rows"), *[F.sum(c).alias(c) for c in cols])
    sel = ", ".join(["count(*) AS n_rows", *[f"CAST(sum({c}) AS BIGINT) AS {c}" for c in cols]])
    assert_equivalent(got, flat_sql(tree, sel), **pdata)


def check_plan(tree, optimal: dict) -> None:
    """Algorithm 1's order costs no more hash probes than each greedy order.

    ``optimal`` maps strategy to (order, hash probes) of the optimal plan.
    BVP+STD is left out: ``optimize`` orders it with the plain STD probe
    formula, so its costed plan is not the one Algorithm 1 minimised.
    """
    from repro.core.optimizer import HEURISTICS, optimize

    for s in ("STD", "COM", "BVP+COM"):
        best = optimal[s][1]
        for h in HEURISTICS:
            other = optimize(tree, s, PLAN_DRIVER, method=h)[2].total_hash_probes
            if best > other * (1 + 1e-9):
                raise AssertionError(f"{s}: optimal order {best} > {h} order {other}")


# --------------------------------------------------------------------------
# The benchmark run
# --------------------------------------------------------------------------


@dataclass
class Bench:
    spark: object
    tree: object
    n_driver: int
    seed: int
    tracer: object
    pdata: dict = field(default_factory=dict)
    sdata: dict = field(default_factory=dict)
    ptree: object = None
    expected_flat: int = 0
    attempted: int = 0
    failed: int = 0
    plan: tuple | None = None  # the answer path's (strategy, order)
    plan_orders: dict | None = None
    qerror_max: float = 0.0
    ncalls: int = 0
    last_cpu: float = 0.0  # CPU seconds of the last call, Python and JVM

    def __post_init__(self):
        from repro.engine.runner import run_strategy

        params = inspect.signature(run_strategy).parameters
        # Pass ``measure=False`` only while the signature still has it.
        self.run_kw = {"measure": False} if "measure" in params else {}
        self.keep_kw = {"keep_result": True} if "keep_result" in params else {}

    # ---- set-up -----------------------------------------------------------

    def setup(self) -> dict:
        """Generate and load the relations SETUP_REPS times; keep the last."""
        from repro.core.datagen import gen_tree_data

        gen, load = [], []
        for _ in range(SETUP_REPS):
            for df in self.sdata.values():
                df.unpersist(blocking=True)
            gc.collect()
            t0 = time.perf_counter()
            self.pdata = gen_tree_data(self.tree, self.n_driver, self.seed)
            t1 = time.perf_counter()
            self.sdata = {n: self.spark.createDataFrame(p).persist() for n, p in self.pdata.items()}
            for df in self.sdata.values():
                df.count()
            t2 = time.perf_counter()
            gen.append(t1 - t0)
            load.append(t2 - t1)
        storage = self.spark.sparkContext._jsc.sc().getRDDStorageInfo()
        mem = sum(info.memSize() for info in storage)
        tot = [g + l for g, l in zip(gen, load)]
        return {
            "setup_s": statistics.median(tot[1:]),
            "datagen.gen_s": statistics.median(gen[1:]),
            "datagen.load_s": statistics.median(load[1:]),
            "datagen.storage_mb": mem / 2**20,
            "reps_s": tot,
        }

    def oracles(self) -> None:
        import duckdb

        with duckdb.connect() as con:
            for n, pdf in self.pdata.items():
                con.register(n, pdf)
            self.expected_flat = int(con.execute(flat_sql(self.tree, "count(*)")).fetchone()[0])

    # ---- one call -----------------------------------------------------------

    def _run(self, strategy, order=None, keep=False):
        from repro.engine.runner import run_strategy

        kw = dict(self.run_kw, **(self.keep_kw if keep else {}))
        with self.tracer.span("run", strategy):
            return run_strategy(self.spark, self.tree, self.sdata, strategy, order, flat_output=True, **kw)

    def _answer(self):
        from repro.core.jointree import JoinTree
        from repro.core.planner import rank_strategies
        from repro.estimation import CorrelatedSample

        tree, est = self.tree, {}
        for c in tree.bfs_order()[1:]:
            p = tree.parent[c]
            pcol, ccol = tree.join_cols[c]
            with self.tracer.span("estimation", c):
                cs = CorrelatedSample(self.sdata[p], pcol, self.sdata[c], ccol, seed=SAMPLE_SEED)
                est[c] = cs.estimate()
        est_tree = JoinTree(tree.root, dict(tree.parent), est, size=dict(tree.size))
        with self.tracer.span("planner"):
            choice = rank_strategies(est_tree, float(tree.size[tree.root]))[0]
        res = self._run(choice.strategy, choice.order)
        return est, (choice.strategy, tuple(choice.order)), res

    def _plan(self):
        from repro.core.planner import rank_strategies

        ranked = rank_strategies(self.ptree, PLAN_DRIVER, method="optimal")
        return {p.strategy: (tuple(p.order), p.breakdown.total_hash_probes) for p in ranked}

    def call(self, case: Case, *, oracle: bool = False) -> float | None:
        """Run one case; return its wall time, or None if it failed."""
        from repro.estimation import qerror

        gc.collect()
        self.spark._jvm.System.gc()
        sc = self.spark.sparkContext
        group = f"perfbench-{self.ncalls}"
        self.ncalls += 1
        sc.setJobGroup(group, case.name)
        self.tracer.job_count = (
            None if case.kind == "plan" else lambda: len(sc.statusTracker().getJobIdsForGroup(group))
        )
        self.attempted += 1
        try:
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            with self.tracer.span(case.kind, case.name):
                if case.kind == "run":
                    out = self._run(case.strategy, keep=oracle)
                elif case.kind == "answer":
                    out = self._answer()
                else:
                    out = self._plan()
            dt = time.perf_counter() - t0
            self.last_cpu = cpu_seconds() - c0
            if case.kind == "run":
                if out.out_rows != self.expected_flat:
                    raise AssertionError(f"{case.name}: {out.out_rows} rows, expected {self.expected_flat}")
                if oracle:
                    check_flat_checksum(self.tree, self.pdata, out.result)
            elif case.kind == "answer":
                est, plan, res = out
                if res.out_rows != self.expected_flat:
                    raise AssertionError(f"answer: {res.out_rows} rows, expected {self.expected_flat}")
                if self.plan is None:
                    self.plan = plan
                elif plan != self.plan:
                    raise AssertionError(f"answer plan changed: {plan} after {self.plan}")
                self.qerror_max = max(
                    max(qerror(e.m, self.tree.stats[c].m), qerror(e.fo, self.tree.stats[c].fo))
                    for c, e in est.items()
                )
            else:
                if oracle:
                    check_plan(self.ptree, out)
                if self.plan_orders is None:
                    self.plan_orders = out
                elif out != self.plan_orders:
                    raise AssertionError("planner orders changed between calls")
            return dt
        except Exception:
            self.failed += 1
            print(f"perfbench: case {case.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None


# --------------------------------------------------------------------------
# Per-layer metrics from spans
# --------------------------------------------------------------------------


def layer_totals(spans) -> dict[str, tuple[float, int]]:
    """(self seconds, self jobs) per layer of one call's spans."""
    child_jobs = [0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child_jobs[sp.parent] += sp.jobs
    out: dict[str, tuple[float, int]] = {}
    for i, sp in enumerate(spans):
        layer = f"optimizer.{sp.label}" if sp.layer == "optimizer" and spans[0].layer == "plan" else sp.layer
        s, j = out.get(layer, (0.0, 0))
        out[layer] = (s + sp.self_s, j + sp.jobs - child_jobs[i])
    total = sum(s for s, _ in out.values())
    if abs(total - spans[0].dur) > 1e-6:
        raise AssertionError(f"self times sum to {total}, call took {spans[0].dur}")
    # Wall time of the (last) run_strategy call, children included.
    out["run_strategy"] = next(((sp.dur, sp.jobs) for sp in reversed(spans) if sp.layer == "run"), (0.0, 0))
    return out


def per_layer_metrics(case: Case, calls: list[dict], bench: Bench) -> dict[str, float]:
    """Medians over the traced calls of one case."""

    def med(layer: str, jobs: bool = False) -> float:
        return statistics.median(c.get(layer, (0.0, 0))[1 if jobs else 0] for c in calls)

    def total_jobs(c):
        return sum(j for k, (_, j) in c.items() if k != "run_strategy")

    n = case.name
    out: dict[str, float] = {}
    if case.kind == "plan":
        for s in PLAN_STRATEGIES:
            out[f"optimizer.s.{s.replace('+', '-')}"] = med(f"optimizer.{s}")
        return out
    out[f"jobs.{n}"] = statistics.median(total_jobs(c) for c in calls)
    out[f"terminal.s.{n}"] = med("run")
    s = case.strategy
    for layer in RUN_LAYERS:
        # The answer case reports every layer: the planner picks its strategy.
        used = case.kind == "answer" or {
            "std": s.endswith("STD"),
            "com": s.endswith("COM"),
            "sj_phase1": s.startswith("SJ"),
            "bitvector": s.startswith("BVP"),
        }[layer]
        if used:
            out[f"{layer}.s.{n}"] = med(layer)
            if layer != "std":
                out[f"{layer}.jobs.{n}"] = med(layer, jobs=True)
    if case.kind == "answer":
        out["estimation.s"] = med("estimation")
        out["estimation.jobs"] = med("estimation", jobs=True)
        out["estimation.qerror_max"] = bench.qerror_max
        # Planning glue: the answer span's own time plus rank_strategies.
        out["planner.s"] = statistics.median(
            sum(c.get(k, (0.0, 0))[0] for k in ("answer", "planner", "optimizer")) for c in calls
        )
    return out


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=11, help="data seed (default 11)")
    ap.add_argument("--seconds", type=float, default=5.0, help="least length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def bounds() -> dict[str, float]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {m["name"]: m["bound"] for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {src / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from tracing import Tracer

    (WORK / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")

    t0 = time.perf_counter()
    spark = start_spark()
    session_s = time.perf_counter() - t0
    try:
        result = bench(spark, args, Tracer(), session_s)
    finally:
        stop_spark(spark)
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def bench(spark, args, tracer, session_s) -> dict:
    cases = [PLAN, *(c for c in CASES if args.trace or not c.trace_only)]
    make_tree, n_driver = WORKLOADS[args.workload]
    b = Bench(spark, make_tree(), n_driver, args.seed, tracer)
    env = environment(spark)
    times: dict[str, list[float]] = {c.name: [] for c in cases}
    traced_t: dict[str, list[float]] = {c.name: [] for c in cases}
    cpus: dict[str, list[float]] = {c.name: [] for c in cases}  # untraced calls
    layers: dict[str, list[dict]] = {c.name: [] for c in cases}

    def timed(case: Case) -> None:
        for _ in range(case.reps):
            dt = b.call(case)
            spans = tracer.take()
            if dt is None:
                continue
            if tracer.active:
                traced_t[case.name].append(dt)
                layers[case.name].append(layer_totals(spans))
            else:
                times[case.name].append(dt)
                cpus[case.name].append(b.last_cpu)

    # With --trace 1, odd passes are traced and even ones give the untraced
    # times the tracing overhead is measured against.
    min_passes = 2 if args.trace else 1
    b.ptree = plan_tree(args.seed)
    b.call(PLAN, oracle=True)
    if args.trace:
        # Alternate single calls: the planner's caches warm over the first
        # ones, so traced and untraced calls must share that warm-up.
        with tracer.patched():
            for i in range(2 * PLAN.reps):
                tracer.active = i % 2 == 1
                timed(replace(PLAN, reps=1))
        tracer.active = False

    t0 = time.perf_counter()
    setup = b.setup()
    b.oracles()
    t1 = time.perf_counter()
    for case in cases[1:]:  # untimed oracle pass, which is also the warm-up
        b.call(case, oracle=True)
    t2 = time.perf_counter()

    deadline = time.perf_counter() + args.seconds
    # An answer call takes ~8 s, so 25 s give three timed calls and a run ~55 s.
    passes = 0
    with tracer.patched():
        while passes < min_passes or time.perf_counter() < deadline:
            tracer.active = bool(args.trace) and passes % 2 == 1
            for case in cases[1:]:
                # Trace-only cases run in traced passes only.
                if not case.trace_only or tracer.active:
                    timed(case)
            passes += 1
    env["loadavg_end"] = list(os.getloadavg())
    env["passes"] = passes
    env["setup_reps_s"] = setup["reps_s"]
    env["phase_s"] = {"setup": t1 - t0, "oracle_pass": t2 - t1, "timed": time.perf_counter() - t2}
    env["answer_plan"] = list(b.plan) if b.plan else None
    env["expected_flat_rows"] = b.expected_flat
    print("# env " + json.dumps(env))

    bnd = bounds()
    metrics: dict[str, dict] = {}
    if not args.trace:
        metrics["setup_s"] = {"value": setup["setup_s"], "unit": "s"}
        for case in cases:
            xs = times[case.name]
            if not xs:
                continue
            metrics[case.metric] = {"value": statistics.median(xs), "unit": "s"}
            half = len(xs) // 2
            if half >= 1:
                a, z = statistics.median(xs[:half]), statistics.median(xs[-half:])
                if abs(z / a - 1) > bnd.get(case.metric, 0.25):
                    print(f"# trend {case.metric}: first half {a:.4f} s, second half {z:.4f} s")
            print(f"# {case.metric}: n={len(xs)} " + " ".join(f"{x:.4f}" for x in xs))
            print(f"# {case.metric} cpu_s: " + " ".join(f"{x:.2f}" for x in cpus[case.name]))
    else:
        per_layer = {k: v for k, v in setup.items() if k.startswith("datagen.")}
        per_layer["spark.session_s"] = session_s
        per_layer["plan.s"] = statistics.median(times[PLAN.name])
        for case in cases:
            if layers[case.name]:
                per_layer.update(per_layer_metrics(case, layers[case.name], b))
            if case.kind != "plan" and cpus[case.name]:
                per_layer[f"cpu_s.{case.name}"] = statistics.median(cpus[case.name])
            if traced_t[case.name] and times[case.name]:
                per_layer[f"trace.overhead.{case.name}"] = statistics.median(
                    traced_t[case.name]
                ) / statistics.median(times[case.name])
        flat = [statistics.median(traced_t[c.name]) for c in cases if c.kind == "run" and traced_t[c.name]]
        answer_runs = [c["run_strategy"][0] for c in layers["answer"]]
        if flat and answer_runs:
            # Base: the fastest fixed-strategy flat case of this run; both traced medians.
            per_layer["planner.regret"] = statistics.median(answer_runs) / min(flat)
        units = {"jobs": "count", "cpu_s": "cpu-s", "storage_mb": "MB", "overhead": "ratio", "qerror_max": "ratio", "regret": "ratio"}
        for k, v in per_layer.items():
            unit = next((u for key, u in units.items() if key in k.split(".")), "s")
            metrics[k] = {"value": v, "unit": unit}
    return {"correct": b.failed == 0, "attempted": b.attempted, "failed": b.failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
