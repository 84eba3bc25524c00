#!/usr/bin/env python
"""Run the evaluation tables (T1–T9) and write results/tN.md files; T9 also
writes its rows and fitted weights to results/t9.json, and before it fits,
its fit rows to results/t9_fit_rows.jsonl (one JSON object a line, written
as they are timed), so a fit that fails keeps them.

BENCH_engine.json is the committed T9 run whose fit is the planner's
``costmodel.SPARK_WEIGHTS``. A fresh T9 run leaves both alone; to adopt it,
copy results/t9.json over BENCH_engine.json and set SPARK_WEIGHTS to its
``weights`` (tests/test_experiments.py::TestT9Fit checks the two agree).

Scale knobs via REPRO_* env vars (see repro/experiments/*). Usage:

    python jobs/run_all.py [t1 t4 ...]   # default: all tables

An unknown table name exits with code 2 before Spark starts. A table that
fails is reported on stderr and its results/tN.md is left as it was, so
the last good table stays; the remaining tables still run, and the exit
code is then 1.
"""
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")
TABLES = ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9")
NEEDS_SPARK = {"t1", "t4", "t5", "t7", "t8", "t9"}


def main(which=None) -> int:
    which = which or list(TABLES)
    unknown = [name for name in which if name not in TABLES]
    if unknown:
        print(f"unknown table(s) {', '.join(unknown)}; expected some of {', '.join(TABLES)}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    from repro.session import get_spark

    spark = get_spark("repro-experiments") if NEEDS_SPARK & set(which) else None

    from repro.experiments import (
        t1_estimation,
        t2_robustness_sim,
        t3_optimization,
        t4_synthetic,
        t5_ce,
        t6_simulation,
        t7_validation,
        t8_robustness_exec,
        t9_spark_weights,
    )

    runners = {
        "t1": lambda: t1_estimation.run(spark),
        "t2": lambda: t2_robustness_sim.run(),
        "t3": lambda: t3_optimization.run(),
        "t4": lambda: t4_synthetic.run(spark),
        "t5": lambda: t5_ce.run(spark),
        "t6": lambda: t6_simulation.run(),
        "t7": lambda: t7_validation.run(spark),
        "t8": lambda: t8_robustness_exec.run(spark),
        "t9": lambda: t9_spark_weights.run(spark, json_path=os.path.join(RESULTS, "t9.json")),
    }
    failed = []
    for name in which:
        t0 = time.time()
        print(f"=== {name} ...", flush=True)
        try:
            rows, md = runners[name]()
        except Exception as e:  # keep the remaining tables running
            import traceback

            traceback.print_exc()
            print(f"=== {name} FAILED: {e!r}", file=sys.stderr, flush=True)
            failed.append(name)
            continue
        dt = time.time() - t0
        path = os.path.join(RESULTS, f"{name}.md")
        with open(path, "w") as f:
            f.write(f"# {name} ({dt:.0f}s, {len(rows)} rows)\n\n{md}\n")
        print(f"=== {name} done in {dt:.0f}s -> {path}", flush=True)
    if spark is not None:
        spark.stop()
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or None))
