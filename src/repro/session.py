"""The one SparkSession builder: ``jobs/run_all.py`` and the tests'
``spark`` fixture both start their session here. :func:`to_spark` loads
a query's pandas relations into it, and :func:`counting_jobs` counts the
Spark jobs of one call.

Master, driver memory and shuffle partitions come from the environment
(``SPARK_MASTER``, ``SPARK_DRIVER_MEM``, ``SPARK_SHUFFLE_PARTITIONS``).
Shuffle partitions default to 8, the value the benchmark uses. The engine
picks each join's type by hint (every join broadcasts its build side), so
``autoBroadcastJoinThreshold`` stays off and Spark picks no join type on
its own.
"""
from __future__ import annotations

import os
import uuid

import pandas as pd


def get_spark(app: str = "repro-job"):
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "8"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def to_spark(spark, pdata: dict[str, pd.DataFrame]) -> dict:
    """Load each relation with an explicit schema. Every relation column is
    an integer (pandas ``int64``, or nullable ``Int64`` for NULL keys), and
    an empty frame gives Spark no rows to infer that from."""
    from pyspark.sql.types import LongType, StructField, StructType

    return {
        n: spark.createDataFrame(pdf, schema=StructType([StructField(c, LongType()) for c in pdf.columns]))
        for n, pdf in pdata.items()
    }


def counting_jobs(spark, fn):
    """Run ``fn()`` in a job group of its own and return ``(fn's result,
    ids of the Spark jobs it ran)``. It waits for the listener bus to drain
    first, so the status tracker has seen every job the call started, also
    those started from other threads that inherited the group."""
    sc = spark.sparkContext
    group = f"spark-jobs-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc._jsc.clearJobGroup()
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return out, list(sc.statusTracker().getJobIdsForGroup(group))
