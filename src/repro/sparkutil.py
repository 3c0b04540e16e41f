"""The one SparkSession factory: the ``jobs/`` entrypoints, the benchmark
and the tests' ``spark`` fixture all call ``get_spark``, so they see the
same engine behaviour (shuffle partitions, Arrow, broadcast joins
disabled — DESIGN.md §7). Broadcast joins are disabled so that Spark SQL
exercises the shuffle path at SF~=0.1.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str = "repro-job") -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
