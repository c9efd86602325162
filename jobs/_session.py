"""Shared spark-submit session bootstrap for the jobs/ entrypoints.

When run under pytest, experiments use the conftest ``spark`` fixture; when
run via ``spark-submit jobs/<name>.py`` (or plain ``python jobs/<name>.py``)
this module builds an equivalent local session.
"""
from __future__ import annotations

import os
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
# Make the repo root and src/ importable when invoked as a plain script.
sys.path.insert(0, ROOT)
sys.path.insert(0, SRC)

import conftest  # noqa: E402,F401  (sets PYSPARK_SUBMIT_ARGS pre-import)
from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app_name: str) -> SparkSession:
    spark = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        # The Python workers import repro from the checkout's src/ too, so
        # no installed package is needed.
        .config("spark.executorEnv.PYTHONPATH", SRC)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
