"""Shared plumbing for the distributed FSM algorithms (paper Alg. 1).

All four algorithms (NAÏVE, SEMI-NAÏVE, D-SEQ, D-CAND) follow the same
map → shuffle → reduce skeleton with exactly one round of communication.
This module provides the pieces around that skeleton: encoding sequence
DataFrames into RDDs of fid tuples, the one shuffle that weighs identical
representations per pivot, materializing results as DataFrames, and
asserting the one-shuffle property from an RDD lineage.
"""
from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple, Union

from pyspark import RDD
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StringType, StructField, StructType

from repro.hierarchy import Dictionary


def with_seq_ids(df: DataFrame, item_col: str = "items") -> DataFrame:
    """Ensure a unique ``seq_id`` column (stable within the job)."""
    if "seq_id" in df.columns:
        return df
    return df.withColumn("seq_id", F.monotonically_increasing_id())


def encode_rdd(
    df: DataFrame, d: Dictionary, item_col: str = "items", num_partitions: int = 0
) -> RDD:
    """DataFrame of string-array sequences → RDD of fid tuples (items
    missing from ``d`` become ``d.unknown``)."""
    sc = df.sparkSession.sparkContext
    d_bc = sc.broadcast(d)
    rdd = df.select(item_col).rdd.map(lambda row: d_bc.value.encode(row[0]))
    if num_partitions:
        rdd = rdd.repartition(num_partitions)
    return rdd


RESULT_SCHEMA = StructType(
    [
        StructField("pattern", StringType(), False),
        StructField("support", LongType(), False),
    ]
)


def results_to_df(
    spark: SparkSession,
    results: Union[RDD, List[Tuple[Tuple[int, ...], int]]],
    d: Dictionary,
) -> DataFrame:
    """[(fid tuple, support)] → DataFrame(pattern: string, support: long).

    An RDD is decoded on the executors with ``d`` broadcast, and the
    DataFrame stays lazy: no job runs until it is consumed. A list is
    decoded on the driver.
    """
    if isinstance(results, RDD):
        d_bc = spark.sparkContext.broadcast(d)
        rows = results.map(lambda r: (d_bc.value.decode_str(r[0]), int(r[1])))
    else:
        rows = [(d.decode_str(seq), int(f)) for seq, f in results]
    return spark.createDataFrame(rows, RESULT_SCHEMA)


def weigh_by_key(mapped: RDD, *, combine: bool = True) -> RDD:
    """(k, representation) → (k, {representation: weight}), one shuffle.

    With ``combine``, identical representations are merged into weights
    map-side by ``combineByKey`` (the paper's combine function). Without
    it (the Fig. 10b "no agg" ablation) every representation is shipped
    on its own by ``groupByKey`` and only counted after the shuffle.
    """
    if combine:
        return mapped.combineByKey(
            lambda rep: {rep: 1}, _add_one, merge_weight_dicts
        )
    return mapped.groupByKey().mapValues(Counter)


def _add_one(weights: Dict, rep) -> Dict:
    weights[rep] = weights.get(rep, 0) + 1
    return weights


def count_shuffles(rdd: RDD) -> int:
    """Number of shuffle boundaries in an RDD lineage (for the one-round
    BSP property tests)."""
    debug = rdd.toDebugString().decode()
    return debug.count("ShuffledRDD")


def merge_weight_dicts(a: Dict, b: Dict) -> Dict:
    """Combiner merge: representation → weight (the paper's MapReduce
    combine function, used map-side by combineByKey)."""
    if len(b) > len(a):
        a, b = b, a
    for k, w in b.items():
        a[k] = a.get(k, 0) + w
    return a
