"""Tests for the shared distributed-framework plumbing."""
import pandas as pd
import pytest

from repro.core.framework import (
    count_shuffles,
    encode_rdd,
    merge_weight_dicts,
    results_to_df,
    weigh_by_key,
    with_seq_ids,
)
from repro.hierarchy import Dictionary


class TestMergeWeightDicts:
    def test_disjoint(self):
        assert merge_weight_dicts({"a": 1}, {"b": 2}) == {"a": 1, "b": 2}

    def test_overlap_sums(self):
        assert merge_weight_dicts({"a": 1, "b": 1}, {"a": 3}) == {"a": 4, "b": 1}

    def test_swap_optimization_result_equal(self):
        big = {i: 1 for i in range(10)}
        assert merge_weight_dicts({99: 5}, dict(big)) == {**big, 99: 5}

    def test_empty(self):
        assert merge_weight_dicts({}, {}) == {}


class TestSparkPlumbing:
    def test_with_seq_ids_adds_unique_column(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"items": [["a"], ["b"]]}))
        out = with_seq_ids(df)
        ids = [r["seq_id"] for r in out.collect()]
        assert len(set(ids)) == 2

    def test_with_seq_ids_keeps_existing(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"seq_id": [7, 8], "items": [["a"], ["b"]]})
        )
        assert sorted(r["seq_id"] for r in with_seq_ids(df).collect()) == [7, 8]

    def test_encode_rdd_roundtrip(self, spark):
        d = Dictionary.build([["x", "y"]], {})
        df = spark.createDataFrame(
            pd.DataFrame({"seq_id": [0], "items": [["y", "x", "y"]]})
        )
        [enc] = encode_rdd(df, d).collect()
        assert d.decode(enc) == ("y", "x", "y")

    def test_results_to_df_schema(self, spark):
        d = Dictionary.build([["x", "y"]], {})
        df = results_to_df(spark, [((1, 2), 3)], d)
        row = df.collect()[0]
        assert row["pattern"] == f"{d.name(1)} {d.name(2)}"
        assert row["support"] == 3
        assert dict(df.dtypes) == {"pattern": "string", "support": "bigint"}

    def test_results_to_df_from_rdd(self, spark):
        d = Dictionary.build([["x", "y"]], {})
        rdd = spark.sparkContext.parallelize([((1, 2), 3), ((2,), 1)])
        got = {r["pattern"]: r["support"] for r in results_to_df(spark, rdd, d).collect()}
        assert got == {f"{d.name(1)} {d.name(2)}": 3, d.name(2): 1}

    @pytest.mark.parametrize("combine", [True, False])
    def test_weigh_by_key(self, spark, combine):
        pairs = spark.sparkContext.parallelize(
            [(1, "a"), (2, "b"), (1, "a"), (1, "c")], 2
        )
        out = weigh_by_key(pairs, combine=combine)
        assert count_shuffles(out) == 1
        assert dict(out.collect()) == {1: {"a": 2, "c": 1}, 2: {"b": 1}}
