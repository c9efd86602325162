"""Spark integration tests: f-list, the four distributed algorithms, the
one-shuffle property, and the facade."""
import random
from contextlib import contextmanager

import pandas as pd
import pytest

from repro import oracle
from repro.core import mine, mine_sequential
from repro.core.dcand import d_cand
from repro.core.dseq import d_seq
from repro.core.flist import (
    FLIST_ORACLE_SQL,
    build_dictionary,
    closure_df,
    exploded_df,
    flist_df,
)
from repro.core.framework import count_shuffles, encode_rdd, with_seq_ids
from repro.core.naive import naive
from repro.datasets import amzn_f_lite_raw
from repro.hierarchy import Dictionary
from repro.patex import compile_patex
from tests.conftest import DEX, HIER, PAPER_ORDER, PIEX

EXPECTED = {"a1 a1 b": 2, "a1 A b": 2, "a1 b": 3}


@pytest.fixture(scope="module")
def dex_df(spark):
    return spark.createDataFrame(
        pd.DataFrame({"seq_id": range(len(DEX)), "items": DEX})
    )


@contextmanager
def job_group(spark, group):
    """Run the block in Spark job group ``group``. Yields a function that
    returns the ids of the jobs started in the group so far."""
    sc = spark.sparkContext

    def job_ids():
        # Job starts reach the status tracker through the asynchronous
        # listener bus; drain it first.
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        return list(sc.statusTracker().getJobIdsForGroup(group))

    sc.setJobGroup(group, group)
    try:
        yield job_ids
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


@pytest.fixture(scope="module")
def dex_rdd(spark, dex_df, dex_dict):
    return encode_rdd(dex_df, dex_dict).cache()


class TestFlist:
    def test_flist_matches_paper(self, spark, dex_df):
        rows = {
            r["item"]: r["dfreq"]
            for r in flist_df(spark, dex_df, HIER).collect()
        }
        assert rows == {"b": 5, "A": 4, "d": 3, "a1": 3, "c": 2, "e": 1, "a2": 1}

    def test_flist_oracle(self, spark, dex_df):
        """DuckDB verifies the Spark f-list aggregation."""
        vocab = sorted({t for s in DEX for t in s})
        cdf = closure_df(spark, HIER, vocab)
        edf = exploded_df(dex_df)
        got = flist_df(spark, dex_df, HIER)
        oracle.assert_equivalent(got, FLIST_ORACLE_SQL, exploded=edf, closure=cdf)

    def test_build_dictionary_spark(self, spark, dex_df, dex_dict):
        d = build_dictionary(spark, dex_df, HIER, order=PAPER_ORDER)
        assert d.names == dex_dict.names
        assert d.dfreq == dex_dict.dfreq

    def test_build_dictionary_runs_one_job(self, spark, dex_df):
        with job_group(spark, "flist-one-job") as job_ids:
            build_dictionary(spark, dex_df, HIER)
            assert len(job_ids()) == 1

    def test_build_dictionary_forest_corpus(self, spark):
        """Spark f-list == driver f-list on a hierarchy forest, no seq_id."""
        seqs, h = amzn_f_lite_raw(200, 23)
        df = spark.createDataFrame(pd.DataFrame({"items": seqs}))
        got = build_dictionary(spark, df, h)
        want = Dictionary.build(seqs, h)
        assert got.names == want.names
        assert got.dfreq == want.dfreq

    def test_hierarchy_only_items_get_zero(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"seq_id": [0], "items": [["x"]]})
        )
        d = build_dictionary(spark, df, {"x": ["p"], "q": ["p"]})
        assert d.freq(d.fid_of["q"]) == 0
        assert d.freq(d.fid_of["p"]) == 1


def run_algorithm(algo, rdd, fst, d, sigma, **kw):
    if algo == "naive":
        out = naive(rdd, fst, d, sigma, semi=False, **kw)
    elif algo == "semi_naive":
        out = naive(rdd, fst, d, sigma, semi=True, **kw)
    elif algo == "dseq":
        out = d_seq(rdd, fst, d, sigma, **kw)
    else:
        out = d_cand(rdd, fst, d, sigma, **kw)
    return {d.decode_str(seq): f for seq, f in out.collect()}


class TestRunningExampleAllAlgorithms:
    @pytest.mark.parametrize("algo", ["naive", "semi_naive", "dseq", "dcand"])
    def test_expected_result(self, algo, dex_rdd, piex_fst, dex_dict):
        assert run_algorithm(algo, dex_rdd, piex_fst, dex_dict, 2) == EXPECTED

    @pytest.mark.parametrize("sigma", [1, 2, 3, 4])
    def test_cross_algorithm_agreement(self, sigma, dex_rdd, piex_fst, dex_dict):
        results = [
            run_algorithm(a, dex_rdd, piex_fst, dex_dict, sigma)
            for a in ("naive", "semi_naive", "dseq", "dcand")
        ]
        assert results[0] == results[1] == results[2] == results[3]


class TestOneShuffle:
    """The BSP-with-one-communication-round property (Alg. 1)."""

    @pytest.mark.parametrize("algo", ["naive", "semi_naive", "dseq", "dcand"])
    def test_single_shuffle(self, algo, dex_rdd, piex_fst, dex_dict):
        if algo == "naive":
            out = naive(dex_rdd, piex_fst, dex_dict, 2, semi=False)
        elif algo == "semi_naive":
            out = naive(dex_rdd, piex_fst, dex_dict, 2, semi=True)
        elif algo == "dseq":
            out = d_seq(dex_rdd, piex_fst, dex_dict, 2)
        else:
            out = d_cand(dex_rdd, piex_fst, dex_dict, 2)
        assert count_shuffles(out) == 1


class TestDseqAblations:
    """Fig. 10a: each component can be disabled without changing results."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(use_grid=False, rewrite=False, early_stop=False),
            dict(rewrite=False, early_stop=False),
            dict(early_stop=False),
            dict(),
        ],
    )
    def test_same_result(self, kw, dex_rdd, piex_fst, dex_dict):
        assert run_algorithm("dseq", dex_rdd, piex_fst, dex_dict, 2, **kw) == EXPECTED


class TestDcandAblations:
    """Fig. 10b: aggregation and minimization are performance-only."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(aggregate=False, minimize_nfas=False),
            dict(minimize_nfas=False),
            dict(),
        ],
    )
    def test_same_result(self, kw, dex_rdd, piex_fst, dex_dict):
        assert run_algorithm("dcand", dex_rdd, piex_fst, dex_dict, 2, **kw) == EXPECTED


class TestRandomizedCrossAlgorithm:
    @pytest.mark.parametrize(
        "expr, sigma",
        [
            (PIEX, 2),
            ("(.^)[.{0,1}(.^)]{1,3}", 3),
            (".*(.)[.{0,2}(.)]{1,2}.*", 4),
            (".*[(A^)|(d)]+.*", 2),
        ],
    )
    def test_agreement_random_db(self, spark, dex_dict, expr, sigma):
        rng = random.Random(5)
        vocab = ["b", "A", "d", "a1", "c", "e", "a2"]
        db = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            for _ in range(60)
        ]
        df = spark.createDataFrame(
            pd.DataFrame({"seq_id": range(len(db)), "items": db})
        )
        d = Dictionary.build(db, HIER)
        rdd = encode_rdd(df, d).cache()
        fst = compile_patex(expr, d)
        results = [
            run_algorithm(a, rdd, fst, d, sigma)
            for a in ("semi_naive", "dseq", "dcand")
        ]
        assert results[0] == results[1] == results[2]
        # And the sequential miner agrees too.
        seq = {
            " ".join(p): f
            for p, f in mine_sequential(db, HIER, expr, sigma, dictionary=d).items()
        }
        assert seq == results[0]


class TestFacade:
    def test_mine_dataframe_result(self, spark, dex_df):
        out = mine(
            spark,
            dex_df,
            HIER,
            PIEX,
            2,
            algorithm="dseq",
            dictionary=Dictionary.build(DEX, HIER, order=PAPER_ORDER),
        )
        got = {r["pattern"]: r["support"] for r in out.collect()}
        assert got == EXPECTED
        assert set(out.columns) == {"pattern", "support"}

    def test_mine_builds_dictionary_itself(self, spark, dex_df):
        out = mine(spark, dex_df, HIER, PIEX, 2, algorithm="dcand")
        got = {r["pattern"]: r["support"] for r in out.collect()}
        assert got == EXPECTED

    def test_mine_without_seq_id_column(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"items": DEX}))
        out = mine(spark, df, HIER, PIEX, 2, algorithm="semi_naive")
        got = {r["pattern"]: r["support"] for r in out.collect()}
        assert got == EXPECTED

    def test_mine_is_lazy(self, spark, dex_df, dex_dict):
        """With a dictionary, mine() starts no job until its result is
        consumed; then one action mines, decodes and materializes."""
        with job_group(spark, "mine-lazy") as job_ids:
            out = mine(spark, dex_df, HIER, PIEX, 2, algorithm="dcand",
                       dictionary=dex_dict)
            assert job_ids() == []
            got = {r["pattern"]: r["support"] for r in out.collect()}
            assert job_ids()
        assert got == EXPECTED

    @pytest.mark.parametrize("algo", ["dseq", "dcand"])
    @pytest.mark.parametrize("rows", [[], [[]]], ids=["no_rows", "empty_row"])
    def test_mine_empty_input(self, spark, algo, rows):
        df = spark.createDataFrame([(r,) for r in rows], "items array<string>")
        out = mine(spark, df, {}, ".*(.).*", 1, algorithm=algo)
        assert out.columns == ["pattern", "support"]
        assert out.collect() == []

    @pytest.mark.parametrize("expr", [PIEX, ".*(.)[.{0,1}(.)]{1,2}.*"])
    def test_mine_unknown_items(self, spark, dex_dict, expr):
        """Items that a supplied dictionary lacks take a position but are
        never frequent: D-SEQ, D-CAND and the sequential miner all give the
        result for a dictionary in which they occur but are infrequent."""
        db = [["zzz"] + DEX[0], DEX[1][:3] + ["yyy"] + DEX[1][3:],
              DEX[2], DEX[3], DEX[4][:1] + ["xxx"] + DEX[4][1:]]
        want = {" ".join(p): f for p, f in mine_sequential(db, HIER, expr, 2).items()}
        assert want
        df = spark.createDataFrame(pd.DataFrame({"items": db}))
        for algo in ("dseq", "dcand"):
            out = mine(spark, df, HIER, expr, 2, algorithm=algo, dictionary=dex_dict)
            assert {r["pattern"]: r["support"] for r in out.collect()} == want, algo
        seq = mine_sequential(db, HIER, expr, 2, dictionary=dex_dict)
        assert {" ".join(p): f for p, f in seq.items()} == want

    @pytest.mark.parametrize("algo", ["naive", "semi_naive", "dseq", "dcand"])
    def test_mine_frequent_unknown_item_never_reported(self, spark, algo):
        db = [["a", "zzz"], ["zzz", "b"], ["a", "zzz", "b"]]
        d = Dictionary.build([[t for t in s if t != "zzz"] for s in db], {})
        df = spark.createDataFrame(pd.DataFrame({"items": db}))
        out = mine(spark, df, {}, ".*(.).*", 2, algorithm=algo, dictionary=d)
        assert {r["pattern"]: r["support"] for r in out.collect()} == {"a": 2, "b": 2}

    def test_unknown_algorithm(self, spark, dex_df):
        with pytest.raises(ValueError):
            mine(spark, dex_df, HIER, PIEX, 2, algorithm="bogus")

    def test_mine_sequential_names(self):
        res = mine_sequential(DEX, HIER, PIEX, 2)
        assert {" ".join(p): f for p, f in res.items()} == EXPECTED
