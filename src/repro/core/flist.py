"""Spark f-list computation (preprocessing step, paper Sec. II & VII-A).

The f-list — per item, the number of input sequences containing the item or
any of its descendants — is computed in one Spark job: a single
``mapPartitions`` pass over the item column.

1. The hierarchy's reflexive-transitive ancestor closure is computed on the
   driver (vocabularies are tiny compared to the data) and broadcast.
2. Per sequence, the distinct union of the ancestor sets of its items is
   counted; an item not in the hierarchy closes over itself. Each
   partition returns one :class:`collections.Counter` from
   :func:`repro.hierarchy.document_frequencies`, the function the
   driver-side ``Dictionary.build`` uses.
3. The driver merges the vocabulary-sized counters into a
   :class:`repro.hierarchy.Dictionary`, which the mining jobs broadcast.

No ``seq_id`` column is needed. ``flist_df`` exposes the same counts as a
DataFrame so the DuckDB oracle (``FLIST_ORACLE_SQL`` over ``exploded_df``
and ``closure_df``) verifies exactly the numbers ``mine()`` uses. The paper
treats f-list construction as a one-off preprocessing step and excludes it
from run times.
"""
from __future__ import annotations

from collections import Counter
from typing import Mapping, Optional, Sequence

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.hierarchy import Dictionary, ancestor_closure, document_frequencies

FLIST_ORACLE_SQL = """
    SELECT c.anc AS item, COUNT(DISTINCT s.seq_id) AS dfreq
    FROM exploded s JOIN closure c ON s.item = c.item
    GROUP BY c.anc
"""


def closure_df(spark: SparkSession, hierarchy: Mapping[str, Sequence[str]],
               vocab: Optional[Sequence[str]] = None) -> DataFrame:
    """(item, anc) rows of the reflexive-transitive hierarchy closure.

    ``vocab`` adds items that occur in the data but not in the hierarchy
    (they close over themselves).
    """
    closure = ancestor_closure(dict(hierarchy))
    rows = [(w, a) for w, ancs in closure.items() for a in sorted(ancs)]
    for w in vocab or ():
        if w not in closure:
            rows.append((w, w))
    return spark.createDataFrame(rows, "item string, anc string")


def exploded_df(df: DataFrame, item_col: str = "items") -> DataFrame:
    """Distinct (seq_id, item) pairs from a sequence DataFrame.

    ``df`` must have a unique ``seq_id`` column and an array column
    ``item_col``.
    """
    return (
        df.select("seq_id", F.explode(F.col(item_col)).alias("item"))
        .distinct()
    )


def _dfreq(
    df: DataFrame,
    hierarchy: Mapping[str, Sequence[str]],
    item_col: str,
) -> Counter:
    """item → dfreq for every item that occurs in ``df`` or is an ancestor
    of one: one ``mapPartitions`` job, one Counter per partition."""
    closure_bc = df.sparkSession.sparkContext.broadcast(
        ancestor_closure(dict(hierarchy))
    )

    def count_partition(rows):
        yield document_frequencies((row[0] or () for row in rows), closure_bc.value)

    total: Counter = Counter()
    for counts in df.select(item_col).rdd.mapPartitions(count_partition).collect():
        total.update(counts)
    closure_bc.unpersist()
    return total


def flist_df(
    spark: SparkSession,
    df: DataFrame,
    hierarchy: Mapping[str, Sequence[str]],
    item_col: str = "items",
) -> DataFrame:
    """(item, dfreq) — document frequency per item, hierarchy-aware."""
    freqs = _dfreq(df, hierarchy, item_col)
    return spark.createDataFrame(list(freqs.items()), "item string, dfreq long")


def build_dictionary(
    spark: SparkSession,
    df: DataFrame,
    hierarchy: Mapping[str, Sequence[str]],
    item_col: str = "items",
    order: Optional[Sequence[str]] = None,
) -> Dictionary:
    """Spark-computed f-list → frequency-ordered :class:`Dictionary`."""
    freqs = _dfreq(df, hierarchy, item_col)
    return Dictionary.build([], hierarchy, dfreq=freqs, order=order)
