"""NAÏVE and SEMI-NAÏVE baselines (paper Sec. III-A).

Subsequence-based partitioning: every candidate subsequence is its own
partition key (distributed word-count over candidates).

* NAÏVE generates Gπ(T) — all candidates.
* SEMI-NAÏVE generates Gσπ(T) — candidates consisting only of frequent
  items (support antimonotonicity: no frequent subsequence contains an
  infrequent item), which can shrink the shuffle dramatically.

Both produce identical final output (a frequent subsequence never contains
an infrequent item), which makes them byte-for-byte oracles for D-SEQ and
D-CAND in the tests. One round of communication: ``reduceByKey``.
"""
from __future__ import annotations

from typing import Optional

from pyspark import RDD

from repro.hierarchy import Dictionary
from repro.patex.fst import Fst
from repro.desq.simulate import generate


def naive(
    seq_rdd: RDD,
    fst: Fst,
    d: Dictionary,
    sigma: int,
    *,
    semi: bool = False,
    max_candidates: Optional[int] = 2_000_000,
) -> RDD:
    """RDD of fid tuples → RDD of (subsequence, frequency), frequency ≥ σ."""
    sc = seq_rdd.context
    fst_bc = sc.broadcast(fst)
    d_bc = sc.broadcast(d)
    gen_sigma = sigma if semi else None
    unknown = d.unknown

    def gen(T):
        # Distinct per input sequence: support counts sequences, not
        # occurrences.
        cands = generate(
            fst_bc.value,
            T,
            d_bc.value,
            sigma=gen_sigma,
            max_candidates=max_candidates,
        )
        return [(c, 1) for c in cands]

    return (
        seq_rdd.flatMap(gen)
        .reduceByKey(lambda a, b: a + b)
        # Items missing from the dictionary share one fid with f = 0: never
        # frequent, whatever their count (SEMI-NAÏVE never generates them).
        .filter(lambda kv: kv[1] >= sigma and unknown not in kv[0])
    )
