"""D-SEQ: item-based partitioning with sequence representation (Sec. V).

Map (``mapPartitions``; one σ-filtered ``grid.StepTable`` per task, built
from the broadcast FST and Dictionary and shared by its sequences), per
input sequence T:
  * compute the pivot items K(T) by the backward and forward passes over
    the position–state grid (Sec. V-A) — or brute-force candidate
    enumeration when ``use_grid=False`` (the Fig. 10a ablation),
  * per pivot k, emit ``(k, (ρk(T), last_pivot_pos))`` where ρk(T) is the
    trimmed rewrite (Sec. V-B; full T when ``rewrite=False``) and
    last_pivot_pos feeds the reducer's early-stopping heuristic.

Shuffle (exactly one): ``framework.weigh_by_key`` aggregates identical
representations into weights map-side (LASH-style; identical rewritten
sequences are mined once).

Reduce (per partition Pk): pivot-restricted DESQ-DFS (Sec. V-C) outputs
every frequent subsequence with pivot exactly k.
"""
from __future__ import annotations

from pyspark import RDD

from repro.hierarchy import Dictionary
from repro.patex.fst import Fst
from repro.desq.dfs import mine
from repro.desq.grid import StepTable, pivot_items_bruteforce
from repro.desq.rewrite import pivot_representations
from repro.core.framework import weigh_by_key


def d_seq(
    seq_rdd: RDD,
    fst: Fst,
    d: Dictionary,
    sigma: int,
    *,
    use_grid: bool = True,
    rewrite: bool = True,
    early_stop: bool = True,
) -> RDD:
    """RDD of fid tuples → RDD of (subsequence, frequency), frequency ≥ σ."""
    sc = seq_rdd.context
    fst_bc = sc.broadcast(fst)
    d_bc = sc.broadcast(d)

    def map_partition(seqs):
        fst_, d_ = fst_bc.value, d_bc.value
        if not use_grid:
            # Ablation: enumerate candidates to find pivots, ship full T.
            for T in seqs:
                for k in pivot_items_bruteforce(fst_, T, d_, sigma):
                    yield k, (tuple(T), None)
            return
        steps = StepTable(fst_, d_, sigma)  # shared by the task's sequences
        for T in seqs:
            yield from pivot_representations(
                fst_, T, d_, sigma, rewrite=rewrite, steps=steps).items()

    def reduce_phase(kv):
        k, weights = kv
        results = mine(
            list(weights.items()),
            fst_bc.value,
            d_bc.value,
            sigma,
            pivot=k,
            early_stop=early_stop,
        )
        return list(results.items())

    return weigh_by_key(seq_rdd.mapPartitions(map_partition)).flatMap(reduce_phase)
