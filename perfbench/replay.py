"""Spark-free replay of the per-sequence kernels, timed layer by layer.

The replay runs on the driver, in one process, the same kernels that D-SEQ
and D-CAND run inside their Spark jobs, called through the same public
functions with the same arguments:

* D-SEQ map: ``desq.grid.build_grid`` then ``desq.rewrite.pivot_representations``
  on that grid; the combiner becomes one (pivot → representation → weight)
  dict over the whole corpus; reduce: ``desq.dfs.mine`` per pivot.
* D-CAND map: ``desq.simulate.accepting_runs`` + ``run_output_sets``, then
  ``desq.nfa.build_pivot_nfas`` and ``serialize``; reduce: ``deserialize``
  and ``desq.nfa.mine_nfas`` per pivot.
* sequential DESQ-DFS: ``desq.dfs.mine`` over all sequences.

Timings are wall time of a single thread on an otherwise idle driver, so
they stand for kernel CPU. Each replay also returns its merged output, which
the caller compares with the oracle-checked reference: if the copied D-CAND
closures below ever drift from ``core.dcand``, that comparison fails.
"""
from __future__ import annotations

import inspect
from time import perf_counter as clock
from typing import Dict, List, Sequence, Tuple

from repro.core.dcand import d_cand
from repro.desq.dfs import mine as dfs_mine
from repro.desq.grid import EPS_SET, build_grid, pivot_merge
from repro.desq.nfa import build_pivot_nfas, deserialize, mine_nfas, serialize
from repro.desq.rewrite import pivot_representations
from repro.desq.simulate import accepting_runs, run_output_sets
from repro.hierarchy import EPSILON, Dictionary
from repro.patex.fst import Fst

Mined = Dict[Tuple[int, ...], int]
Metrics = Dict[str, float]

MAX_RUNS = inspect.signature(d_cand).parameters["max_runs"].default


def _reduce(partitions: Dict[int, dict], mine_one) -> Tuple[Mined, float, float]:
    """Mine every pivot partition; (merged output, total s, slowest s)."""
    out: Mined = {}
    total = slowest = 0.0
    for k in sorted(partitions):
        t0 = clock()
        res = mine_one(k, partitions[k])
        dt = clock() - t0
        total += dt
        slowest = max(slowest, dt)
        out.update(res)
    return out, total, slowest


def replay_dseq(seqs: Sequence[Tuple[int, ...]], fst: Fst, d: Dictionary,
                sigma: int) -> Tuple[Mined, Metrics]:
    """D-SEQ's map and reduce kernels with d_seq's default options."""
    grid_s = rewrite_s = 0.0
    edges = matched = emitted = payload = trimmed = full = 0
    partitions: Dict[int, Dict[Tuple, int]] = {}
    for T in seqs:
        t0 = clock()
        grid = build_grid(fst, T, d)
        t1 = clock()
        reps = pivot_representations(fst, T, d, sigma, grid=grid)
        t2 = clock()
        grid_s += t1 - t0
        rewrite_s += t2 - t1
        edges += sum(len(inc) for layer in grid.in_edges for inc in layer.values())
        matched += grid.accepts()
        for k, rep in reps.items():
            emitted += 1
            payload += len(rep[0]) + 1  # ρk(T) plus last_pivot_pos
            trimmed += len(rep[0])
            full += len(T)
            weights = partitions.setdefault(k, {})
            weights[rep] = weights.get(rep, 0) + 1

    def mine_one(k, weights):
        return dfs_mine(list(weights.items()), fst, d, sigma, pivot=k, early_stop=True)

    out, reduce_s, reduce_max_s = _reduce(partitions, mine_one)
    return out, {
        "desq.grid.build_s": grid_s,
        "desq.grid.edges": edges,
        "desq.rewrite.pivot_representations_s": rewrite_s,
        "desq.rewrite.seqs_matched": matched,
        "desq.rewrite.reps_emitted": emitted,
        "desq.rewrite.reps_distinct": sum(len(w) for w in partitions.values()),
        "desq.rewrite.payload_ints": payload,
        "desq.rewrite.trim_ratio": trimmed / full if full else 1.0,
        "desq.dfs.pivot_reduce_s": reduce_s,
        "desq.dfs.pivot_reduce_max_s": reduce_max_s,
        "desq.dfs.partitions": len(partitions),
    }


def replay_dcand(seqs: Sequence[Tuple[int, ...]], fst: Fst, d: Dictionary,
                 sigma: int) -> Tuple[Mined, Metrics]:
    """D-CAND's map and reduce kernels with d_cand's default options."""

    # Copies of the closures in core.dcand.d_cand's map phase.
    def pivots_of_run(filtered):
        acc = EPS_SET
        for out in filtered:
            acc = pivot_merge(acc, frozenset(out))
        return {k for k in acc if k != EPSILON}

    def sigma_filter(out):
        return tuple(w for w in out if d.is_frequent(w, sigma))

    runs_s = build_s = serialize_s = 0.0
    n_runs = emitted = payload = states = nfa_edges = 0
    partitions: Dict[int, Dict[Tuple[int, ...], int]] = {}
    for T in seqs:
        t0 = clock()
        runs: List = [run_output_sets(r, T, d)
                      for r in accepting_runs(fst, T, d, max_runs=MAX_RUNS)]
        t1 = clock()
        nfas = build_pivot_nfas(iter(runs), pivots_of_run, sigma_filter,
                                minimize_nfas=True)
        t2 = clock()
        payloads = [(k, serialize(nfa)) for k, nfa in nfas.items()]
        t3 = clock()
        runs_s += t1 - t0
        build_s += t2 - t1
        serialize_s += t3 - t2
        n_runs += len(runs)
        for nfa in nfas.values():
            states += nfa.n_states
            nfa_edges += nfa.n_edges
        for k, p in payloads:
            emitted += 1
            payload += len(p)
            weights = partitions.setdefault(k, {})
            weights[p] = weights.get(p, 0) + 1

    def mine_one(k, weights):
        inputs = [(deserialize(p), w) for p, w in weights.items()]
        return mine_nfas(inputs, sigma, pivot=k)

    out, mine_s, mine_max_s = _reduce(partitions, mine_one)
    return out, {
        "desq.simulate.accepting_runs_s": runs_s,
        "desq.simulate.runs": n_runs,
        "desq.nfa.build_s": build_s,
        "desq.nfa.serialize_s": serialize_s,
        "desq.nfa.emitted": emitted,
        "desq.nfa.distinct": sum(len(w) for w in partitions.values()),
        "desq.nfa.payload_ints": payload,
        "desq.nfa.states": states,
        "desq.nfa.edges": nfa_edges,
        "desq.nfa.mine_s": mine_s,
        "desq.nfa.mine_max_s": mine_max_s,
    }


def replay_sequential(seqs: Sequence[Tuple[int, ...]], fst: Fst, d: Dictionary,
                      sigma: int) -> Tuple[Mined, Metrics]:
    """Sequential DESQ-DFS over the whole corpus, as mine_sequential runs it."""
    t0 = clock()
    out = dfs_mine([((T, None), 1) for T in seqs], fst, d, sigma)
    return out, {"desq.dfs.sequential_s": clock() - t0}
