"""The benchmark's workloads: corpus, constraint, σ and correctness oracle.

Each workload is one Table V-style row at a size that lets a whole run
(Spark start, set-up, the timed loop and the oracle) finish in well under a
minute on a 4-core host. README.md in this directory says why each one was
chosen and which layer it stresses.

The oracles are independent of the miners under test:

* ``gapmine`` enumerates (γ, λ)-subsequences directly, without FSTs, grid,
  DESQ-DFS or NFAs (used for the T2/T3 rows);
* ``semi_naive`` is SEMI-NAÏVE replayed on the driver: it enumerates every
  σ-filtered candidate per sequence (``desq.simulate.generate``, the map of
  ``core.naive``) and counts them, sharing only the FST compiler and
  simulator with the miners under test (used for the selective N1 row,
  which gapmine cannot express).
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro import datasets
from repro.baselines.gapmine import mine_gap
from repro.experiments.constraints import N_EXPRS, t2_expr, t3_expr
from repro.desq.simulate import generate
from repro.hierarchy import Dictionary
from repro.patex import compile_patex

# Results are compared as {space-joined pattern: support}, the shape of the
# DataFrame that mine() returns.
Result = Dict[str, int]


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # key into repro.datasets.DATASETS
    expr: str
    sigma: int
    n: int
    oracle: str  # "gapmine" or "semi_naive"
    gap: Optional[Tuple[int, int, bool]] = None  # (γ, λ, generalize) for gapmine


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Loose hierarchy-generalizing T3 row: DESQ-DFS reduce and D-CAND's
        # NFA build and NFA mining dominate.
        Workload("amznf-t3", "AMZN-F-lite", t3_expr(1, 5), 5, 1000, "gapmine",
                 gap=(1, 5, True)),
        # Flat corpus with the longest sequences: D-SEQ grid and rewrite
        # dominate, D-CAND's reduce is light.
        Workload("cw-t2", "CW-lite", t2_expr(0, 5), 5, 1000, "gapmine",
                 gap=(0, 5, False)),
        # Selective N1 constraint with tiny kernels: f-list, encoding and
        # Spark job cost dominate (the kernel bypass workload).
        Workload("nyt-n1", "NYT-lite", N_EXPRS["N1"], 2, 6000, "semi_naive"),
    )
}


def scaled(w: Workload, scale: float) -> Workload:
    """``w`` with its corpus size multiplied by ``scale`` (smoke runs)."""
    return w if scale == 1.0 else replace(w, n=max(50, int(w.n * scale)))


def corpus(w: Workload, seed: int) -> Tuple[List[List[str]], Dict[str, List[str]]]:
    """(sequences, hierarchy) of the workload, a pure function of ``seed``."""
    return datasets.DATASETS[w.dataset](w.n, seed)


def sequences_sha256(seqs: List[List[str]]) -> str:
    """Hash of the generated input, so two runs can show identical inputs."""
    return hashlib.sha256(json.dumps(seqs, separators=(",", ":")).encode()).hexdigest()


def reference(w: Workload, seqs, hierarchy) -> Result:
    """The workload's frequent patterns, computed by its oracle.

    The Dictionary is built here from the raw sequences, not by the Spark
    f-list, so the reference shares no preprocessing with ``mine()``.
    """
    d = Dictionary.build(seqs, hierarchy)
    encoded = [d.encode(s) for s in seqs]
    if w.oracle == "gapmine":
        gamma, lam, generalize = w.gap
        res = mine_gap(encoded, d, w.sigma, gamma, lam, generalize=generalize)
    else:
        res = _semi_naive(encoded, d, w)
    return {d.decode_str(p): f for p, f in res.items()}


def _semi_naive(encoded, d: Dictionary, w: Workload) -> Dict[Tuple[int, ...], int]:
    """SEMI-NAÏVE's map (σ-filtered candidates per sequence) and its
    word-count reduce, on the driver."""
    fst = compile_patex(w.expr, d)
    counts: Counter = Counter()
    for T in encoded:
        counts.update(generate(fst, T, d, sigma=w.sigma))
    return {c: f for c, f in counts.items() if f >= w.sigma}


def result_digest(result: Result) -> str:
    """Order-independent fingerprint of a result (for the run's output)."""
    return hashlib.sha256(
        json.dumps(sorted(result.items()), separators=(",", ":")).encode()
    ).hexdigest()[:16]
