"""Synthetic flat sequence corpora.

Generators are deterministic in ``seed``.
"""
import numpy as np


def zipf_sequences_raw(
    *,
    n: int,
    vocab_size: int,
    alpha: float = 1.3,
    mean_len: float = 19.0,
    prefix: str = "w",
    seed: int = 6,
) -> list:
    """Zipf-unigram sentences as Python lists (no hierarchy) — the flat
    corpus shape of ClueWeb-style datasets (sequence-mining papers)."""
    g = np.random.default_rng(seed)
    ranks = np.arange(1, vocab_size + 1)
    weights = 1.0 / ranks**alpha
    weights /= weights.sum()
    lengths = np.maximum(1, g.poisson(mean_len, n))
    words = g.choice(ranks, size=int(lengths.sum()), p=weights)
    out = []
    pos = 0
    for L in lengths:
        out.append([f"{prefix}{w}" for w in words[pos : pos + L]])
        pos += L
    return out
