"""Sequence rewriting for D-SEQ (paper Sec. V-B).

For each pivot item k of an input sequence T, D-SEQ sends a *trimmed*
variant ρk(T): the positions before the first relevant position and after
the last relevant position are dropped. A position is relevant for pivot k
if, on some accepting run that can produce a pivot-k candidate, its
transition either (1) produces output usable in a pivot-k candidate (an
item ≤ k that survives σ-filtering) or (2) changes the FST state.

Edges that "can produce a pivot-k candidate" are identified exactly: with
A(i-1, q') the prefix pivot sets (forward pass), out the σ-filtered output
set of the edge, and B(i, q) the suffix pivot sets (backward pass), the
pivots of all runs through the edge are A ⊕ out ⊕ B (⊕ distributes over
union), so the edge is k-capable iff k ∈ A ⊕ out ⊕ B. ``grid.pivot_passes``
collects these per position; one scan each way finds the positions below.

Dropping leading/trailing irrelevant positions is sound (Sec. V-B): before
the first relevant position, every pivot-k-capable run sits in the initial
state taking ε-output self-loops, so runs of the trimmed sequence lift to
runs of T matching those same self-loops (no new pivot-k candidates appear,
and local mining outputs only pivot-k sequences anyway).

This module also computes the *last pivot position* per (T, k) — the last
position whose transition can output k on a k-capable run — which D-SEQ
ships with ρk(T) so the reducer's early-stopping heuristic (Sec. V-C) needs
no second pivot search.
"""
from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.hierarchy import Dictionary
from repro.patex.fst import Fst
from repro.desq.grid import Grid, StepTable, pivot_passes


def pivot_representations(
    fst: Fst,
    T: Sequence[int],
    d: Dictionary,
    sigma: int,
    *,
    rewrite: bool = True,
    grid: Optional[Grid] = None,
    steps: Optional[StepTable] = None,
) -> Dict[int, Tuple[Tuple[int, ...], int]]:
    """Per pivot k of T: ``(ρk(T), last_pivot_pos)``.

    ``ρk(T)`` is the trimmed sequence (T itself when ``rewrite=False``) and
    ``last_pivot_pos`` the 0-based index *within ρk(T)* of the last position
    that can still output k on a k-capable accepting run. Returns an empty
    dict when T generates no σ-filtered candidates.

    ``steps`` is the :class:`StepTable` of ``(fst, d, sigma)``; share one
    across sequences, else each call builds its own. ``grid`` is unused:
    the passes run on the step table, and the keyword only keeps callers
    that build a grid first working.
    """
    T = tuple(T)
    if steps is None:
        steps = StepTable(fst, d, sigma)
    _, relevant, outputs = pivot_passes(steps, T)

    # Per pivot, 1-based over T: first/last relevant, last k-producing position.
    first_rel: Dict[int, int] = {}
    for i, rel in enumerate(relevant):
        for k in rel:
            first_rel.setdefault(k, i)
    last_rel: Dict[int, int] = {}
    last_piv: Dict[int, int] = {}
    for i in range(len(T), 0, -1):
        if len(last_piv) == len(first_rel):
            break  # a k-producing position is relevant, so last_rel is full
        for k in relevant[i]:
            last_rel.setdefault(k, i)
        for k in outputs[i]:
            last_piv.setdefault(k, i)

    reps: Dict[int, Tuple[Tuple[int, ...], int]] = {}
    for k, first in first_rel.items():
        if rewrite:
            reps[k] = (T[first - 1 : last_rel[k]], last_piv[k] - first)
        else:
            reps[k] = (T, last_piv[k] - 1)
    return reps
