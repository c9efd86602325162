"""Pivot search over the position–state grid (paper Sec. V-A, Fig. 5).

The grid collapses the (possibly exponentially many) accepting runs into a
DAG over coordinates ``(i, q)`` = (last-read position, FST state). Pivot
search is a forward pass over it with the *pivot merge* operator ⊕
(Theorem 1):

    U ⊕ Q = { ω ∈ U | ω ≥ min(Q) } ∪ { ω ∈ Q | ω ≥ min(U) }

with ε < w for all items w. ⊕ is commutative and associative, and
distributes over union, which makes the per-coordinate sets

    K(i, q) = ∪_{(q', δ) ∈ inc(i,q)}  K(i-1, q') ⊕ out_δ(t_i)

exactly the pivot items of the partial runs ending at (i, q).

σ-filtering is folded in as in the paper ("we do not add any item w with
f(w, D) < σ to any set K(i, q)"): infrequent items are the *largest* items
under the frequency order, so removing them never changes a set's minimum —
unless the set becomes empty, which correctly marks a dead branch (every
candidate through it contains an infrequent item). We encode the dead
branch as the empty set with the convention ``U ⊕ ∅ = ∅``.

The passes never materialize the grid (only :func:`build_grid` does). They
walk a :class:`StepTable` of the σ-filtered transitions per item: backwards
to B(i, q), the pivots of runs from (i, q) to acceptance (B ≠ ∅ iff (i, q)
lies on a σ-surviving accepting run), then forwards to A(i, q) = K(i, q).
Sets carry their minimum, since min(U ⊕ Q) = max(min U, min Q).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.hierarchy import EPSILON, Dictionary
from repro.patex.fst import Fst, Transition
from repro.desq.simulate import acceptance_table, generate

PivotSet = FrozenSet[int]
EMPTY: PivotSet = frozenset()
EPS_SET: PivotSet = frozenset({EPSILON})
Pivots = Tuple[PivotSet, int]  # a non-empty pivot set and its minimum
Step = Tuple[int, PivotSet, int, PivotSet]  # dst, out, min(out), out − {ε}


def merge(u: PivotSet, min_u: int, q: PivotSet, min_q: int) -> Pivots:
    """⊕ on non-empty sets given with their minima; returns (U ⊕ Q, min)."""
    if min_u > min_q:
        u, min_u, q, min_q = q, min_q, u, min_u
    if min_u == min_q:
        return u | q, min_u
    keep = [w for w in u if w >= min_q]
    return (q.union(keep) if keep else q), min_q


def pivot_merge(u: PivotSet, q: PivotSet) -> PivotSet:
    """The ⊕ operator. ``∅`` (dead) annihilates; ε counts as the minimum."""
    if not u or not q:
        return EMPTY
    return frozenset(merge(u, min(u), q, min(q))[0])


@dataclass
class Grid:
    """Accepting-run DAG for one (FST, T) pair.

    ``in_edges[i][q]`` lists ``(q_prev, transition)`` pairs for edges into
    coordinate ``(i, q)`` (1 ≤ i ≤ n). Coordinates appear only if they lie
    on at least one accepting run.
    """

    T: Tuple[int, ...]
    in_edges: List[Dict[int, List[Tuple[int, Transition]]]]
    final_states: Set[int]  # states q with (|T|, q) accepting

    def accepts(self) -> bool:
        return bool(self.final_states)


def build_grid(fst: Fst, T: Sequence[int], d: Dictionary) -> Grid:
    """Materialize the grid layer by layer: coordinates reachable from
    ``(0, initial)`` that can still reach acceptance (memoized)."""
    T = tuple(T)
    table = acceptance_table(fst, T, d)
    in_edges: List[Dict[int, List[Tuple[int, Transition]]]] = [{} for _ in range(len(T) + 1)]
    layer = {fst.initial} if table[(0, fst.initial)] else set()
    for i, t in enumerate(T):
        nxt: Set[int] = set()
        for q in layer:
            for tr in fst.by_src()[q]:
                if table[(i + 1, tr.dst)] and tr.matches(t, d):
                    in_edges[i + 1].setdefault(tr.dst, []).append((q, tr))
                    nxt.add(tr.dst)
        layer = nxt
    return Grid(T, in_edges, layer)


class StepTable(dict):
    """Item t → per-state tuple of steps ``(dst, out, min(out), items)``,
    one per transition matching t: ``out`` is its σ-filtered output set
    (``{ε}`` for ε-output), ``items`` is ``out`` without ε. Transitions whose
    output is all infrequent are left out (⊕ with ∅ is dead); ``sigma=None``
    filters nothing. Rows are filled on first use, once per distinct item.
    """

    def __init__(self, fst: Fst, d: Dictionary, sigma: Optional[int]):
        super().__init__()
        self.fst, self.d, self.sigma = fst, d, sigma

    def __missing__(self, t: int) -> Tuple[Tuple[Step, ...], ...]:
        d, sigma = self.d, self.sigma
        row = []
        for transitions in self.fst.by_src():
            steps = []
            for tr in transitions:
                if not tr.matches(t, d):
                    continue
                out = tr.out(t, d)
                if not out:
                    steps.append((tr.dst, EPS_SET, EPSILON, EMPTY))
                    continue
                kept = frozenset(
                    w for w in out if sigma is None or d.is_frequent(w, sigma))
                if kept:
                    steps.append((tr.dst, kept, min(kept), kept))
            row.append(tuple(steps))
        self[t] = row = tuple(row)
        return row


def suffix_pivots(steps: StepTable, T: Sequence[int]) -> List[Dict[int, Pivots]]:
    """Backward pass: B[i][q] = pivots of partial runs from (i, q) to accept.

    A coordinate is absent iff no σ-surviving accepting run passes it.
    """
    n = len(T)
    B: List[Dict[int, Pivots]] = [{} for _ in range(n + 1)]
    B[n] = {q: (EPS_SET, EPSILON) for q in steps.fst.finals}
    for i in range(n - 1, -1, -1):
        nxt, cur = B[i + 1], B[i]
        if not nxt:
            break
        for q, row in enumerate(steps[T[i]]):
            for dst, out, m, items in row:
                b = nxt.get(dst)
                if b is not None:
                    s = merge(out, m, *b) if items else b  # {ε} ⊕ B = B
                    c = cur.get(q)
                    cur[q] = s if c is None else (c[0] | s[0], min(c[1], s[1]))
    return B


def pivot_passes(steps: StepTable, T: Sequence[int]) -> Tuple[list, list, list]:
    """Backward, then forward pass; returns ``(A, relevant, outputs)``.

    ``A[i][q]`` = K(i, q) on the coordinates the backward pass kept. Per
    position i (1-based), from the pivots A ⊕ out ⊕ B of the runs through
    each edge: ``relevant[i]`` holds the pivots k for which i changes state
    or outputs a kept item ≤ k (Sec. V-B), ``outputs[i]`` those it outputs.
    """
    n = len(T)
    B = suffix_pivots(steps, T)
    A: List[Dict[int, Pivots]] = [{} for _ in range(n + 1)]
    relevant: List[Set[int]] = [set() for _ in range(n + 1)]
    outputs: List[Set[int]] = [set() for _ in range(n + 1)]
    if steps.fst.initial in B[0]:
        A[0][steps.fst.initial] = (EPS_SET, EPSILON)
    for i in range(1, n + 1):
        row, b_i, cur = steps[T[i - 1]], B[i], A[i]
        rel, outs = relevant[i], outputs[i]
        for q, (a, min_a) in A[i - 1].items():
            for dst, out, m, items in row[q]:
                b = b_i.get(dst)
                if b is None:
                    continue
                s = merge(a, min_a, out, m) if items else (a, min_a)
                c = cur.get(dst)
                cur[dst] = s if c is None else (c[0] | s[0], min(c[1], s[1]))
                if items or q != dst:  # an ε self-loop is never relevant
                    pivots = merge(*s, *b)[0]
                    outs |= pivots & items
                    if q != dst:
                        rel |= pivots
                    else:
                        rel.update(k for k in pivots if k >= m)
        rel.discard(EPSILON)
        if not cur:
            break
    return A, relevant, outputs


def prefix_pivots(
    grid: Grid, fst: Fst, d: Dictionary, sigma: Optional[int]
) -> List[Dict[int, PivotSet]]:
    """A[i][q] = K(i, q) on the coordinates of ``grid`` that can still
    complete a σ-surviving run (all of them when ``sigma`` is None)."""
    A = pivot_passes(StepTable(fst, d, sigma), grid.T)[0]
    return [{q: s for q, (s, _) in layer.items()} for layer in A]


def pivot_items(fst: Fst, T: Sequence[int], d: Dictionary, sigma: int) -> Set[int]:
    """K(T): pivot items of Gσπ(T) (linear in |T|·|Q|·|Δ|)."""
    A = pivot_passes(StepTable(fst, d, sigma), T)[0]
    return set().union(*(s for s, _ in A[len(T)].values())) - {EPSILON}


def pivot_items_bruteforce(
    fst: Fst, T: Sequence[int], d: Dictionary, sigma: int
) -> Set[int]:
    """Reference implementation: enumerate Gσπ(T) and take maxima."""
    return {max(c) for c in generate(fst, T, d, sigma=sigma)}
