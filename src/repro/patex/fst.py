"""Compressed finite state transducer (paper Sec. IV, Fig. 4).

An FST is a 6-tuple (Q, qS, QF, Σ, 2^Σ ∪ {ε}, Δ). Every transition consumes
exactly one input item (the compiler eliminates ε-moves), matches it against
an input predicate, and produces an *output set* — either ``{ε}``
(represented as the empty tuple) or a set of items, each guaranteed to be an
ancestor of the input item (incl. the item itself).

Matchers and outputs are small tagged tuples evaluated against a broadcast
:class:`repro.hierarchy.Dictionary`, which keeps the FST picklable and cheap
to ship to Spark executors.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.hierarchy import Dictionary

# Matcher tags -----------------------------------------------------------
M_ANY = "any"  # ("any",)            matches every item
M_DESC = "desc"  # ("desc", w)       matches t ∈ desc(w)  (reflexive)
M_EQ = "eq"  # ("eq", w)             matches exactly w

# Output tags ------------------------------------------------------------
O_EPS = "eps"  # ("eps",)            outputs ε
O_SELF = "self"  # ("self",)         outputs {t}
O_ANC = "anc"  # ("anc",)            outputs anc(t)
O_ANC_UPTO = "anc_upto"  # ("anc_upto", w)  outputs anc(t) ∩ desc(w)
O_CONST = "const"  # ("const", w)    outputs {w}


@dataclass(frozen=True)
class Transition:
    """One FST transition δ = (src, in, out, dst); ``idx`` is its number."""

    idx: int
    src: int
    matcher: Tuple
    output: Tuple
    dst: int

    def matches(self, t: int, d: Dictionary) -> bool:
        tag = self.matcher[0]
        if tag == M_ANY:
            return True
        if tag == M_DESC:
            return d.is_descendant(t, self.matcher[1])
        return t == self.matcher[1]  # M_EQ

    def out(self, t: int, d: Dictionary) -> Tuple[int, ...]:
        """Output set for input ``t`` — ascending fids; ``()`` means ε."""
        tag = self.output[0]
        if tag == O_EPS:
            return ()
        if tag == O_SELF:
            return (t,)
        if tag == O_ANC:
            return d.ancestors(t)
        if tag == O_ANC_UPTO:
            w = self.output[1]
            return tuple(a for a in d.ancestors(t) if d.is_descendant(a, w))
        return (self.output[1],)  # O_CONST

    def produces_output(self) -> bool:
        return self.output[0] != O_EPS


@dataclass(frozen=True)
class Fst:
    """FST with integer states ``0..n_states-1``; state 0 is initial."""

    n_states: int
    initial: int
    finals: frozenset
    transitions: Tuple[Transition, ...]

    def by_src(self) -> List[List[Transition]]:
        """Transitions grouped by source state (computed on demand; the
        result is cached on first use via ``object.__setattr__`` because the
        dataclass is frozen)."""
        cached = getattr(self, "_by_src", None)
        if cached is None:
            cached = [[] for _ in range(self.n_states)]
            for tr in self.transitions:
                cached[tr.src].append(tr)
            object.__setattr__(self, "_by_src", cached)
        return cached

    def describe(self, d: Dictionary) -> str:
        """Human-readable transition table (for tests and debugging)."""

        def fmt(tag_tuple: Tuple) -> str:
            tag = tag_tuple[0]
            if len(tag_tuple) == 1:
                return tag
            return f"{tag}({d.name(tag_tuple[1])})"

        lines = [f"states={self.n_states} initial={self.initial} finals={sorted(self.finals)}"]
        for tr in self.transitions:
            lines.append(
                f"  δ{tr.idx}: q{tr.src} --[{fmt(tr.matcher)} / {fmt(tr.output)}]--> q{tr.dst}"
            )
        return "\n".join(lines)
