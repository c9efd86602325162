"""Tests for sequence rewriting (Sec. V-B): trimming must preserve the
per-pivot candidate sets."""
import itertools
import random

import pytest

from repro.hierarchy import Dictionary
from repro.patex import compile_patex
from repro.desq.rewrite import pivot_representations
from repro.desq.simulate import accepting_runs, generate
from repro.experiments.constraints import t2_expr


def pivot_share(fst, T, d, sigma, k):
    """σ-filtered candidates of T with pivot exactly k."""
    return {c for c in generate(fst, T, d, sigma=sigma) if max(c) == k}


class TestRunningExample:
    def test_rho_a1_t2_trims_leading_es(self, piex_fst, dex_dict, dex_encoded):
        """Sec. V-B: ρa1(T2) = a1ea1eb — the two leading e's are irrelevant."""
        reps = pivot_representations(piex_fst, dex_encoded[1], dex_dict, 2)
        a1 = dex_dict.fid_of["a1"]
        assert set(reps) == {a1}
        rho, last_piv = reps[a1]
        assert dex_dict.decode(rho) == ("a1", "e", "a1", "e", "b")
        # Last position that can output a1 within ρ: index 2 (the second a1).
        assert last_piv == 2

    def test_keys_equal_pivot_items(self, piex_fst, dex_dict, dex_encoded):
        from repro.desq.grid import pivot_items

        for T in dex_encoded:
            reps = pivot_representations(piex_fst, T, dex_dict, 2)
            assert set(reps) == pivot_items(piex_fst, T, dex_dict, 2)

    def test_t1_full_for_both_pivots(self, piex_fst, dex_dict, dex_encoded):
        """T1 = a1cdcb: position 1 (a1) and 5 (b) are relevant for both
        pivots, so no trimming is possible."""
        reps = pivot_representations(piex_fst, dex_encoded[0], dex_dict, 2)
        for k, (rho, _) in reps.items():
            assert rho == dex_encoded[0]

    def test_rewrite_disabled_returns_full(self, piex_fst, dex_dict, dex_encoded):
        reps = pivot_representations(
            piex_fst, dex_encoded[1], dex_dict, 2, rewrite=False
        )
        a1 = dex_dict.fid_of["a1"]
        rho, last_piv = reps[a1]
        assert rho == dex_encoded[1]
        assert last_piv == 4  # 0-based index of the second a1 in T2


class TestTrimmingPreservesPivotCandidates:
    """The correctness contract: Gσ(ρk(T)) and Gσ(T) agree on pivot-k
    candidates, for every pivot k."""

    @pytest.mark.parametrize(
        "expr",
        [
            ".*(A)[(.^).*]*(b).*",
            "(.^)[.{0,1}(.^)]{1,4}",
            ".*(.)[.{0,2}(.)]{1,3}.*",
            ".*[(A^)|(d)]+.*",
            ".*(A) (b) .*",
        ],
    )
    @pytest.mark.parametrize("sigma", [1, 2])
    def test_random(self, dex_dict, expr, sigma):
        rng = random.Random(7)
        fst = compile_patex(expr, dex_dict)
        vocab = [dex_dict.fid_of[w] for w in ("b", "A", "d", "a1", "c", "e", "a2")]
        for _ in range(40):
            T = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
            reps = pivot_representations(fst, T, dex_dict, sigma)
            full = generate(fst, T, dex_dict, sigma=sigma)
            assert set(reps) == {max(c) for c in full}
            for k, (rho, _) in reps.items():
                assert pivot_share(fst, rho, dex_dict, sigma, k) == {
                    c for c in full if max(c) == k
                }, (expr, sigma, T, k)

    def test_no_candidates_empty_reps(self, piex_fst, dex_dict, dex_encoded):
        assert pivot_representations(piex_fst, dex_encoded[2], dex_dict, 2) == {}
        assert pivot_representations(piex_fst, dex_encoded[3], dex_dict, 2) == {}


class TestLastPivotPosition:
    def test_last_pivot_within_bounds(self, piex_fst, dex_dict, dex_encoded):
        for T in dex_encoded:
            for k, (rho, lp) in pivot_representations(
                piex_fst, T, dex_dict, 2
            ).items():
                assert 0 <= lp < len(rho)

    def test_last_pivot_points_to_producer(self, piex_fst, dex_dict, dex_encoded):
        """Dropping everything after last_pivot_pos must kill all pivot-k
        candidates that contain k at a later output position — sanity: the
        item at last_pivot_pos can actually output k (k ∈ anc-outputs)."""
        for T in dex_encoded:
            for k, (rho, lp) in pivot_representations(
                piex_fst, T, dex_dict, 2
            ).items():
                t = rho[lp]
                assert k in dex_dict.ancestors(t)


def run_based_representations(fst, T, d, sigma, rewrite):
    """Oracle for ``pivot_representations`` from the accepting runs alone:
    no grid, no ⊕. A run yields pivot k iff k is the maximum of one of its
    σ-filtered candidates; position i is relevant for k on such a run iff
    its transition changes state or outputs a kept item ≤ k; the last
    pivot position is the last position that outputs k on such a run."""
    first, last, last_piv = {}, {}, {}
    for run in accepting_runs(fst, T, d):
        outs = []
        for tr, t in zip(run, T):
            out = tr.out(t, d)
            outs.append(tuple(w for w in out if d.is_frequent(w, sigma)) if out else None)
        if any(o == () for o in outs):
            continue  # an all-infrequent output kills the run
        sets = [o for o in outs if o is not None]
        if not sets:
            continue  # only ε output: no candidate
        for k in {max(combo) for combo in itertools.product(*sets)}:
            for i, (tr, out) in enumerate(zip(run, outs), 1):
                if tr.src != tr.dst or any(w <= k for w in out or ()):
                    first[k] = min(first.get(k, i), i)
                    last[k] = max(last.get(k, i), i)
                if k in (out or ()):
                    last_piv[k] = max(last_piv.get(k, i), i)
    if rewrite:
        return {k: (tuple(T[first[k] - 1 : last[k]]), last_piv[k] - first[k]) for k in first}
    return {k: (tuple(T), last_piv[k] - 1) for k in first}


class TestRunBasedOracle:
    """``pivot_representations`` equals the run-based oracle on random
    databases: pivots, trimmed sequences and last pivot positions."""

    @pytest.mark.parametrize(
        "expr",
        [
            ".*(A)[(.^).*]*(b).*",
            "(.^)[.{0,1}(.^)]{1,4}",
            ".*(.)[.{0,2}(.)]{1,3}.*",
            ".*[(A^)|(d)]+.*",
            ".*(A^) .* (b=) .*",
            "[.|(.^)]*",
            "(.)+",
            "(d|.)(.^)+",
        ],
    )
    @pytest.mark.parametrize("sigma", [1, 2, 3])
    @pytest.mark.parametrize("rewrite", [True, False])
    def test_random(self, dex_dict, expr, sigma, rewrite):
        rng = random.Random(11)
        fst = compile_patex(expr, dex_dict)
        vocab = [dex_dict.fid_of[w] for w in ("b", "A", "d", "a1", "c", "e", "a2")]
        for _ in range(30):
            T = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 7)))
            got = pivot_representations(fst, T, dex_dict, sigma, rewrite=rewrite)
            assert got == run_based_representations(
                fst, T, dex_dict, sigma, rewrite
            ), (expr, sigma, T)


def test_long_sequence():
    """The paper's longest input has 44 557 items; the passes are iterative."""
    rng = random.Random(3)
    T_raw = [f"w{rng.randint(0, 40)}" for _ in range(45_000)]
    d = Dictionary.build([T_raw], {})
    T = d.encode(T_raw)
    fst = compile_patex(t2_expr(0, 5), d)
    reps = pivot_representations(fst, T, d, 1)
    assert set(reps) == set(T)
    for k, (rho, lp) in reps.items():
        assert 0 <= lp < len(rho) and rho[lp] == k
