"""The benchmark's kernel replay (``perfbench/replay.py``) calls the D-SEQ
and D-CAND kernels through their public functions: ``build_grid``,
``Grid.in_edges`` / ``Grid.accepts``, ``pivot_representations(...,
grid=...)``, ``accepting_runs``, ``build_pivot_nfas`` and the NFA wire
format. This test runs the replay on the running example, so a kernel API
change cannot silently break the benchmark."""
import sys
from pathlib import Path

import pytest

from repro.desq.dfs import mine as dfs_mine

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import replay  # noqa: E402


@pytest.mark.parametrize("sigma", [1, 2])
@pytest.mark.parametrize("name", ["replay_dseq", "replay_dcand", "replay_sequential"])
def test_replay_matches_desq_dfs(piex_fst, dex_dict, dex_encoded, name, sigma):
    want = dfs_mine([((T, None), 1) for T in dex_encoded], piex_fst, dex_dict, sigma)
    got, metrics = getattr(replay, name)(dex_encoded, piex_fst, dex_dict, sigma)
    assert got == want
    assert metrics and all(v >= 0 for v in metrics.values())


def test_replay_dseq_counters(piex_fst, dex_dict, dex_encoded):
    """σ=2 (Fig. 3): T1 goes to Pa1 and Pc, T2 and T5 to Pa1; T4 has
    accepting runs, but all of them output the infrequent a2."""
    _, m = replay.replay_dseq(dex_encoded, piex_fst, dex_dict, 2)
    assert m["desq.rewrite.seqs_matched"] == 4
    assert m["desq.rewrite.reps_emitted"] == 4
    assert m["desq.dfs.partitions"] == 2
    assert m["desq.grid.edges"] > 0
