"""Kernel correctness against brute-force and loop-by-loop oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fnpred.kernels import bfs_limited, sgns_epoch, smith_waterman_score

# -- independent oracles -------------------------------------------------------

def sw_table_oracle(a: str, b: str) -> float:
    """Full-table local-alignment DP, coded separately from the kernel."""
    n, m = len(a), len(b)
    H = [[0.0] * (m + 1) for _ in range(n + 1)]
    best = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            diag = H[i - 1][j - 1] + (1.0 if a[i - 1] == b[j - 1] else -1.0)
            H[i][j] = max(0.0, diag, H[i - 1][j] - 1.0, H[i][j - 1] - 1.0)
            best = max(best, H[i][j])
    return best


def _global_align_exhaustive(a: str, b: str) -> float:
    """Best global alignment score by enumerating every alignment."""
    if not a and not b:
        return 0.0
    options = []
    if a and b:
        options.append(_global_align_exhaustive(a[1:], b[1:]) + (1.0 if a[0] == b[0] else -1.0))
    if a:
        options.append(_global_align_exhaustive(a[1:], b) - 1.0)
    if b:
        options.append(_global_align_exhaustive(a, b[1:]) - 1.0)
    return max(options)


def sw_exhaustive_oracle(a: str, b: str) -> float:
    """Local alignment = best global alignment over all substring pairs."""
    best = 0.0
    for i in range(len(a)):
        for j in range(i + 1, len(a) + 1):
            for k in range(len(b)):
                for l in range(k + 1, len(b) + 1):
                    best = max(best, _global_align_exhaustive(a[i:j], b[k:l]))
    return best


def bfs_oracle(adj: dict[int, list[int]], n: int, source: int, max_depth: int) -> list[int]:
    from collections import deque

    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if dist[u] >= max_depth:
            continue
        for v in adj.get(u, []):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def sgns_oracle(comp_flat, comp_off, ctx_rows, neg_rows, vec_in, vec_out, lr) -> float:
    """Scalar-by-scalar SGNS epoch with word2vec's sequential update order."""
    dim = vec_in.shape[1]
    loss = 0.0
    for p in range(ctx_rows.shape[0]):
        rows = [int(r) for r in comp_flat[comp_off[p] : comp_off[p + 1]]]
        inv = 1.0 / len(rows)
        hidden = [0.0] * dim
        for row in rows:
            for d in range(dim):
                hidden[d] += vec_in[row, d]
        hidden = [h * inv for h in hidden]
        err = [0.0] * dim
        targets = [int(ctx_rows[p])] + [int(t) for t in neg_rows[p]]
        for s, target in enumerate(targets):
            label = 1.0 if s == 0 else 0.0
            z = sum(vec_out[target, d] * hidden[d] for d in range(dim))
            z = min(max(z, -60.0), 60.0)
            f = 1.0 / (1.0 + math.exp(-z))
            p_correct = f if s == 0 else 1.0 - f
            loss += -math.log(max(p_correct, 1e-12))
            g = (label - f) * lr
            for d in range(dim):
                err[d] += g * vec_out[target, d]
                vec_out[target, d] += g * hidden[d]
        for row in rows:
            for d in range(dim):
                vec_in[row, d] += err[d] * inv
    return loss


def to_csr(adj: dict[int, list[int]], n: int) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = []
    for u in range(n):
        nbrs = sorted(adj.get(u, []))
        indices.extend(nbrs)
        indptr[u + 1] = len(indices)
    return indptr, np.asarray(indices, dtype=np.int64)


# -- Smith-Waterman ------------------------------------------------------------

class TestSmithWaterman:
    def test_identical_strings_score_length(self):
        assert smith_waterman_score("set", "set") == 3.0

    def test_disjoint_alphabets_score_zero(self):
        assert smith_waterman_score("abc", "xyz") == 0.0

    def test_empty_string_scores_zero(self):
        assert smith_waterman_score("", "abc") == 0.0

    def test_color_colour_scores_four(self):
        # 'colou' vs 'color': 4 matches and one substitution/gap either way.
        assert smith_waterman_score("color", "colour") == 4.0

    def test_one_position_per_code_point(self):
        assert smith_waterman_score("naïve", "naïve") == 5
        assert smith_waterman_score("naïve", "naive") == 3

    def test_against_full_table_oracle_random_pairs(self):
        rng = np.random.default_rng(7)
        alphabet = "abcdef"
        for _ in range(200):
            a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 11)))
            b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 11)))
            got = smith_waterman_score(a, b)
            assert got == sw_table_oracle(a, b), (a, b)

    def test_against_exhaustive_alignment_enumeration(self):
        rng = np.random.default_rng(11)
        alphabet = "abc"
        for _ in range(15):
            a = "".join(rng.choice(list(alphabet), size=rng.integers(1, 5)))
            b = "".join(rng.choice(list(alphabet), size=rng.integers(1, 5)))
            got = smith_waterman_score(a, b)
            assert got == sw_exhaustive_oracle(a, b), (a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = "".join(rng.choice(list("abcd"), size=rng.integers(0, 8)))
            b = "".join(rng.choice(list("abcd"), size=rng.integers(0, 8)))
            assert smith_waterman_score(a, b) == smith_waterman_score(b, a)


# -- skip-gram epoch -----------------------------------------------------------

def _single_pair_arrays(h: np.ndarray, out: np.ndarray):
    comp_flat = np.array([0], dtype=np.int64)
    comp_off = np.array([0, 1], dtype=np.int64)
    ctx_rows = np.array([1], dtype=np.int64)
    neg_rows = np.array([[2]], dtype=np.int64)
    vec_in = np.zeros((3, h.size))
    vec_in[0] = h
    vec_out = out.copy()
    return comp_flat, comp_off, ctx_rows, neg_rows, vec_in, vec_out


class TestSgnsEpoch:
    def test_single_pair_matches_hand_equations(self):
        h = np.array([0.5, -0.25])
        out = np.array([[0.0, 0.0], [0.2, 0.1], [-0.3, 0.4]])
        args = _single_pair_arrays(h, out)
        lr = 0.1
        loss = sgns_epoch(*args[:4], args[4], args[5], lr)

        def sigmoid(z):
            return 1.0 / (1.0 + np.exp(-z))

        z_pos = out[1] @ h
        z_neg = out[2] @ h
        expected_loss = -np.log(sigmoid(z_pos)) - np.log(1.0 - sigmoid(z_neg))
        assert loss == pytest.approx(expected_loss, rel=1e-12)
        g_pos = (1.0 - sigmoid(z_pos)) * lr
        g_neg = (0.0 - sigmoid(z_neg)) * lr
        np.testing.assert_allclose(args[5][1], out[1] + g_pos * h, rtol=1e-12)
        np.testing.assert_allclose(args[5][2], out[2] + g_neg * h, rtol=1e-12)
        np.testing.assert_allclose(args[4][0], h + g_pos * out[1] + g_neg * out[2], rtol=1e-12)

    def test_composition_mean_splits_input_update(self):
        # Two composition rows: hidden is their mean and each row gets half the error.
        comp_flat = np.array([0, 1], dtype=np.int64)
        comp_off = np.array([0, 2], dtype=np.int64)
        ctx_rows = np.array([2], dtype=np.int64)
        neg_rows = np.array([[0]], dtype=np.int64)
        vec_in = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        vec_out = np.array([[0.1, 0.2], [0.0, 0.0], [0.3, -0.1]])
        before = vec_in.copy()
        sgns_epoch(comp_flat, comp_off, ctx_rows, neg_rows, vec_in, vec_out, 0.05)
        delta0 = vec_in[0] - before[0]
        delta1 = vec_in[1] - before[1]
        np.testing.assert_allclose(delta0, delta1, rtol=1e-12)
        assert np.any(delta0 != 0.0)

    def test_multi_pair_epochs_match_sequential_oracle(self):
        # Pairs share input and output rows, one composition repeats a row,
        # and some negatives equal their pair's context row, so every step
        # must see the updates of the targets and pairs before it.
        rng = np.random.default_rng(17)
        n_rows, dim, n_neg = 7, 6, 3
        comps = [[0], [1, 4], [0, 4, 4], [2], [1, 4, 5], [0]]
        comp_flat = np.array([r for c in comps for r in c], dtype=np.int64)
        comp_off = np.cumsum([0] + [len(c) for c in comps]).astype(np.int64)
        ctx_rows = np.array([1, 2, 1, 0, 3, 1], dtype=np.int64)
        base_in = (rng.random((n_rows, dim)) - 0.5) / dim
        base_out = (rng.random((n_rows, dim)) - 0.5) / dim
        got_in, got_out = base_in.copy(), base_out.copy()
        want_in, want_out = base_in.copy(), base_out.copy()
        for _ in range(3):
            neg_rows = rng.integers(0, n_rows, size=(len(comps), n_neg)).astype(np.int64)
            neg_rows[0, 1] = ctx_rows[0]
            neg_rows[2, 0] = ctx_rows[2]
            got = sgns_epoch(comp_flat, comp_off, ctx_rows, neg_rows, got_in, got_out, 0.5)
            want = sgns_oracle(comp_flat, comp_off, ctx_rows, neg_rows, want_in, want_out, 0.5)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(got_in, want_in, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_out, want_out, rtol=0, atol=1e-12)
        assert not np.allclose(got_out, base_out)

    def test_repeated_epochs_reduce_loss(self):
        rng = np.random.default_rng(5)
        vec_in = (rng.random((4, 8)) - 0.5) / 8
        vec_out = np.zeros((4, 8))
        comp_flat = np.array([0], dtype=np.int64)
        comp_off = np.array([0, 1], dtype=np.int64)
        ctx_rows = np.array([1], dtype=np.int64)
        neg_rows = np.array([[3]], dtype=np.int64)
        losses = [
            sgns_epoch(comp_flat, comp_off, ctx_rows, neg_rows, vec_in, vec_out, 0.25)
            for _ in range(30)
        ]
        assert losses[-1] < losses[0]


# -- depth-limited BFS ---------------------------------------------------------

class TestBfsLimited:
    def test_path_graph_depths(self):
        adj = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
        indptr, indices = to_csr(adj, 4)
        dist = np.empty(4, dtype=np.int64)
        bfs_limited(indptr, indices, 1, 2, dist)
        assert list(dist) == [1, 0, 1, 2]

    def test_depth_cutoff(self):
        adj = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
        indptr, indices = to_csr(adj, 4)
        dist = np.empty(4, dtype=np.int64)
        bfs_limited(indptr, indices, 0, 1, dist)
        assert list(dist) == [0, 1, -1, -1]

    def test_random_graphs_match_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(1, 21))
            adj: dict[int, list[int]] = {u: [] for u in range(n)}
            for _ in range(int(rng.integers(0, 2 * n + 1))):
                u, v = int(rng.integers(n)), int(rng.integers(n))
                if u != v and v not in adj[u]:
                    adj[u].append(v)
                    adj[v].append(u)
            indptr, indices = to_csr(adj, n)
            source = int(rng.integers(n))
            depth = int(rng.integers(1, 5))
            dist = np.empty(n, dtype=np.int64)
            bfs_limited(indptr, indices, source, depth, dist)
            assert list(dist) == bfs_oracle(adj, n, source, depth)
