"""The two numeric kernels of the label-relation stage.

Each kernel is one plain function:

* :func:`smith_waterman_score` — best local-alignment score between two
  strings (match +1, mismatch -1, gap -1, scores floored at 0).
* :func:`sgns_epoch` — one epoch of skip-gram training with negative
  sampling over precomputed (composition, context, negatives) triples.
  The same kernel serves plain word vectors (composition = the word row)
  and subword vectors (composition = n-gram rows plus the word row).
"""

from __future__ import annotations

import math

import numpy as np


def smith_waterman_score(a: str, b: str) -> int:
    """Best local alignment score of strings ``a`` and ``b``.

    Dynamic program over a (|a|+1) x (|b|+1) table where every cell is the
    max of extending diagonally (+1 match / -1 mismatch), a gap in either
    string (-1), or restarting at 0.  Only the previous row is kept.
    """
    prev = [0] * (len(b) + 1)
    best = 0
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b):
            diag = prev[j] + 1 if ca == cb else prev[j] - 1
            cur.append(max(diag, prev[j + 1] - 1, cur[j] - 1, 0))
        best = max(best, max(cur))
        prev = cur
    return best


def sgns_epoch(comp_flat, comp_off, ctx_rows, neg_rows, vec_in, vec_out, lr):
    """Run one pass of skip-gram negative-sampling updates.

    Pair ``p`` predicts context row ``ctx_rows[p]`` from the mean of the
    input rows ``comp_flat[comp_off[p]:comp_off[p + 1]]`` and is contrasted
    against the negative rows ``neg_rows[p]``.  As in word2vec, updates are
    sequential: each target's output row moves before the next target is
    scored, and the input rows move after the pair's last target.
    ``vec_in`` and ``vec_out`` are updated in place; the summed
    cross-entropy loss is returned.

    Negatives are sampled by the caller so the kernel itself is fully
    deterministic.
    """
    loss = 0.0
    comp, offsets = comp_flat.tolist(), comp_off.tolist()
    for p, (ctx, negs) in enumerate(zip(ctx_rows.tolist(), neg_rows.tolist())):
        rows = comp[offsets[p] : offsets[p + 1]]
        inv = 1.0 / len(rows)
        hidden = vec_in[rows].sum(axis=0) * inv
        err = np.zeros_like(hidden)
        for s, target in enumerate([ctx] + negs):
            out = vec_out[target]
            z = min(max(float(out @ hidden), -60.0), 60.0)
            f = 1.0 / (1.0 + math.exp(-z))
            label = 1.0 if s == 0 else 0.0
            loss -= math.log(max(f if s == 0 else 1.0 - f, 1e-12))
            g = (label - f) * lr
            err += g * out
            out += g * hidden
        step = err * inv
        for row in rows:
            vec_in[row] += step
    return loss

