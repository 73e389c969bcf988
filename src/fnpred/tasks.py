"""Task heads over the function encoding.

Name generation: a transformer decoder with causal self-attention and
cross-attention over the encoding sequence, trained with teacher-forced
negative log-likelihood (J_cg) and decoded greedily.  One decoder stack,
``_decode``, serves every pass: the teacher-forced loss and the
``decode_step_probs`` oracle run it once over the whole prefix under a
causal mask, and greedy decoding (``predict_names``) once per step, for a
batch of encodings at once.  There each layer's cross-attention keys and
values are projected once per batch and the self-attention keys and values
are cached, so a step computes one new position per function still
decoding.  Ties take the lowest label id.  ``decode_step_probs`` is the
oracle that the cached path is tested against.  Similarity: tanh of the
max-pooled encoding, compared through two affine projections with cosine
similarity and a margin ranking loss (J_cs).  The joint objective is their
weighted sum.

``NameVocabulary`` is ``encoder.Vocabulary`` with the decoder's four
control labels as its specials; it is saved as ``name_vocab.tsv`` in the
same ``label<TAB>id<TAB>count`` format as the token vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .encoder import (
    _MASK_BIAS,
    EncoderConfig,
    Vocabulary,
    _affine,
    _as_tape,
    _feed_forward,
    _layer_norm,
    attend,
    attention_heads,
)
from .ingest import FunctionRecord
from .params import ParamStore, ParamTape

NAME_PAD, NAME_BOS, NAME_EOS, NAME_UNK = 0, 1, 2, 3

DEFAULT_MARGIN = 0.5
RANKING_VARIANTS = ("margin", "inverted")


class NameVocabulary(Vocabulary):
    """Function-name label vocabulary; ids 0-3 are the decoder's control labels."""

    SPECIALS = ("[PAD]", "[BOS]", "[EOS]", "[UNK]")


@dataclass
class TrainTriplet:
    anchor: int
    positive: int
    negative: int


def init_task_params(store: ParamStore, config: EncoderConfig, name_vocab_size: int) -> None:
    """Create decoder and similarity-head parameters (fixed order)."""
    c = config
    store.embedding("name_emb", (name_vocab_size, c.d_hidden))
    store.embedding("dec_pos_emb", (c.seq_cap, c.d_hidden))
    for i in range(c.n_layers):
        p = f"dec{i}"
        for ln in ("ln1", "ln2", "ln3"):
            store.ones(f"{p}.{ln}.g", (c.d_hidden,))
            store.zeros(f"{p}.{ln}.b", (c.d_hidden,))
        for block in ("self", "cross"):
            for w in ("wq", "wk", "wv", "wo"):
                store.affine(f"{p}.{block}.{w}", (c.d_hidden, c.d_hidden))
            for b in ("bq", "bv", "bo"):
                store.zeros(f"{p}.{block}.{b}", (c.d_hidden,))
        store.affine(f"{p}.ffn.w1", (c.d_hidden, 2 * c.d_hidden))
        store.zeros(f"{p}.ffn.b1", (2 * c.d_hidden,))
        store.affine(f"{p}.ffn.w2", (2 * c.d_hidden, c.d_hidden))
        store.zeros(f"{p}.ffn.b2", (c.d_hidden,))
    store.ones("dec_final_ln.g", (c.d_hidden,))
    store.zeros("dec_final_ln.b", (c.d_hidden,))
    store.affine("out_proj.w", (c.d_hidden, name_vocab_size))
    store.zeros("out_proj.b", (name_vocab_size,))
    store.affine("sim.w1", (c.d_hidden, c.d_hidden))
    store.zeros("sim.b1", (c.d_hidden,))
    store.affine("sim.w2", (c.d_hidden, c.d_hidden))
    store.zeros("sim.b2", (c.d_hidden,))


def _as_emb_tensor(emb: Union[Tensor, np.ndarray]) -> Tensor:
    tensor = emb if isinstance(emb, Tensor) else Tensor(np.asarray(emb, dtype=np.float64))
    if tensor.ndim != 2 or tensor.shape[0] == 0:
        raise ValueError("encoding sequence must be a non-empty 2-D array")
    return tensor


def _cross_kv(tape: ParamTape, memory: Tensor, config: EncoderConfig) -> list[tuple[Tensor, Tensor]]:
    """Each decoder layer's cross-attention keys and values over ``memory``."""
    return [
        tuple(attention_heads(tape, f"dec{i}.cross", w, memory, config.n_heads) for w in ("k", "v"))
        for i in range(config.n_layers)
    ]


def _decode(
    tape: ParamTape,
    config: EncoderConfig,
    ids: np.ndarray,
    positions: slice,
    cross_kv: list[tuple[Tensor, Tensor]],
    cache: list[list[Tensor]],
    self_bias: np.ndarray,
    cross_bias: Optional[np.ndarray] = None,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Final-layer-normed decoder states of the rows ``ids`` at ``positions``.

    Each layer appends the rows' self-attention keys and values to
    ``cache[i]`` and attends over the whole cache.  Dropout is drawn on the
    input, then on each layer's self-attention, cross-attention and FFN output.
    """
    c = config
    x = ag.take_rows(tape.get("name_emb"), ids) + tape.get("dec_pos_emb")[positions]
    x = ag.dropout(x, c.dropout, rng, training)
    for i in range(c.n_layers):
        p = f"dec{i}"
        normed = _layer_norm(tape, x, f"{p}.ln1")
        q, k_t, v = (attention_heads(tape, f"{p}.self", w, normed, c.n_heads) for w in ("q", "k", "v"))
        if cache[i]:
            k_t = ag.concat([cache[i][0], k_t], axis=-1)
            v = ag.concat([cache[i][1], v], axis=-2)
        cache[i] = [k_t, v]
        x = x + ag.dropout(attend(tape, f"{p}.self", q, k_t, v, self_bias), c.dropout, rng, training)
        q = attention_heads(tape, f"{p}.cross", "q", _layer_norm(tape, x, f"{p}.ln2"), c.n_heads)
        x = x + ag.dropout(attend(tape, f"{p}.cross", q, *cross_kv[i], cross_bias), c.dropout, rng, training)
        ffn = _feed_forward(tape, f"{p}.ffn", _layer_norm(tape, x, f"{p}.ln3"))
        x = x + ag.dropout(ffn, c.dropout, rng, training)
    return _layer_norm(tape, x, "dec_final_ln")


def _decoder_states(
    emb: Tensor,
    prefix_ids: Sequence[int],
    tape: ParamTape,
    config: EncoderConfig,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    ids = np.asarray(prefix_ids, dtype=np.int64)
    if ids.size == 0 or ids[0] != NAME_BOS:
        raise ValueError("decoder prefix must begin with the BOS id")
    if ids.size > config.seq_cap:
        raise ValueError("decoder prefix exceeds the sequence cap")
    T = ids.size
    if training and config.dropout > 0.0 and rng is None:
        rng = np.random.default_rng(0)
    causal = np.where(np.triu(np.ones((T, T)), k=1) > 0, _MASK_BIAS, 0.0)
    cache: list[list[Tensor]] = [[] for _ in range(config.n_layers)]
    return _decode(tape, config, ids, slice(0, T), _cross_kv(tape, emb, config), cache, causal,
                   training=training, rng=rng)


def decode_step_probs(
    emb: Union[Tensor, np.ndarray],
    prefix: Sequence[int],
    params: Union[ParamStore, ParamTape],
    config: EncoderConfig,
) -> np.ndarray:
    """Next-label distribution after consuming ``prefix`` (starts with BOS)."""
    tape = _as_tape(params)
    states = _decoder_states(_as_emb_tensor(emb), prefix, tape, config)
    logits = _affine(tape, states[-1:, :], "out_proj.w", "out_proj.b")
    return ag.softmax(logits, axis=-1).data.reshape(-1)


def name_loss(
    emb: Union[Tensor, np.ndarray],
    target_labels: Sequence[int],
    params: Union[ParamStore, ParamTape],
    config: EncoderConfig,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Teacher-forced negative log-likelihood J_cg, EOS appended."""
    targets = [int(t) for t in target_labels]
    if not targets:
        raise ValueError("target label sequence is empty")
    tape = _as_tape(params)
    prefix = [NAME_BOS] + targets
    full_targets = np.asarray(targets + [NAME_EOS], dtype=np.int64)
    keep = full_targets != NAME_PAD
    states = _decoder_states(_as_emb_tensor(emb), prefix, tape, config, training=training, rng=rng)
    logits = _affine(tape, states, "out_proj.w", "out_proj.b")
    logp = ag.log_softmax(logits, axis=-1)
    onehot = np.zeros(logits.shape)
    rows = np.flatnonzero(keep)
    onehot[rows, full_targets[rows]] = 1.0
    return -ag.sum_(logp * Tensor(onehot))


def predict_names(
    embs: Sequence[Union[Tensor, np.ndarray]],
    params: Union[ParamStore, ParamTape],
    config: EncoderConfig,
    vocab: NameVocabulary,
    max_len: int = 8,
    logits_sink: Optional[list] = None,
) -> list[list[str]]:
    """Greedy decoding of a batch of encodings, one label list per encoding.

    A function decodes until EOS, ``max_len`` labels or a prefix of
    ``config.seq_cap`` ids.  A PAD or BOS argmax extends the prefix but emits
    no label; ties take the lowest id.

    The batch runs as one set of rows.  The encodings are stacked, and each
    layer projects their cross-attention keys and values once.  Each step
    computes one new row for every function still decoding and appends its
    self-attention key and value to that layer's cache.  A ``_MASK_BIAS``
    mask lets each row attend only to the keys of its own function, so a
    function that leaves the batch just stops adding rows.
    ``logits_sink``, when given, receives one (function indices, logits)
    pair per step.
    """
    tape = _as_tape(params)
    c = config
    rows = [_as_emb_tensor(e).data for e in embs]
    out: list[list[str]] = [[] for _ in rows]
    if not rows or max_len < 1 or c.seq_cap < 2:
        return out
    memory = Tensor(np.concatenate(rows))
    memory_owner = np.repeat(np.arange(len(rows)), [r.shape[0] for r in rows])
    cross_kv = _cross_kv(tape, memory, c)
    cache: list[list[Tensor]] = [[] for _ in range(c.n_layers)]
    cache_owner = np.zeros(0, dtype=np.int64)
    live = np.arange(len(rows))
    ids = np.full(len(rows), NAME_BOS)
    step = 0
    while live.size:
        cache_owner = np.concatenate([cache_owner, live])
        self_bias = np.where(cache_owner == live[:, None], 0.0, _MASK_BIAS)
        cross_bias = np.where(memory_owner == live[:, None], 0.0, _MASK_BIAS)
        states = _decode(tape, c, ids, slice(step, step + 1), cross_kv, cache, self_bias, cross_bias)
        logits = _affine(tape, states, "out_proj.w", "out_proj.b")
        if logits_sink is not None:
            logits_sink.append((live.copy(), logits.data.copy()))
        nxt = np.argmax(ag.softmax(logits, axis=-1).data, axis=-1)
        step += 1
        keep = nxt != NAME_EOS
        for j in np.flatnonzero(keep):
            if nxt[j] not in (NAME_PAD, NAME_BOS):
                out[live[j]].append(vocab.label(int(nxt[j])))
                keep[j] = len(out[live[j]]) < max_len
        if step + 1 >= c.seq_cap:  # every prefix now holds step + 1 ids
            keep[:] = False
        live, ids = live[keep], nxt[keep]
    return out


# -- similarity head ----------------------------------------------------------

def similarity_h_tensor(emb: Union[Tensor, np.ndarray]) -> Tensor:
    """tanh of the element-wise max over encoding positions."""
    return ag.tanh(ag.max_(_as_emb_tensor(emb), axis=0))


def score_tensor(h1: Tensor, h2: Tensor, tape: ParamTape) -> Tensor:
    """Cosine similarity of the two affine projections (gradient-capable)."""
    p1 = ag.reshape(h1, (1, h1.shape[-1])) @ tape.get("sim.w1") + tape.get("sim.b1")
    p2 = ag.reshape(h2, (1, h2.shape[-1])) @ tape.get("sim.w2") + tape.get("sim.b2")
    n1 = float(np.linalg.norm(p1.data))
    n2 = float(np.linalg.norm(p2.data))
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("degenerate projection")
    dot = ag.sum_(p1 * p2)
    norm1 = ag.sum_(p1 * p1) ** 0.5
    norm2 = ag.sum_(p2 * p2) ** 0.5
    return dot * (norm1 * norm2) ** -1.0


def ranking_loss(
    f_pos: Tensor,
    f_neg: Tensor,
    m_cs: float = DEFAULT_MARGIN,
    variant: str = "margin",
) -> Tensor:
    """Hinge ranking loss J_cs.

    The default ``margin`` variant, max(M - (f_pos - f_neg), 0), rewards the
    positive pair scoring at least M above the negative; the ``inverted``
    variant, max((f_pos - f_neg) - M, 0), applies the opposite sign and is
    kept for comparison runs.
    """
    if m_cs <= 0:
        raise ValueError("margin must be positive")
    if variant not in RANKING_VARIANTS:
        raise ValueError(f"unknown ranking-loss variant {variant!r}")
    diff = f_pos - f_neg
    gap = (m_cs - diff) if variant == "margin" else (diff - m_cs)
    return ag.relu(gap)


def joint_loss(
    j_cg: Union[float, Tensor],
    j_cs: Union[float, Tensor],
    lambda1: float = 1.0,
    lambda2: float = 1.0,
) -> Tensor:
    """J = lambda1 * J_cg + lambda2 * J_cs; a term whose weight is 0 may be 0.0."""
    if lambda1 < 0 or lambda2 < 0:
        raise ValueError("loss weights must be non-negative")
    return ag.as_tensor(j_cg) * lambda1 + ag.as_tensor(j_cs) * lambda2


# -- triplet sampling -----------------------------------------------------------

def sample_triplet(
    records: Sequence[FunctionRecord],
    labels: Sequence[Sequence[str]],
    rng: Union[int, np.random.Generator],
) -> TrainTriplet:
    """Draw (anchor, positive, negative) record indices.

    Positives share the anchor's source but differ in optimization level;
    negatives carry a different preprocessed name.  Anchors are uniform over
    records having at least one positive.  One call takes time linear in the
    number of records.
    """
    if len(records) != len(labels):
        raise ValueError("records and label lists must align")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    keys = [tuple(l) for l in labels]
    by_source: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        by_source.setdefault(rec.source_id, []).append(i)
    source_opts = {src: {records[j].opt for j in members} for src, members in by_source.items()}
    eligible = [i for i, rec in enumerate(records) if len(source_opts[rec.source_id]) > 1]
    if not eligible:
        raise ValueError("no anchor has a same-source different-optimization positive")
    anchor = eligible[int(rng.integers(len(eligible)))]
    anchor_opt = records[anchor].opt
    positives = [j for j in by_source[records[anchor].source_id] if records[j].opt != anchor_opt]
    negatives = [j for j in range(len(records)) if keys[j] != keys[anchor]]
    if not negatives:
        raise ValueError("no record with a different name to serve as negative")
    positive = positives[int(rng.integers(len(positives)))]
    negative = negatives[int(rng.integers(len(negatives)))]
    return TrainTriplet(anchor=anchor, positive=positive, negative=negative)
