"""Function-semantics encoder.

Instruction tokens are embedded and fed down two routes: a convolutional
multi-view summary of each instruction seeds K-hop message passing over the
instruction-level CFG (graph route), while the flattened token sequence
runs through a transformer encoder (sequence route).  Each token is looked
up once: the sequence ids are the instructions' ids end to end.  The final
encoding is the projected graph readout prepended to the per-token states.

The module also hosts ``Vocabulary``, the one label-to-id type behind the
token vocabulary (``TokenVocab``) and the name vocabulary
(``tasks.NameVocabulary``); the three language-model pretraining losses;
and the blocks that the name decoder in ``tasks`` reuses: layer norm,
feed-forward, and attention as two primitives, ``attention_heads``
(project and split into heads) and ``attend`` (scores, softmax, merged
heads and output projection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .ingest import FineGrainedCFG, FunctionRecord, build_fine_grained_cfg, khop_neighborhood, record_tokens
from .params import ParamStore, ParamTape
from .pretrain import MASK_TOKEN, InfillingSample, InstructionPairSample

PAD_TOKEN = "[PAD]"
SEP_TOKEN = "[SEP]"
UNK_TOKEN = "[UNK]"
PAD_ID, MASK_ID, SEP_ID, UNK_ID = 0, 1, 2, 3

_LN_EPS = 1e-5
_MASK_BIAS = -1e30

# -- vocabulary -------------------------------------------------------------

class Vocabulary:
    """Labels with fixed ids: the subclass's ``SPECIALS`` first, then the rest.

    ``build`` orders the non-special labels by descending count, ties in
    string order.  Unknown labels map to ``UNK_ID``, which both subclasses
    reserve for ``[UNK]``.  ``save`` writes one ``label<TAB>id<TAB>count``
    line per id and ``load`` checks every line, so a label may be empty or
    non-ASCII but may not hold a tab, LF or CR.
    """

    SPECIALS: tuple[str, ...] = ()

    def __init__(self, labels: Sequence[str], counts: Optional[dict[str, int]] = None):
        labels = list(labels)
        if tuple(labels[: len(self.SPECIALS)]) != self.SPECIALS:
            raise ValueError(f"vocabulary must start with the special labels {' '.join(self.SPECIALS)}")
        for label in labels:
            if "\t" in label or "\n" in label or "\r" in label:
                raise ValueError(f"vocabulary label {label!r} holds a tab, LF or CR")
        self.id_to_label = labels
        self.label_to_id = {l: i for i, l in enumerate(labels)}
        if len(self.label_to_id) != len(labels):
            raise ValueError("duplicate labels in vocabulary")
        self.counts = dict(counts or {})

    @classmethod
    def build(cls, corpus: Iterable[Sequence[str]]):
        counts: dict[str, int] = {}
        for labels in corpus:
            for label in labels:
                counts[label] = counts.get(label, 0) + 1
        kept = sorted((l for l in counts if l not in cls.SPECIALS), key=lambda l: (-counts[l], l))
        return cls(list(cls.SPECIALS) + kept, counts)

    def __len__(self) -> int:
        return len(self.id_to_label)

    def id(self, label: str) -> int:
        return self.label_to_id.get(label, UNK_ID)

    def encode(self, labels: Sequence[str]) -> list[int]:
        return [self.id(l) for l in labels]

    def label(self, idx: int) -> str:
        return self.id_to_label[idx]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, label in enumerate(self.id_to_label):
                fh.write(f"{label}\t{i}\t{self.counts.get(label, 0)}\n")

    @classmethod
    def load(cls, path: str):
        labels: list[str] = []
        counts: dict[str, int] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                parts = raw.rstrip("\n").split("\t")
                if len(parts) != 3:
                    raise ValueError(f"{path} line {line_no}: expected label<TAB>id<TAB>count")
                try:
                    idx, count = int(parts[1]), int(parts[2])
                except ValueError:
                    raise ValueError(f"{path} line {line_no}: id and count must be integers") from None
                if idx != line_no - 1:
                    raise ValueError(f"{path} line {line_no}: ids must be consecutive from 0")
                labels.append(parts[0])
                counts[parts[0]] = count
        return cls(labels, counts)


class TokenVocab(Vocabulary):
    """Instruction-token vocabulary; ids 0-3 are the special sentinels."""

    SPECIALS = (PAD_TOKEN, MASK_TOKEN, SEP_TOKEN, UNK_TOKEN)

    @classmethod
    def from_records(cls, records: Iterable[FunctionRecord]) -> "TokenVocab":
        return cls.build(toks for rec in records for toks in record_tokens(rec))


# -- configuration ----------------------------------------------------------

@dataclass
class EncoderConfig:
    d_token: int = 128
    n_layers: int = 6
    n_heads: int = 8
    d_hidden: int = 256
    gnn_layers: int = 2
    gnn_hops: int = 2
    conv_kernel_widths: list[int] = field(default_factory=lambda: [2, 3, 4])
    kernels_per_width: int = 4
    dropout: float = 0.1
    seq_cap: int = 512

    def __post_init__(self) -> None:
        if self.n_heads < 1:
            raise ValueError("n_heads must be >= 1")
        if self.d_hidden % self.n_heads != 0:
            raise ValueError("d_hidden must be divisible by n_heads")
        if any(w < 1 for w in self.conv_kernel_widths):
            raise ValueError("conv_kernel_widths must be >= 1")
        for name in ("gnn_layers", "gnn_hops"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def conv_output_dim(self) -> int:
        return len(self.conv_kernel_widths) * self.kernels_per_width

    @classmethod
    def toy(cls, **overrides) -> "EncoderConfig":
        base = dict(
            d_token=8, n_layers=1, n_heads=2, d_hidden=16,
            gnn_layers=1, gnn_hops=2, conv_kernel_widths=[2, 3],
            kernels_per_width=2, dropout=0.0, seq_cap=64,
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class FunctionEncoding:
    emb: Tensor  # (1 + token_count) x d_hidden


def init_encoder_params(store: ParamStore, config: EncoderConfig, vocab_size: int) -> None:
    """Create every encoder parameter, in a fixed declaration order."""
    c = config
    store.embedding("tok_emb", (vocab_size, c.d_token))
    store.affine("in_proj.w", (c.d_token, c.d_hidden))
    store.zeros("in_proj.b", (c.d_hidden,))
    store.embedding("pos_emb", (c.seq_cap, c.d_hidden))
    for i in range(c.n_layers):
        p = f"enc{i}"
        store.ones(f"{p}.ln1.g", (c.d_hidden,))
        store.zeros(f"{p}.ln1.b", (c.d_hidden,))
        for w in ("wq", "wk", "wv", "wo"):
            store.affine(f"{p}.attn.{w}", (c.d_hidden, c.d_hidden))
        for b in ("bq", "bv", "bo"):
            store.zeros(f"{p}.attn.{b}", (c.d_hidden,))
        store.ones(f"{p}.ln2.g", (c.d_hidden,))
        store.zeros(f"{p}.ln2.b", (c.d_hidden,))
        store.affine(f"{p}.ffn.w1", (c.d_hidden, 2 * c.d_hidden))
        store.zeros(f"{p}.ffn.b1", (2 * c.d_hidden,))
        store.affine(f"{p}.ffn.w2", (2 * c.d_hidden, c.d_hidden))
        store.zeros(f"{p}.ffn.b2", (c.d_hidden,))
    store.ones("enc_final_ln.g", (c.d_hidden,))
    store.zeros("enc_final_ln.b", (c.d_hidden,))
    for w in c.conv_kernel_widths:
        store.affine(f"conv.w{w}", (w * c.d_token, c.kernels_per_width))
        store.zeros(f"conv.b{w}", (c.kernels_per_width,))
    for layer in range(c.gnn_layers):
        d_in = c.conv_output_dim if layer == 0 else c.d_hidden
        for k in range(1, c.gnn_hops + 1):
            store.affine(f"gnn{layer}.k{k}.w", (2 * d_in, c.d_hidden))
            store.zeros(f"gnn{layer}.k{k}.b", (c.d_hidden,))
    store.affine("g_proj.w", (c.d_hidden, c.d_hidden))
    store.zeros("g_proj.b", (c.d_hidden,))
    store.affine("mlm.w", (c.d_hidden, vocab_size))
    store.zeros("mlm.b", (vocab_size,))
    store.embedding("span_pos", (c.seq_cap, c.d_hidden))
    for head in ("cdi", "dui"):
        store.affine(f"pair.{head}.w", (c.d_hidden, 1))
        store.zeros(f"pair.{head}.b", (1,))


def _as_tape(params: Union[ParamStore, ParamTape]) -> ParamTape:
    if isinstance(params, ParamTape):
        return params
    return ParamTape(params, trainable=False)


def _affine(tape: ParamTape, x: Tensor, w: str, b: str) -> Tensor:
    return x @ tape.get(w) + tape.get(b)


# -- transformer blocks, shared with the name decoder ---------------------------

def _layer_norm(tape: ParamTape, x: Tensor, prefix: str) -> Tensor:
    mu = ag.mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = ag.mean(centered * centered, axis=-1, keepdims=True)
    return tape.get(f"{prefix}.g") * (centered * (var + _LN_EPS) ** -0.5) + tape.get(f"{prefix}.b")


def _feed_forward(tape: ParamTape, prefix: str, x: Tensor) -> Tensor:
    hidden = ag.relu(_affine(tape, x, f"{prefix}.w1", f"{prefix}.b1"))
    return _affine(tape, hidden, f"{prefix}.w2", f"{prefix}.b2")


def attention_heads(tape: ParamTape, prefix: str, name: str, x: Tensor, n_heads: int) -> Tensor:
    """Project ``x`` (T x d) by ``{prefix}.w{name}`` and split it into heads.

    ``name`` is ``q``, ``k`` or ``v``.  Queries and values come out as
    heads x T x d_head, keys already transposed as heads x d_head x T.  The
    key projection has no bias: it would add one constant to every score of
    a query row, which softmax cancels.
    """
    t, d = x.shape
    proj = x @ tape.get(f"{prefix}.w{name}")
    if name != "k":
        proj = proj + tape.get(f"{prefix}.b{name}")
    return ag.transpose(ag.reshape(proj, (t, n_heads, d // n_heads)), (1, 2, 0) if name == "k" else (1, 0, 2))


def attend(
    tape: ParamTape,
    prefix: str,
    q: Tensor,
    k_t: Tensor,
    v: Tensor,
    bias: Optional[np.ndarray] = None,
    attn_sink: Optional[list] = None,
) -> Tensor:
    """Scaled dot-product attention over head-split projections.

    ``bias`` is added to the heads x Tq x Tk scores.  The heads are merged
    and projected by ``{prefix}.wo`` into Tq x d.  ``attn_sink``, when
    given, receives one Tq x Tk attention array per head.
    """
    n_heads, t_q, d_head = q.shape
    scores = (q @ k_t) * (1.0 / math.sqrt(d_head))
    if bias is not None:
        scores = scores + Tensor(bias)
    attn = ag.softmax(scores, axis=-1)
    if attn_sink is not None:
        attn_sink.extend(attn.data.copy())
    merged = ag.reshape(ag.transpose(attn @ v, (1, 0, 2)), (t_q, n_heads * d_head))
    return _affine(tape, merged, f"{prefix}.wo", f"{prefix}.bo")


# -- convolutional node vectors ---------------------------------------------

def conv_node_vector(
    E: np.ndarray,
    kernels: Sequence[tuple[np.ndarray, float]],
    pad_vector: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Multi-kernel conv summary of one instruction's embedding matrix.

    ``E`` is d x m (embedding dimension by token position).  Each kernel is
    a d x w matrix with a scalar bias; its feature map is the ReLU of the
    windowed Frobenius products, averaged over the positions whose window
    stays inside the unpadded sequence (all-pad-touching maps average their
    single window).  Outputs concatenate in kernel declaration order.
    """
    E = np.asarray(E, dtype=np.float64)
    d, m = E.shape
    w_max = max(int(k.shape[1]) for k, _ in kernels)
    if m < w_max:
        pad = np.zeros(d) if pad_vector is None else np.asarray(pad_vector, dtype=np.float64)
        E = np.concatenate([E, np.tile(pad[:, None], (1, w_max - m))], axis=1)
    out = np.empty(len(kernels))
    for n, (kern, bias) in enumerate(kernels):
        w = kern.shape[1]
        n_valid = m - w + 1 if m >= w else 1
        feats = np.empty(n_valid)
        for j in range(n_valid):
            feats[j] = max(float(np.sum(kern * E[:, j : j + w])) + float(bias), 0.0)
        out[n] = feats.mean()
    return out


def conv_kernels_from_store(store: ParamStore, config: EncoderConfig) -> list[tuple[np.ndarray, float]]:
    """Stored conv weights as the (d x w matrix, scalar bias) kernel list."""
    kernels: list[tuple[np.ndarray, float]] = []
    for w in config.conv_kernel_widths:
        mat = store.values[f"conv.w{w}"]
        bias = store.values[f"conv.b{w}"]
        for k in range(config.kernels_per_width):
            kernels.append((mat[:, k].reshape(w, config.d_token).T.copy(), float(bias[k])))
    return kernels


def _conv_node_vector_tensor(tape: ParamTape, token_ids: Sequence[int], config: EncoderConfig) -> Tensor:
    """Tensor-path conv summary; rows of the embedding matrix are positions."""
    ids = list(token_ids)
    m = len(ids)
    w_max = max(config.conv_kernel_widths)
    padded = ids + [PAD_ID] * max(w_max - m, 0)
    rows = ag.take_rows(tape.get("tok_emb"), np.asarray(padded, dtype=np.int64))
    parts: list[Tensor] = []
    for w in config.conv_kernel_widths:
        n_valid = m - w + 1 if m >= w else 1
        window_rows = np.concatenate([np.arange(s, s + w) for s in range(n_valid)])
        windows = ag.reshape(ag.take_rows(rows, window_rows), (n_valid, w * config.d_token))
        feats = ag.relu(windows @ tape.get(f"conv.w{w}") + tape.get(f"conv.b{w}"))
        parts.append(ag.mean(feats, axis=0, keepdims=True))
    return ag.concat(parts, axis=1)  # 1 x conv_output_dim


# -- K-hop message passing ----------------------------------------------------

def _khop_averaging_matrix(cfg: FineGrainedCFG, k: int) -> np.ndarray:
    n = cfg.node_count
    mat = np.zeros((n, n))
    for v in range(n):
        nbrs = khop_neighborhood(cfg, v, k)
        if len(nbrs):
            mat[v, nbrs] = 1.0 / len(nbrs)
    return mat


def _khop_tensor(cfg: FineGrainedCFG, x: Tensor, tape: ParamTape, layers: int, hops: int) -> Tensor:
    if x.shape[0] != cfg.node_count:
        raise ValueError("node-vector row count does not match the graph")
    mats = [_khop_averaging_matrix(cfg, k) for k in range(1, hops + 1)]
    h = x
    for layer in range(layers):
        combined: Optional[Tensor] = None
        for k in range(1, hops + 1):
            message = ag.matmul(Tensor(mats[k - 1]), h)
            z = _affine(tape, ag.concat([message, h], axis=1), f"gnn{layer}.k{k}.w", f"gnn{layer}.k{k}.b")
            hk = ag.relu(z)
            combined = hk if combined is None else combined + hk
        h = combined
    return h


def khop_message_pass(
    cfg: FineGrainedCFG,
    x: np.ndarray,
    params: Union[ParamStore, ParamTape],
    layers: int,
    hops: int,
) -> np.ndarray:
    """Frozen-parameter K-hop message passing over the instruction CFG."""
    tape = _as_tape(params)
    return _khop_tensor(cfg, Tensor(np.asarray(x, dtype=np.float64)), tape, layers, hops).data


# -- transformer over the token sequence -------------------------------------

def _transformer_tensor(
    ids: np.ndarray,
    tape: ParamTape,
    config: EncoderConfig,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
    attn_sink: Optional[list] = None,
) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("cannot encode an empty token sequence")
    ids = ids[: config.seq_cap]
    T = ids.size
    if training and config.dropout > 0.0 and rng is None:
        rng = np.random.default_rng(0)
    key_bias = np.where(ids == PAD_ID, _MASK_BIAS, 0.0)[None, :]

    x = _affine(tape, ag.take_rows(tape.get("tok_emb"), ids), "in_proj.w", "in_proj.b")
    x = x + tape.get("pos_emb")[0:T]
    x = ag.dropout(x, config.dropout, rng, training)
    for i in range(config.n_layers):
        p = f"enc{i}"
        normed = _layer_norm(tape, x, f"{p}.ln1")
        q, k_t, v = (attention_heads(tape, f"{p}.attn", w, normed, config.n_heads) for w in ("q", "k", "v"))
        attn_out = attend(tape, f"{p}.attn", q, k_t, v, key_bias, attn_sink)
        x = x + ag.dropout(attn_out, config.dropout, rng, training)
        ffn = _feed_forward(tape, f"{p}.ffn", _layer_norm(tape, x, f"{p}.ln2"))
        x = x + ag.dropout(ffn, config.dropout, rng, training)
    return _layer_norm(tape, x, "enc_final_ln")


def _pooled_mean(states: Tensor, ids: np.ndarray) -> Tensor:
    valid = np.flatnonzero(np.asarray(ids[: states.shape[0]], dtype=np.int64) != PAD_ID)
    if valid.size == 0:
        raise ValueError("cannot pool a sequence of only padding")
    return ag.mean(ag.take_rows(states, valid), axis=0)


def transformer_encode(
    tokens: Sequence[int],
    params: Union[ParamStore, ParamTape],
    config: EncoderConfig,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
    attn_sink: Optional[list] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-token states and their mean pooling, as plain arrays."""
    tape = _as_tape(params)
    ids = np.asarray(tokens, dtype=np.int64)
    states = _transformer_tensor(ids, tape, config, training=training, rng=rng, attn_sink=attn_sink)
    pooled = _pooled_mean(states, ids)
    return states.data, pooled.data


# -- full function encoding ---------------------------------------------------

def encode_function(
    rec: FunctionRecord,
    params: Union[ParamStore, ParamTape],
    config: EncoderConfig,
    vocab: TokenVocab,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> FunctionEncoding:
    """Encode one function; pass a trainable tape to build a gradient graph."""
    tape = _as_tape(params)
    per_ins_ids = [vocab.encode(toks) for toks in record_tokens(rec)]
    x = ag.concat([_conv_node_vector_tensor(tape, ids, config) for ids in per_ins_ids], axis=0)
    cfg = build_fine_grained_cfg(rec)
    nodes = _khop_tensor(cfg, x, tape, config.gnn_layers, config.gnn_hops)
    h_g_raw = ag.mean(nodes, axis=0)
    h_g = ag.reshape(h_g_raw, (1, config.d_hidden)) @ tape.get("g_proj.w") + tape.get("g_proj.b")
    flat_ids = np.asarray([i for ids in per_ins_ids for i in ids], dtype=np.int64)
    token_states = _transformer_tensor(flat_ids, tape, config, training=training, rng=rng)
    return FunctionEncoding(emb=ag.concat([h_g, token_states], axis=0))


# -- pretraining losses --------------------------------------------------------

def _infilling_loss_terms(
    sample: InfillingSample,
    tape: ParamTape,
    config: EncoderConfig,
    vocab: TokenVocab,
    training: bool,
    rng: Optional[np.random.Generator],
) -> tuple[Optional[Tensor], int]:
    ids = np.asarray(vocab.encode(sample.noised), dtype=np.int64)
    states = _transformer_tensor(ids, tape, config, training=training, rng=rng)
    limit = states.shape[0]
    mask_positions = [p for p, tok in enumerate(sample.noised[:limit]) if tok == MASK_TOKEN]
    targets_by_slot = dict(sample.targets)
    rows: list[int] = []
    span_idx: list[int] = []
    target_ids: list[int] = []
    for slot, pos in enumerate(mask_positions):
        for j, tok in enumerate(targets_by_slot[slot]):
            rows.append(pos)
            span_idx.append(min(j, config.seq_cap - 1))
            target_ids.append(vocab.id(tok))
    if not rows:
        return None, 0
    pred_in = ag.take_rows(states, np.asarray(rows, dtype=np.int64)) + ag.take_rows(
        tape.get("span_pos"), np.asarray(span_idx, dtype=np.int64)
    )
    logits = _affine(tape, pred_in, "mlm.w", "mlm.b")
    logp = ag.log_softmax(logits, axis=-1)
    onehot = np.zeros((len(rows), len(vocab)))
    onehot[np.arange(len(rows)), target_ids] = 1.0
    total = -ag.sum_(logp * Tensor(onehot))
    return total, len(rows)


def _pair_loss(
    sample: InstructionPairSample,
    tape: ParamTape,
    config: EncoderConfig,
    vocab: TokenVocab,
    training: bool,
    rng: Optional[np.random.Generator],
) -> Tensor:
    ids = np.asarray(
        vocab.encode(sample.tokens_a) + [SEP_ID] + vocab.encode(sample.tokens_b), dtype=np.int64
    )
    states = _transformer_tensor(ids, tape, config, training=training, rng=rng)
    pooled = ag.reshape(_pooled_mean(states, ids), (1, config.d_hidden))
    head = sample.task.lower()
    z = ag.reshape(pooled @ tape.get(f"pair.{head}.w") + tape.get(f"pair.{head}.b"), (1,))
    y = 1.0 if sample.label == "positive" else 0.0
    return ag.reshape(ag.softplus(z) - z * y, ())


def alm_losses(
    samples: Sequence[Union[InfillingSample, InstructionPairSample]],
    params: Union[ParamStore, ParamTape],
    config: EncoderConfig,
    vocab: TokenVocab,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Summed pretraining loss over the tasks present in the batch.

    Infilling contributes mean cross-entropy per predicted token; each pair
    task contributes its mean binary cross-entropy.
    """
    if not samples:
        raise ValueError("empty pretraining batch")
    tape = _as_tape(params)
    infill_total: Optional[Tensor] = None
    infill_count = 0
    saw_infill = False
    pair_totals: dict[str, Tensor] = {}
    pair_counts: dict[str, int] = {}
    for sample in samples:
        if isinstance(sample, InfillingSample):
            saw_infill = True
            term, count = _infilling_loss_terms(sample, tape, config, vocab, training, rng)
            if term is not None:
                infill_total = term if infill_total is None else infill_total + term
                infill_count += count
        elif isinstance(sample, InstructionPairSample):
            term = _pair_loss(sample, tape, config, vocab, training, rng)
            key = sample.task
            pair_totals[key] = term if key not in pair_totals else pair_totals[key] + term
            pair_counts[key] = pair_counts.get(key, 0) + 1
        else:
            raise TypeError(f"unsupported sample type {type(sample).__name__}")
    if saw_infill and infill_count == 0:
        raise ValueError("infilling batch contains zero prediction targets")
    total: Optional[Tensor] = None
    if infill_total is not None:
        part = infill_total * (1.0 / infill_count)
        total = part
    for key in sorted(pair_totals):
        part = pair_totals[key] * (1.0 / pair_counts[key])
        total = part if total is None else total + part
    if total is None:
        raise ValueError("batch contains zero loss targets")
    return total
