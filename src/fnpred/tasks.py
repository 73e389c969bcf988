"""Task heads over the function encoding.

Name generation: a transformer decoder with causal self-attention and
cross-attention over the encoding sequence, trained with teacher-forced
negative log-likelihood (J_cg) and decoded greedily.  Similarity: tanh of
the max-pooled encoding, compared through two affine projections with
cosine similarity and a margin ranking loss (J_cs).  The joint objective
is their weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .encoder import _MASK_BIAS, EncoderConfig, _affine, _as_tape, _feed_forward, _layer_norm, attention
from .ingest import FunctionRecord
from .params import ParamStore, ParamTape

NAME_PAD, NAME_BOS, NAME_EOS, NAME_UNK = 0, 1, 2, 3
_NAME_SPECIALS = ("[PAD]", "[BOS]", "[EOS]", "[UNK]")

DEFAULT_MARGIN = 0.5
RANKING_VARIANTS = ("margin", "inverted")


class NameVocabulary:
    """Function-name label vocabulary with reserved control ids."""

    def __init__(self, labels: Sequence[str], counts: Optional[dict[str, int]] = None):
        if tuple(labels[:4]) != _NAME_SPECIALS:
            raise ValueError("name vocabulary must start with the four control labels")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in vocabulary")
        self.id_to_label = list(labels)
        self.label_to_id = {l: i for i, l in enumerate(labels)}
        self.counts = dict(counts or {})

    @classmethod
    def build(cls, names: Sequence[Sequence[str]], min_count: int = 1) -> "NameVocabulary":
        counts: dict[str, int] = {}
        for labels in names:
            for label in labels:
                counts[label] = counts.get(label, 0) + 1
        kept = sorted(
            (l for l, c in counts.items() if c >= min_count and l not in _NAME_SPECIALS),
            key=lambda l: (-counts[l], l),
        )
        return cls(list(_NAME_SPECIALS) + kept, counts)

    def __len__(self) -> int:
        return len(self.id_to_label)

    def id(self, label: str) -> int:
        return self.label_to_id.get(label, NAME_UNK)

    def encode(self, labels: Sequence[str]) -> list[int]:
        return [self.id(l) for l in labels]

    def label(self, idx: int) -> str:
        return self.id_to_label[idx]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, label in enumerate(self.id_to_label):
                fh.write(f"{label}\t{i}\t{self.counts.get(label, 0)}\n")

    @classmethod
    def load(cls, path: str) -> "NameVocabulary":
        labels: list[str] = []
        counts: dict[str, int] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh):
                parts = raw.rstrip("\n").split("\t")
                if len(parts) != 3:
                    raise ValueError(f"vocabulary line {line_no + 1}: expected label<TAB>id<TAB>count")
                label, idx, count = parts[0], int(parts[1]), int(parts[2])
                if idx != line_no:
                    raise ValueError(f"vocabulary line {line_no + 1}: ids must be consecutive")
                labels.append(label)
                counts[label] = count
        return cls(labels, counts)


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
    x = ag.take_rows(tape.get("name_emb"), ids) + tape.get("dec_pos_emb")[0:T]
    x = ag.dropout(x, config.dropout, rng, training)
    for i in range(config.n_layers):
        p = f"dec{i}"
        normed = _layer_norm(tape, x, f"{p}.ln1")
        x = x + ag.dropout(
            attention(tape, f"{p}.self", normed, normed, config.n_heads, causal),
            config.dropout, rng, training,
        )
        normed = _layer_norm(tape, x, f"{p}.ln2")
        x = x + ag.dropout(
            attention(tape, f"{p}.cross", normed, emb, config.n_heads),
            config.dropout, rng, training,
        )
        ffn = _feed_forward(tape, f"{p}.ffn", _layer_norm(tape, x, f"{p}.ln3"))
        x = x + ag.dropout(ffn, config.dropout, rng, training)
    return _layer_norm(tape, x, "dec_final_ln")


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


def predict_name(
    emb: Union[Tensor, np.ndarray],
    params: Union[ParamStore, ParamTape],
    config: EncoderConfig,
    vocab: NameVocabulary,
    max_len: int = 8,
) -> list[str]:
    """Greedy decoding until EOS, ``max_len`` labels or a prefix of
    ``config.seq_cap`` ids (PAD and BOS argmaxes extend the prefix but emit
    no label); ties take the lowest id."""
    prefix = [NAME_BOS]
    out: list[str] = []
    emb_t = _as_emb_tensor(emb)
    tape = _as_tape(params)
    while len(out) < max_len and len(prefix) < config.seq_cap:
        probs = decode_step_probs(emb_t, prefix, tape, config)
        nxt = int(np.argmax(probs))
        if nxt == NAME_EOS:
            break
        prefix.append(nxt)
        if nxt not in (NAME_PAD, NAME_BOS):
            out.append(vocab.label(nxt))
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
    f_pos: Union[float, Tensor],
    f_neg: Union[float, Tensor],
    m_cs: float = DEFAULT_MARGIN,
    variant: str = "margin",
) -> Union[float, Tensor]:
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
    if isinstance(f_pos, Tensor) or isinstance(f_neg, Tensor):
        diff = ag.as_tensor(f_pos) - ag.as_tensor(f_neg)
        gap = (m_cs - diff) if variant == "margin" else (diff - m_cs)
        return ag.relu(gap)
    diff = float(f_pos) - float(f_neg)
    gap = (m_cs - diff) if variant == "margin" else (diff - m_cs)
    return max(gap, 0.0)


def joint_loss(
    j_cg: Union[float, Tensor],
    j_cs: Union[float, Tensor],
    lambda1: float = 1.0,
    lambda2: float = 1.0,
) -> Union[float, Tensor]:
    """J = lambda1 * J_cg + lambda2 * J_cs."""
    if lambda1 < 0 or lambda2 < 0:
        raise ValueError("loss weights must be non-negative")
    if isinstance(j_cg, Tensor) or isinstance(j_cs, Tensor):
        return ag.as_tensor(j_cg) * lambda1 + ag.as_tensor(j_cs) * lambda2
    return lambda1 * float(j_cg) + lambda2 * float(j_cs)


# -- triplet sampling -----------------------------------------------------------

def sample_triplet(
    records: Sequence[FunctionRecord],
    labels: Sequence[Sequence[str]],
    rng: Union[int, np.random.Generator],
) -> TrainTriplet:
    """Draw (anchor, positive, negative) record indices.

    Positives share the anchor's source but differ in optimization level;
    negatives carry a different preprocessed name.  Anchors are uniform over
    records having at least one positive.
    """
    if len(records) != len(labels):
        raise ValueError("records and label lists must align")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    keys = [tuple(l) for l in labels]
    eligible = [
        i
        for i, rec in enumerate(records)
        if any(
            j != i and records[j].source_id == rec.source_id and records[j].opt != rec.opt
            for j in range(len(records))
        )
    ]
    if not eligible:
        raise ValueError("no anchor has a same-source different-optimization positive")
    anchor = eligible[int(rng.integers(len(eligible)))]
    positives = [
        j
        for j in range(len(records))
        if j != anchor
        and records[j].source_id == records[anchor].source_id
        and records[j].opt != records[anchor].opt
    ]
    negatives = [j for j in range(len(records)) if keys[j] != keys[anchor]]
    if not negatives:
        raise ValueError("no record with a different name to serve as negative")
    positive = positives[int(rng.integers(len(positives)))]
    negative = negatives[int(rng.integers(len(negatives)))]
    return TrainTriplet(anchor=anchor, positive=positive, negative=negative)
