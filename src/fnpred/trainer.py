"""Optimization loops, Adam, configuration files, and the gradient-check harness.

Pretraining alternates strict round-robin over the three language-model
tasks; fine-tuning computes the joint name-generation + similarity loss on
triplet batches with early stopping on validation F1.  Every random draw
comes from a generator seeded by (seed, step), so runs are bit-reproducible
and resumable from checkpoints.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .autograd import Tensor
from .encoder import (
    EncoderConfig,
    TokenVocab,
    alm_losses,
    encode_function,
    init_encoder_params,
)
from .ingest import FunctionRecord
from .metrics import evaluate_pairs
from .params import ParamStore, ParamTape, save_checkpoint
from .pretrain import cdi_pairs, dui_pairs, infill_stream, text_infilling
from .tasks import (
    NameVocabulary,
    init_task_params,
    joint_loss,
    name_loss,
    predict_name,
    ranking_loss,
    sample_triplet,
    score_tensor,
    similarity_h_tensor,
)

PRETRAIN_TASKS = ("infill", "cdi", "dui")
_VALID_STREAM = 999_983  # rng stream tag for validation batches


# -- configuration ------------------------------------------------------------

@dataclass
class TrainConfig:
    batch_size: int = 32
    lr: float = 5e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_steps: int = 200
    patience: int = 5
    seed: int = 0
    lambda1: float = 1.0
    lambda2: float = 1.0
    m_cs: float = 0.5
    toy: bool = True
    eval_every: int = 50
    max_name_len: int = 8
    jcs_variant: str = "margin"
    mask_ratio: float = 0.15
    cdi_window: int = 2
    negatives_per_positive: int = 1

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.jcs_variant not in ("margin", "inverted"):
            raise ValueError("jcs_variant must be 'margin' or 'inverted'")


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# Value parsers by dataclass field annotation; list[int] is comma-separated.
_FIELD_PARSERS: dict[str, Callable[[str], object]] = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "list[int]": lambda raw: [int(x) for x in raw.split(",") if x],
}


def _write_config(cfg, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            fh.write(f"{f.name}={value}\n")


def _read_config(cls, path: str):
    """Build dataclass ``cls`` from a ``key=value`` file, typed by its fields."""
    fields = {f.name: str(f.type) for f in dataclasses.fields(cls)}
    kwargs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise ValueError(f"config line {line_no}: unknown key {key!r}")
            try:
                kwargs[key] = _FIELD_PARSERS[fields[key]](value)
            except ValueError as exc:
                raise ValueError(f"config line {line_no}: bad value for {key!r}: {exc}") from None
    return cls(**kwargs)


def save_train_config(cfg: TrainConfig, path: str) -> None:
    _write_config(cfg, path)


def load_train_config(path: str) -> TrainConfig:
    return _read_config(TrainConfig, path)


def save_encoder_config(cfg: EncoderConfig, path: str) -> None:
    _write_config(cfg, path)


def load_encoder_config(path: str) -> EncoderConfig:
    return _read_config(EncoderConfig, path)


# -- optimizer -----------------------------------------------------------------

def adam_step(store: ParamStore, cfg: TrainConfig, step: Optional[int] = None) -> ParamStore:
    """One bias-corrected Adam update from the store's gradient buffers.

    Gradients are zeroed afterwards; first/second moments persist in
    ``store.opt_state`` under ``<name>.m`` / ``<name>.v``.  Every gradient
    is checked before any update, so a non-finite one leaves the store as
    it was.
    """
    t = store.step_count + 1 if step is None else int(step)
    for name in store.values:
        if not np.all(np.isfinite(store.grads[name])):
            raise ValueError(f"non-finite gradient for parameter {name!r}")
    for name in store.values:
        g = store.grads[name]
        m = store.opt_state.setdefault(f"{name}.m", np.zeros_like(g))
        v = store.opt_state.setdefault(f"{name}.v", np.zeros_like(g))
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        store.values[name] -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    store.step_count = t
    store.zero_grads()
    return store


# -- gradient checking -----------------------------------------------------------

def grad_check(
    loss_fn: Callable[[ParamTape], Tensor],
    store: ParamStore,
    eps: float = 1e-5,
    max_coords: int = 500,
    seed: int = 0,
    grad_fn: Optional[Callable[[ParamStore], None]] = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` maps a ParamTape to a scalar Tensor and is re-evaluated for
    each probe; up to ``max_coords`` coordinates are sampled uniformly over
    all parameters.  ``grad_fn``, when given, supplies the analytic
    gradients instead of backpropagation (used to prove the harness catches
    wrong gradients).
    """
    store.zero_grads()
    if grad_fn is None:
        tape = ParamTape(store, trainable=True)
        loss = loss_fn(tape)
        if loss.data.size != 1:
            raise ValueError("loss_fn must return a scalar")
        if not np.all(np.isfinite(loss.data)):
            raise ValueError("non-finite loss")
        loss.backward()
        tape.flush_grads()
    else:
        grad_fn(store)

    def evaluate() -> float:
        value = loss_fn(ParamTape(store, trainable=False)).item()
        if not np.isfinite(value):
            raise ValueError("non-finite loss")
        return value

    names = list(store.values)
    sizes = np.array([store.values[n].size for n in names])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    rng = np.random.default_rng(seed)
    n_probe = min(max_coords, total)
    picks = rng.choice(total, size=n_probe, replace=False)
    worst = 0.0
    for flat_index in np.sort(picks):
        slot = int(np.searchsorted(offsets, flat_index, side="right") - 1)
        name = names[slot]
        inner = int(flat_index - offsets[slot])
        view = store.values[name].ravel()
        orig = view[inner]
        view[inner] = orig + eps
        up = evaluate()
        view[inner] = orig - eps
        down = evaluate()
        view[inner] = orig
        numeric = (up - down) / (2.0 * eps)
        analytic = store.grads[name].ravel()[inner]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        worst = max(worst, rel)
    return worst


def _gradcheck_records() -> list[FunctionRecord]:
    from .ingest import Instruction

    def rec(fid, name, src, opt, insns, edges=()):
        return FunctionRecord(
            id=fid, name=name, source_id=src, arch="x86_64", opt=opt,
            instructions=[
                Instruction(index=i, mnemonic=m, operands=list(o), block_id=b)
                for i, (m, o, b) in enumerate(insns)
            ],
            edges=list(edges),
        )

    return [
        rec(
            "g1", "load_config", "alpha.c", "O0",
            [
                ("mov", ["eax", "1"], 0),
                ("add", ["ebx", "eax"], 0),
                ("cmp", ["eax", "ebx"], 0),
                ("jne", ["12"], 0),
                ("mov", ["ecx", "0x400"], 1),
                ("ret", [], 1),
            ],
            edges=[(3, 5, "jump")],
        ),
        rec(
            "g2", "store_value", "alpha.c", "O2",
            [
                ("mov", ["edx", "7"], 0),
                ("sub", ["edx", "eax"], 0),
                ("ret", [], 0),
            ],
        ),
        rec(
            "g3", "free_buffer", "beta.c", "O0",
            [
                ("lea", ["rdi", "[rbx+8]"], 0),
                ("call", ["free"], 0),
                ("xor", ["eax", "eax"], 0),
                ("ret", [], 0),
            ],
        ),
    ]


def gradcheck_paths(seed: int = 0) -> tuple[ParamStore, dict[str, Callable[[ParamTape], Tensor]]]:
    """A toy fixture plus one loss builder per trainable path.

    Paths: infilling, CDI, DUI, J_cg, J_cs (both hinge variants), and the
    joint objective.  Every builder re-runs its forward pass on the tape it
    is handed, so the same closures serve analytic and numeric evaluation.
    """
    records = _gradcheck_records()
    config = EncoderConfig.toy()
    vocab = TokenVocab.from_records(records)
    name_vocab = NameVocabulary.build(
        [["load", "config"], ["store", "value"], ["free", "buffer"]]
    )
    store = ParamStore(seed=seed)
    init_encoder_params(store, config, len(vocab))
    init_task_params(store, config, len(name_vocab))

    infill_sample = text_infilling(infill_stream(records[0]), 0.3, 11)
    if not any(span for _, span in infill_sample.targets):
        raise RuntimeError("gradcheck fixture produced an empty infilling sample")
    cdi_batch = cdi_pairs(records[0], w=2, negatives_per_positive=1, rng_seed=3)[:4]
    dui_batch = dui_pairs(records[0], negatives_per_positive=1, rng_seed=4)[:4]
    gold = name_vocab.encode(["load", "config"])

    def encode(tape: ParamTape, idx: int) -> Tensor:
        return encode_function(records[idx], tape, config, vocab).emb

    def scores(tape: ParamTape) -> tuple[Tensor, Tensor]:
        h_a = similarity_h_tensor(encode(tape, 0))
        h_b = similarity_h_tensor(encode(tape, 1))
        h_c = similarity_h_tensor(encode(tape, 2))
        return score_tensor(h_a, h_b, tape), score_tensor(h_a, h_c, tape)

    # Freeze the inverted-variant margin so its hinge is active at the
    # fixture's initialization and stays differentiable near it.
    probe = ParamTape(store, trainable=False)
    s_pos, s_neg = (s.item() for s in scores(probe))
    gap = s_pos - s_neg
    if abs(gap) < 1e-3:
        raise RuntimeError("gradcheck fixture scores too close; adjust fixture seed")
    inv_pos, inv_neg = (0, 1) if gap > 0 else (1, 0)
    inv_margin = abs(gap) / 2.0

    def build_jcs(tape: ParamTape, variant: str) -> Tensor:
        f = scores(tape)
        if variant == "margin":
            return ranking_loss(f[0], f[1], 0.5, "margin")
        return ranking_loss(f[inv_pos], f[inv_neg], inv_margin, "inverted")

    paths: dict[str, Callable[[ParamTape], Tensor]] = {
        "infilling": lambda tape: alm_losses([infill_sample], tape, config, vocab),
        "cdi": lambda tape: alm_losses(cdi_batch, tape, config, vocab),
        "dui": lambda tape: alm_losses(dui_batch, tape, config, vocab),
        "j_cg": lambda tape: name_loss(encode(tape, 0), gold, tape, config),
        "j_cs_margin": lambda tape: build_jcs(tape, "margin"),
        "j_cs_inverted": lambda tape: build_jcs(tape, "inverted"),
        "joint": lambda tape: joint_loss(
            name_loss(encode(tape, 0), gold, tape, config),
            build_jcs(tape, "margin"),
            1.0,
            1.0,
        ),
    }
    return store, paths


# -- pretraining loop ---------------------------------------------------------

@dataclass
class PretrainResult:
    task_losses: dict[str, list[tuple[int, float]]]
    valid_losses: list[tuple[int, float]]
    best_step: Optional[int]
    best_valid_loss: Optional[float]
    checkpoint_dirs: dict[str, str]
    trained_record_ids: set[str] = field(default_factory=set)


def _draw_pretrain_batch(
    task: str,
    records: Sequence[FunctionRecord],
    rng: np.random.Generator,
    cfg: TrainConfig,
) -> tuple[list, set[str]]:
    samples: list = []
    used: set[str] = set()
    attempts = 0
    while len(samples) < cfg.batch_size and attempts < cfg.batch_size * 20:
        attempts += 1
        rec = records[int(rng.integers(len(records)))]
        if task == "infill":
            flat = infill_stream(rec)
            if len(flat) < 2:
                continue
            samples.append(text_infilling(flat, cfg.mask_ratio, int(rng.integers(1 << 31))))
        elif task == "cdi":
            pairs = cdi_pairs(
                rec, w=cfg.cdi_window,
                negatives_per_positive=cfg.negatives_per_positive,
                rng_seed=int(rng.integers(1 << 31)),
            )
            if not pairs:
                continue
            samples.append(pairs[int(rng.integers(len(pairs)))])
        else:
            pairs = dui_pairs(
                rec, negatives_per_positive=cfg.negatives_per_positive,
                rng_seed=int(rng.integers(1 << 31)),
            )
            if not pairs:
                continue
            samples.append(pairs[int(rng.integers(len(pairs)))])
        used.add(rec.id)
    if not samples:
        raise ValueError(f"no samples available for pretraining task {task!r}")
    return samples, used


def _check_task_streams(records: Sequence[FunctionRecord], cfg: TrainConfig) -> None:
    if not any(len(infill_stream(r)) >= 2 for r in records):
        raise ValueError("no samples available for pretraining task 'infill'")
    if not any(cdi_pairs(r, w=cfg.cdi_window, rng_seed=0) for r in records):
        raise ValueError("no samples available for pretraining task 'cdi'")
    if not any(dui_pairs(r, rng_seed=0) for r in records):
        raise ValueError("no samples available for pretraining task 'dui'")


def pretrain_alm(
    train_records: Sequence[FunctionRecord],
    valid_records: Sequence[FunctionRecord],
    store: ParamStore,
    enc_config: EncoderConfig,
    vocab: TokenVocab,
    cfg: TrainConfig,
    checkpoint_dir: str,
    max_steps: Optional[int] = None,
    fixed_batches: Optional[dict[str, list]] = None,
) -> PretrainResult:
    """Round-robin pretraining over infill/CDI/DUI with best-valid checkpoints.

    Training resumes from ``store.step_count``, and per-step generators are
    seeded by (seed, step), so a resumed run retraces an uninterrupted one.
    """
    if not train_records and fixed_batches is None:
        raise ValueError("no training records")
    if fixed_batches is None:
        _check_task_streams(train_records, cfg)
    total_steps = cfg.max_steps if max_steps is None else max_steps
    os.makedirs(checkpoint_dir, exist_ok=True)
    result = PretrainResult(
        task_losses={t: [] for t in PRETRAIN_TASKS},
        valid_losses=[],
        best_step=None,
        best_valid_loss=None,
        checkpoint_dirs={},
    )
    valid_batches: dict[str, list] = {}
    if valid_records:
        valid_rng = np.random.default_rng((cfg.seed, _VALID_STREAM))
        for task in PRETRAIN_TASKS:
            try:
                batch, _ = _draw_pretrain_batch(task, valid_records, valid_rng, cfg)
                valid_batches[task] = batch
            except ValueError:
                continue

    step = store.step_count
    while step < total_steps:
        task = PRETRAIN_TASKS[step % len(PRETRAIN_TASKS)]
        rng = np.random.default_rng((cfg.seed, step))
        if fixed_batches is not None:
            batch = fixed_batches[task]
        else:
            batch, used = _draw_pretrain_batch(task, train_records, rng, cfg)
            result.trained_record_ids |= used
        tape = ParamTape(store, trainable=True)
        loss = alm_losses(batch, tape, enc_config, vocab, training=True, rng=rng)
        loss.backward()
        tape.flush_grads()
        adam_step(store, cfg)
        step = store.step_count
        result.task_losses[task].append((step, loss.item()))
        if valid_batches and step % cfg.eval_every == 0:
            total = 0.0
            for task_name, batch in sorted(valid_batches.items()):
                total += alm_losses(batch, store, enc_config, vocab).item()
            result.valid_losses.append((step, total))
            if result.best_valid_loss is None or total < result.best_valid_loss:
                result.best_valid_loss = total
                result.best_step = step
                best_dir = os.path.join(checkpoint_dir, "best")
                save_checkpoint(store, best_dir)
                result.checkpoint_dirs["best"] = best_dir
    final_dir = os.path.join(checkpoint_dir, "final")
    save_checkpoint(store, final_dir)
    result.checkpoint_dirs["final"] = final_dir
    return result


# -- multi-task fine-tuning -----------------------------------------------------

@dataclass
class TrainResult:
    history: list[dict]
    valid_f1: list[tuple[int, float]]
    best_f1: Optional[float]
    best_step: Optional[int]
    stopped_early: bool
    checkpoint_dirs: dict[str, str]
    trained_record_ids: set[str] = field(default_factory=set)


def _guard_against_leakage(
    train_records: Sequence[FunctionRecord],
    train_labels: Sequence[Sequence[str]],
    valid_records: Sequence[FunctionRecord],
    name_vocab: NameVocabulary,
) -> None:
    train_ids = {r.id for r in train_records}
    valid_ids = {r.id for r in valid_records}
    if train_ids & valid_ids:
        raise ValueError("record ids shared between train and valid partitions")
    train_sources = {r.source_id for r in train_records}
    valid_sources = {r.source_id for r in valid_records}
    if train_sources & valid_sources:
        raise ValueError("source ids shared between train and valid partitions")
    train_label_set = {l for labels in train_labels for l in labels}
    for label in name_vocab.id_to_label[4:]:
        if label not in train_label_set:
            raise ValueError(
                f"name vocabulary contains label {label!r} absent from training records "
                "(vocabulary must be built from training names only)"
            )


def validation_f1(
    valid_records: Sequence[FunctionRecord],
    valid_labels: Sequence[Sequence[str]],
    store: ParamStore,
    enc_config: EncoderConfig,
    token_vocab: TokenVocab,
    name_vocab: NameVocabulary,
    max_name_len: int = 8,
) -> float:
    pairs = []
    for rec, gold in zip(valid_records, valid_labels):
        enc = encode_function(rec, store, enc_config, token_vocab)
        pred = predict_name(enc.emb, store, enc_config, name_vocab, max_len=max_name_len)
        pairs.append((pred, list(gold)))
    _, prf_scores = evaluate_pairs(pairs)
    return prf_scores.f1


def similarity_gap(
    records: Sequence[FunctionRecord],
    labels: Sequence[Sequence[str]],
    store: ParamStore,
    enc_config: EncoderConfig,
    token_vocab: TokenVocab,
    n_triplets: int = 20,
    seed: int = 0,
) -> tuple[float, float]:
    """Mean positive and negative similarity scores over sampled triplets."""
    rng = np.random.default_rng((seed, 7_777_777))
    tape = ParamTape(store, trainable=False)
    f_pos_vals, f_neg_vals = [], []
    h_cache: dict[int, Tensor] = {}

    def pooled(idx: int) -> Tensor:
        if idx not in h_cache:
            h_cache[idx] = similarity_h_tensor(
                encode_function(records[idx], tape, enc_config, token_vocab).emb
            )
        return h_cache[idx]

    for _ in range(n_triplets):
        trip = sample_triplet(records, labels, rng)
        f_pos_vals.append(score_tensor(pooled(trip.anchor), pooled(trip.positive), tape).item())
        f_neg_vals.append(score_tensor(pooled(trip.anchor), pooled(trip.negative), tape).item())
    return float(np.mean(f_pos_vals)), float(np.mean(f_neg_vals))


def train_multitask(
    train_records: Sequence[FunctionRecord],
    train_labels: Sequence[Sequence[str]],
    valid_records: Sequence[FunctionRecord],
    valid_labels: Sequence[Sequence[str]],
    store: ParamStore,
    enc_config: EncoderConfig,
    token_vocab: TokenVocab,
    name_vocab: NameVocabulary,
    cfg: TrainConfig,
    checkpoint_dir: str,
    max_steps: Optional[int] = None,
) -> TrainResult:
    """Joint J = lambda1*J_cg + lambda2*J_cs training with early stopping."""
    if cfg.lambda1 == 0.0 and cfg.lambda2 == 0.0:
        raise ValueError("at least one loss weight must be positive")
    _guard_against_leakage(train_records, train_labels, valid_records, name_vocab)
    total_steps = cfg.max_steps if max_steps is None else max_steps
    os.makedirs(checkpoint_dir, exist_ok=True)
    result = TrainResult(
        history=[], valid_f1=[], best_f1=None, best_step=None,
        stopped_early=False, checkpoint_dirs={},
    )
    stale_evals = 0
    step = store.step_count
    while step < total_steps:
        rng = np.random.default_rng((cfg.seed, step))
        tape = ParamTape(store, trainable=True)
        jcg_sum: Optional[Tensor] = None
        jcs_sum: Optional[Tensor] = None
        for _ in range(cfg.batch_size):
            trip = sample_triplet(train_records, train_labels, rng)
            for idx in (trip.anchor, trip.positive, trip.negative):
                result.trained_record_ids.add(train_records[idx].id)
            if cfg.lambda1 > 0.0:
                enc_anchor = encode_function(
                    train_records[trip.anchor], tape, enc_config, token_vocab,
                    training=True, rng=rng,
                )
                gold = name_vocab.encode(train_labels[trip.anchor])
                jcg = name_loss(enc_anchor.emb, gold, tape, enc_config, training=True, rng=rng)
                jcg_sum = jcg if jcg_sum is None else jcg_sum + jcg
            if cfg.lambda2 > 0.0:
                embs = {
                    k: encode_function(
                        train_records[i], tape, enc_config, token_vocab,
                        training=True, rng=rng,
                    ).emb
                    for k, i in (("a", trip.anchor), ("p", trip.positive), ("n", trip.negative))
                }
                f_pos = score_tensor(similarity_h_tensor(embs["a"]), similarity_h_tensor(embs["p"]), tape)
                f_neg = score_tensor(similarity_h_tensor(embs["a"]), similarity_h_tensor(embs["n"]), tape)
                jcs = ranking_loss(f_pos, f_neg, cfg.m_cs, cfg.jcs_variant)
                jcs_sum = jcs if jcs_sum is None else jcs_sum + jcs
        scale = 1.0 / cfg.batch_size
        jcg_term = jcg_sum * scale if jcg_sum is not None else 0.0
        jcs_term = jcs_sum * scale if jcs_sum is not None else 0.0
        loss = joint_loss(jcg_term, jcs_term, cfg.lambda1, cfg.lambda2)
        loss.backward()
        tape.flush_grads()
        adam_step(store, cfg)
        step = store.step_count
        result.history.append(
            {
                "step": step,
                "loss": loss.item(),
                "j_cg": jcg_term.item() if isinstance(jcg_term, Tensor) else 0.0,
                "j_cs": jcs_term.item() if isinstance(jcs_term, Tensor) else 0.0,
            }
        )
        if valid_records and step % cfg.eval_every == 0:
            f1 = validation_f1(
                valid_records, valid_labels, store, enc_config, token_vocab,
                name_vocab, cfg.max_name_len,
            )
            result.valid_f1.append((step, f1))
            if result.best_f1 is None or f1 > result.best_f1:
                result.best_f1 = f1
                result.best_step = step
                stale_evals = 0
                best_dir = os.path.join(checkpoint_dir, "best")
                save_checkpoint(store, best_dir)
                result.checkpoint_dirs["best"] = best_dir
            else:
                stale_evals += 1
                if stale_evals >= cfg.patience:
                    result.stopped_early = True
                    break
    final_dir = os.path.join(checkpoint_dir, "final")
    save_checkpoint(store, final_dir)
    result.checkpoint_dirs["final"] = final_dir
    return result


def overfit_name_decoder(
    records: Sequence[FunctionRecord],
    labels: Sequence[Sequence[str]],
    store: ParamStore,
    enc_config: EncoderConfig,
    token_vocab: TokenVocab,
    name_vocab: NameVocabulary,
    cfg: TrainConfig,
    steps: int,
) -> list[float]:
    """Drive J_cg down on one frozen batch; returns the per-step mean losses."""
    losses = []
    for _ in range(steps):
        tape = ParamTape(store, trainable=True)
        total: Optional[Tensor] = None
        for rec, gold in zip(records, labels):
            enc = encode_function(rec, tape, enc_config, token_vocab)
            jcg = name_loss(enc.emb, name_vocab.encode(gold), tape, enc_config)
            total = jcg if total is None else total + jcg
        loss = total * (1.0 / len(records))
        loss.backward()
        tape.flush_grads()
        adam_step(store, cfg)
        losses.append(loss.item())
    return losses


def build_stores(
    enc_config: EncoderConfig,
    token_vocab_size: int,
    name_vocab_size: int,
    seed: int,
) -> ParamStore:
    """Fresh store with encoder and task parameters initialized in order."""
    store = ParamStore(seed=seed)
    init_encoder_params(store, enc_config, token_vocab_size)
    init_task_params(store, enc_config, name_vocab_size)
    return store
