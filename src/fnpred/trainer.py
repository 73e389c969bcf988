"""The training loop, Adam, configuration files, and the gradient-check harness.

Every optimizer step runs through ``train_step``, and both stages through
one run loop that owns the (seed, step) generators, evaluation, the
``best/`` and ``final/`` checkpoints and early stopping.  Pretraining is
round-robin over the three language-model tasks; fine-tuning is the joint
name-generation + similarity loss on triplet batches.  The run state is
saved with each checkpoint, so a resumed run retraces an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from functools import partial
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
from .params import ParamStore, ParamTape, load_checkpoint, save_checkpoint
from .pretrain import PRETRAIN_TASKS, task_samples
from .tasks import (
    NameVocabulary,
    init_task_params,
    joint_loss,
    name_loss,
    predict_names,
    ranking_loss,
    sample_triplet,
    score_tensor,
    similarity_h_tensor,
)

_VALID_STREAM = 999_983  # rng stream tag for validation batches
DECODE_GROUP = 16  # records that predict_records encodes, then decodes in one batch


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
        for name in ("lr", "eps", "m_cs"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ValueError(f"{name} must be positive")
        for name in ("lambda1", "lambda2", "negatives_per_positive", "max_steps"):
            if not getattr(self, name) >= 0:  # also rejects NaN
                raise ValueError(f"{name} must be >= 0")
        if self.lambda1 == 0.0 and self.lambda2 == 0.0:
            raise ValueError("lambda1 and lambda2 are both 0: at least one loss weight must be positive")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        for name in ("batch_size", "patience", "eval_every", "max_name_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
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
    line_of: dict[str, int] = {}
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
            line_of[key] = line_no
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a ``__post_init__`` message starts with the field it rejects
        line = line_of.get(str(exc).split(" ", 1)[0])
        raise ValueError(f"config line {line}: {exc}" if line else str(exc)) from None


save_train_config = save_encoder_config = _write_config
load_train_config = partial(_read_config, TrainConfig)
load_encoder_config = partial(_read_config, EncoderConfig)


# -- optimizer -----------------------------------------------------------------

def adam_step(store: ParamStore, grads: dict[str, np.ndarray], cfg: TrainConfig) -> None:
    """One bias-corrected Adam update at step ``store.step_count + 1``.

    ``grads`` maps names to gradients (``ParamTape.grads()``); a missing name
    is a zero gradient.  First/second moments persist in ``store.opt_state``
    under ``<name>.m`` / ``<name>.v`` and are created as zeros when an array
    is first updated.  An array with no gradient and no moments is skipped:
    with m = v = 0 its update would be exactly zero.  So ``opt_state`` holds
    moments only for arrays that some step has reached.  Every gradient is
    checked before any update, so a non-finite one leaves the store as it was.

    The update runs in place through two scratch arrays per parameter and
    evaluates ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``value -= (lr*m_hat) / (sqrt(v_hat) + eps)`` in that operand order.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {name!r}")
    t = store.step_count + 1
    moments = store.opt_state
    for name, value in store.values.items():
        g = grads.get(name)
        m, v = moments.get(f"{name}.m"), moments.get(f"{name}.v")
        if g is None:
            if m is None and v is None:
                continue
            g = 0.0
        if m is None:
            m = moments[f"{name}.m"] = np.zeros_like(value)
        if v is None:
            v = moments[f"{name}.v"] = np.zeros_like(value)
        a, b = np.empty_like(value), np.empty_like(value)
        m *= cfg.beta1
        np.multiply(1.0 - cfg.beta1, g, out=a)
        m += a
        v *= cfg.beta2
        np.multiply(1.0 - cfg.beta2, g, out=a)
        a *= g
        v += a
        np.divide(m, 1.0 - cfg.beta1**t, out=a)  # m_hat
        a *= cfg.lr
        np.divide(v, 1.0 - cfg.beta2**t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += cfg.eps
        a /= b
        value -= a
    store.step_count = t


def train_step(store: ParamStore, cfg: TrainConfig, build_loss: Callable[[ParamTape], Tensor]) -> float:
    """One optimizer step: ``build_loss`` on a fresh tape, backward, ``adam_step``; returns the loss."""
    tape = ParamTape(store, trainable=True)
    loss = build_loss(tape)
    loss.backward()
    adam_step(store, tape.grads(), cfg)
    return loss.item()


# -- gradient checking -----------------------------------------------------------

def grad_check(
    loss_fn: Callable[[ParamTape], Tensor],
    store: ParamStore,
    eps: float = 1e-5,
    max_coords: int = 500,
    seed: int = 0,
    grad_fn: Optional[Callable[[ParamStore], dict[str, np.ndarray]]] = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` maps a ParamTape to a scalar Tensor and is re-evaluated for
    each probe; up to ``max_coords`` coordinates are sampled uniformly over
    all parameters.  ``grad_fn``, when given, returns the analytic gradients
    (``{name: grad}``, a missing name meaning zero) instead of backpropagation
    (used to prove the harness catches wrong gradients).
    """
    if grad_fn is None:
        tape = ParamTape(store, trainable=True)
        loss = loss_fn(tape)
        if loss.data.size != 1:
            raise ValueError("loss_fn must return a scalar")
        if not np.all(np.isfinite(loss.data)):
            raise ValueError("non-finite loss")
        loss.backward()
        grads = tape.grads()
    else:
        grads = grad_fn(store)

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
        analytic = grads[name].ravel()[inner] if name in grads else 0.0
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
    store = build_stores(config, len(vocab), len(name_vocab), seed)

    infill_sample = task_samples(records[0], "infill", 11, mask_ratio=0.3)[0]
    if not any(span for _, span in infill_sample.targets):
        raise RuntimeError("gradcheck fixture produced an empty infilling sample")
    cdi_batch = task_samples(records[0], "cdi", 3, w=2, negatives_per_positive=1)[:4]
    dui_batch = task_samples(records[0], "dui", 4, negatives_per_positive=1)[:4]
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


# -- the run loop ---------------------------------------------------------------

def _run(
    store: ParamStore, cfg: TrainConfig, checkpoint_dir: str, max_steps: Optional[int],
    step_loss: Callable[[ParamTape, np.random.Generator, int], Tensor],
    evaluate: Optional[Callable[[], float]], patience: Optional[int],
) -> tuple[list[tuple[int, float]], bool, dict[str, str]]:
    """Train ``store`` from ``store.step_count`` up to step ``max_steps`` (default ``cfg.max_steps``).

    ``step_loss(tape, rng, step)`` builds the loss of step ``step`` (from 1;
    ``rng`` is seeded by ``(cfg.seed, step - 1)``).  Every ``eval_every``
    steps, ``evaluate()`` returns a score to maximise; a new best goes into
    ``store.best_step``/``best_score`` and ``best/``.  With a ``patience``,
    the run stops after that many evaluations in a row without a new best,
    counted from the store as ``(step - best_step) // eval_every``, so a
    resumed run stops where an uninterrupted one would.  Returns this call's
    ``(step, score)`` pairs, whether the run has stopped, and the saved dirs.
    """
    scores: list[tuple[int, float]] = []
    dirs: dict[str, str] = {}

    def stopped() -> bool:
        return (
            evaluate is not None and patience is not None and store.best_step is not None
            and (store.step_count - store.best_step) // cfg.eval_every >= patience
        )

    total_steps = cfg.max_steps if max_steps is None else max_steps
    while not stopped() and store.step_count < total_steps:
        step = store.step_count + 1
        rng = np.random.default_rng((cfg.seed, step - 1))
        train_step(store, cfg, lambda tape: step_loss(tape, rng, step))
        if evaluate is not None and step % cfg.eval_every == 0:
            score = evaluate()
            scores.append((step, score))
            if store.best_score is None or score > store.best_score:
                store.best_step, store.best_score = step, score
                dirs["best"] = os.path.join(checkpoint_dir, "best")
                save_checkpoint(store, dirs["best"])
    dirs["final"] = os.path.join(checkpoint_dir, "final")
    save_checkpoint(store, dirs["final"])
    return scores, stopped(), dirs


# -- pretraining ------------------------------------------------------------------

@dataclass
class PretrainResult:
    task_losses: dict[str, list[tuple[int, float]]]
    valid_losses: list[tuple[int, float]]
    best_step: Optional[int]
    best_valid_loss: Optional[float]
    checkpoint_dirs: dict[str, str]
    trained_record_ids: set[str] = field(default_factory=set)


def _task_samples(rec: FunctionRecord, task: str, seed: int, cfg: TrainConfig) -> list:
    return task_samples(rec, task, seed, cfg.mask_ratio, cfg.cdi_window, cfg.negatives_per_positive)


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
        pool = _task_samples(rec, task, int(rng.integers(1 << 31)), cfg)
        if not pool:
            continue
        samples.append(pool[int(rng.integers(len(pool)))])
        used.add(rec.id)
    if not samples:
        raise ValueError(f"no samples available for pretraining task {task!r}")
    return samples, used


def pretrain_alm(
    train_records: Sequence[FunctionRecord],
    valid_records: Sequence[FunctionRecord],
    store: ParamStore,
    enc_config: EncoderConfig,
    vocab: TokenVocab,
    cfg: TrainConfig,
    checkpoint_dir: str,
    max_steps: Optional[int] = None,
) -> PretrainResult:
    """Round-robin pretraining over infill/CDI/DUI with best-valid checkpoints.

    Resumes from the store's run state (step count; best summed validation
    loss, as ``-store.best_score``, and its step) with per-step generators
    seeded by (seed, step), so a resumed run retraces an uninterrupted one,
    ``best/`` included.  Never stops early; the result lists this call's steps.
    """
    if not train_records:
        raise ValueError("no training records")
    for task in PRETRAIN_TASKS:  # fail before the first step, not at the first step of a missing task
        if not any(_task_samples(r, task, 0, cfg) for r in train_records):
            raise ValueError(f"no samples available for pretraining task {task!r}")
    task_losses: dict[str, list[tuple[int, float]]] = {t: [] for t in PRETRAIN_TASKS}
    trained: set[str] = set()
    valid_batches: dict[str, list] = {}
    if valid_records:
        valid_rng = np.random.default_rng((cfg.seed, _VALID_STREAM))
        for task in PRETRAIN_TASKS:
            try:
                valid_batches[task], _ = _draw_pretrain_batch(task, valid_records, valid_rng, cfg)
            except ValueError:
                continue

    # Held until the next draw, as a loop variable would be: freed once the
    # loss is built, the samples die before the collector promotes them, and
    # its full collections move from training to the next allocation-heavy caller.
    batch: list = []

    def step_loss(tape: ParamTape, rng: np.random.Generator, step: int) -> Tensor:
        nonlocal batch
        task = PRETRAIN_TASKS[(step - 1) % len(PRETRAIN_TASKS)]
        batch, used = _draw_pretrain_batch(task, train_records, rng, cfg)
        trained.update(used)
        loss = alm_losses(batch, tape, enc_config, vocab, training=True, rng=rng)
        task_losses[task].append((step, loss.item()))
        return loss

    def neg_valid_loss() -> float:
        return -sum(alm_losses(valid_batches[t], store, enc_config, vocab).item() for t in sorted(valid_batches))

    scores, _, dirs = _run(store, cfg, checkpoint_dir, max_steps, step_loss,
                           neg_valid_loss if valid_batches else None, patience=None)
    best_loss = None if store.best_score is None else -store.best_score
    valid_losses = [(step, -score) for step, score in scores]
    return PretrainResult(task_losses, valid_losses, store.best_step, best_loss, dirs, trained)


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


def predict_records(
    records: Sequence[FunctionRecord],
    store: ParamStore,
    enc_config: EncoderConfig,
    token_vocab: TokenVocab,
    name_vocab: NameVocabulary,
    max_name_len: int = 8,
) -> list[list[str]]:
    """Greedy name of each record, in input order.

    Records are encoded and decoded ``DECODE_GROUP`` at a time, so only one
    group's encodings are held at once.
    """
    tape = ParamTape(store, trainable=False)
    names: list[list[str]] = []
    for start in range(0, len(records), DECODE_GROUP):
        embs = [
            encode_function(rec, tape, enc_config, token_vocab).emb
            for rec in records[start : start + DECODE_GROUP]
        ]
        names.extend(predict_names(embs, tape, enc_config, name_vocab, max_len=max_name_len))
    return names


def validation_f1(
    valid_records: Sequence[FunctionRecord],
    valid_labels: Sequence[Sequence[str]],
    store: ParamStore,
    enc_config: EncoderConfig,
    token_vocab: TokenVocab,
    name_vocab: NameVocabulary,
    max_name_len: int = 8,
) -> float:
    preds = predict_records(valid_records, store, enc_config, token_vocab, name_vocab, max_name_len)
    _, prf_scores = evaluate_pairs([(pred, list(gold)) for pred, gold in zip(preds, valid_labels)])
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
    """Joint J = lambda1*J_cg + lambda2*J_cs training, early-stopped on validation F1.

    Resumes from the store's run state as ``pretrain_alm`` does, early stopping included."""
    _guard_against_leakage(train_records, train_labels, valid_records, name_vocab)
    history: list[dict] = []
    trained: set[str] = set()

    def step_loss(tape: ParamTape, rng: np.random.Generator, step: int) -> Tensor:
        def encode(idx: int) -> Tensor:
            return encode_function(train_records[idx], tape, enc_config, token_vocab, training=True, rng=rng).emb

        jcg_sum: Optional[Tensor] = None
        jcs_sum: Optional[Tensor] = None
        for _ in range(cfg.batch_size):
            trip = sample_triplet(train_records, train_labels, rng)
            trained.update(train_records[i].id for i in (trip.anchor, trip.positive, trip.negative))
            if cfg.lambda1 > 0.0:
                gold = name_vocab.encode(train_labels[trip.anchor])
                jcg = name_loss(encode(trip.anchor), gold, tape, enc_config, training=True, rng=rng)
                jcg_sum = jcg if jcg_sum is None else jcg_sum + jcg
            if cfg.lambda2 > 0.0:
                a, p, n = (encode(i) for i in (trip.anchor, trip.positive, trip.negative))
                f_pos = score_tensor(similarity_h_tensor(a), similarity_h_tensor(p), tape)
                f_neg = score_tensor(similarity_h_tensor(a), similarity_h_tensor(n), tape)
                jcs = ranking_loss(f_pos, f_neg, cfg.m_cs, cfg.jcs_variant)
                jcs_sum = jcs if jcs_sum is None else jcs_sum + jcs
        scale = 1.0 / cfg.batch_size
        jcg_term = jcg_sum * scale if jcg_sum is not None else 0.0
        jcs_term = jcs_sum * scale if jcs_sum is not None else 0.0
        loss = joint_loss(jcg_term, jcs_term, cfg.lambda1, cfg.lambda2)
        history.append({
            "step": step, "loss": loss.item(),
            "j_cg": jcg_term.item() if isinstance(jcg_term, Tensor) else 0.0,
            "j_cs": jcs_term.item() if isinstance(jcs_term, Tensor) else 0.0,
        })
        return loss

    evaluate = partial(validation_f1, valid_records, valid_labels, store, enc_config, token_vocab,
                       name_vocab, cfg.max_name_len) if valid_records else None
    scores, stopped, dirs = _run(store, cfg, checkpoint_dir, max_steps, step_loss, evaluate, cfg.patience)
    return TrainResult(history, scores, store.best_score, store.best_step, stopped, dirs, trained)


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

    def mean_jcg(tape: ParamTape) -> Tensor:
        total: Optional[Tensor] = None
        for rec, gold in zip(records, labels):
            enc = encode_function(rec, tape, enc_config, token_vocab)
            jcg = name_loss(enc.emb, name_vocab.encode(gold), tape, enc_config)
            total = jcg if total is None else total + jcg
        return total * (1.0 / len(records))

    return [train_step(store, cfg, mean_jcg) for _ in range(steps)]


def build_stores(
    enc_config: EncoderConfig,
    token_vocab_size: int,
    name_vocab_size: int,
    seed: int,
    encoder_from: Optional[str] = None,
) -> ParamStore:
    """Fresh store with encoder and task parameters initialized in order.

    ``encoder_from``, a checkpoint directory, supplies the encoder group (the
    arrays ``init_encoder_params`` declares); only those arrays are read.
    """
    store = ParamStore(seed=seed)
    init_encoder_params(store, enc_config, token_vocab_size)
    if encoder_from is not None:
        saved = load_checkpoint(encoder_from, names={f"param/{name}" for name in store.values})
        for name, value in store.values.items():
            source = saved.values.get(name)
            if source is None or source.shape != value.shape:
                found = "missing" if source is None else f"shaped {source.shape}"
                raise ValueError(
                    f"checkpoint encoder array {name!r} is {found}; the encoder config needs {value.shape}"
                )
            value[...] = source
    init_task_params(store, enc_config, name_vocab_size)
    return store
