"""The three workloads and the stages they time.

Every workload runs the same seven stages on its own generated corpus —
ingest, tokenize, pretrain-data, relate, pretraining, multi-task training
and predict — but sizes them so that different layers do most of the work:

* ``train-default``: a few dozen sources at ``EncoderConfig()``; most of the
  run is default-size pretraining and training, where encoder, decoder,
  backward and Adam work dominate and triplet sampling is negligible.
* ``corpus-toy``: about 1.3k records at ``EncoderConfig.toy()``; the run is
  spread over the data stages and toy training, where per-record Python
  work (normalization, CFGs, BFS, the quadratic triplet scan) dominates.
* ``predict-default``: a few hundred functions named by an untrained
  default-size checkpoint; forward-only encoding and the O(L^2) greedy
  decoder dominate.  Its training stages run at toy size.

A stage is timed as a fixed number of rounds of one operation, and its
rate is the median over its rounds of work per second.  The rounds of all
stages are interleaved over the run.  Functions of ``fnpred`` are looked up
on their modules at call time so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import gen
from fnpred import cli, encoder, ingest, params, tasks, tokenizer, trainer

MAX_LEN = 8
CONTROL_IDS = (tasks.NAME_PAD, tasks.NAME_BOS, tasks.NAME_EOS)
SETUP_REPEATS = 5
# Round counts are fixed per workload, sized so that a run with --seconds
# at this value measures about that long on the reference machine (see
# README.md); --seconds scales them.  Every run of a workload at one
# --seconds so does the same amount of work, whatever the host's speed.
REFERENCE_SECONDS = 30.0


@dataclass(frozen=True)
class Spec:
    n_sources: int
    opts_per_source: tuple[int, int]
    insns: tuple[int, int]  # base function length range
    relate_lines: int
    relate_epochs: int
    train_default: bool  # pretraining and training at EncoderConfig() (else toy)
    predict_default: bool  # predict with an untrained EncoderConfig() checkpoint (else toy)
    batch_size: int
    pretrain_round: int  # steps per pretraining round, a multiple of the 3 tasks
    train_round: int  # steps per training round
    predict_chunk: int  # functions per predict command
    slices: int  # ingest and pretrain-data rounds cycle over this many slices of the corpus
    rounds: dict[str, int]  # stage -> rounds in a run of REFERENCE_SECONDS


WORKLOADS = {
    "train-default": Spec(
        n_sources=36, opts_per_source=(1, 3), insns=(12, 32), relate_lines=40, relate_epochs=2,
        train_default=True, predict_default=True, batch_size=4, pretrain_round=3,
        train_round=2, predict_chunk=6, slices=1,
        rounds={"ingest": 48, "tokenize": 32, "pretrain_data": 9, "relate": 5,
                "pretrain": 3, "train": 3, "predict": 3},
    ),
    "corpus-toy": Spec(
        n_sources=520, opts_per_source=(1, 4), insns=(4, 36), relate_lines=80, relate_epochs=1,
        train_default=False, predict_default=False, batch_size=8, pretrain_round=3,
        train_round=1, predict_chunk=25, slices=8,
        rounds={"ingest": 56, "tokenize": 36, "pretrain_data": 16, "relate": 8,
                "pretrain": 36, "train": 8, "predict": 12},
    ),
    "predict-default": Spec(
        n_sources=130, opts_per_source=(1, 4), insns=(6, 40), relate_lines=40, relate_epochs=1,
        train_default=False, predict_default=True, batch_size=8, pretrain_round=3,
        train_round=1, predict_chunk=10, slices=4,
        rounds={"ingest": 40, "tokenize": 24, "pretrain_data": 16, "relate": 6,
                "pretrain": 20, "train": 12, "predict": 9},
    ),
}


@dataclass
class Window:
    rates: list[float] = field(default_factory=list)  # work per second of each round
    work: float = 0.0
    seconds: float = 0.0
    dead: bool = False  # a round failed

    @property
    def rate(self) -> float:
        """Median over rounds, so that a short stall of the host moves it little."""
        return statistics.median(self.rates) if self.rates else 0.0


@dataclass
class Run:
    """Counters, windows and check results of one run of one workload."""

    spec: Spec
    seconds: float
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # failed output checks
    failures: list[str] = field(default_factory=list)  # failed operations
    windows: dict[str, Window] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=lambda: {
        "train_steps": 0, "triplets": 0, "functions": 0, "relate_commands": 0})

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    @contextlib.contextmanager
    def stage(self, name: str):
        if self.tracer is not None:
            self.tracer.stage = name
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.stage = None

    def round_counts(self) -> dict[str, int]:
        """Rounds of each stage in this run: the workload's counts scaled by --seconds."""
        counts = {k: max(1, round(n * self.seconds / REFERENCE_SECONDS)) for k, n in self.spec.rounds.items()}
        counts["setup"] = SETUP_REPEATS
        return counts

    def round(self, name: str, fn) -> None:
        """Time one round of ``fn``, which returns the work it did, or None if
        it failed; a failed round ends its stage."""
        win = self.windows.setdefault(name, Window())
        if win.dead:
            return
        with self.stage(name):
            t0 = time.perf_counter()
            work = fn()
            elapsed = time.perf_counter() - t0
        if work is None:
            win.dead = True
            return
        win.rates.append(work / elapsed)
        win.work += work
        win.seconds += elapsed

    def cli(self, argv: list[str], ops: int = 1) -> bool:
        """One ``fnpred`` command, counted as ``ops`` operations."""
        self.attempted += ops
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.run(argv).exit_code
        if code != 0:
            self.failed += ops
            self.failures.append(f"fnpred {argv[0]} exited {code}: {err.getvalue().strip()[:200]}")
        return code == 0


def skipgram_pairs(lines: list[list[str]], window: int = 2) -> int:
    """Training pairs of one skip-gram pass with the given window."""
    return sum(min(len(l), i + window + 1) - max(0, i - window) - 1 for l in lines for i in range(len(l)))


def calibrate_ms() -> float:
    """A fixed NumPy and Python loop; its time flags a slow or busy host."""
    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
    for _ in range(40):
        a = np.tanh(a @ a * 0.01)
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (time.perf_counter() - t0) * 1e3


# -- inputs and set-up ------------------------------------------------------

def make_inputs(spec: Spec, seed: int, path) -> tuple[gen.Corpus, list[int]]:
    """Write the corpus files; returns the corpus and its predict chunk sizes."""
    corpus = gen.generate(seed, spec.n_sources, spec.opts_per_source, spec.insns, spec.relate_lines)
    gen.write_jsonl(corpus.records, path("raw.jsonl"))
    for j in range(spec.slices):
        gen.write_jsonl(corpus.records[j :: spec.slices], path(f"raw_{j}.jsonl"))
    gen.write_lines(corpus.names, path("names.txt"))
    gen.write_lines([" ".join(line) for line in corpus.relate_lines], path("relate_corpus.txt"))
    gen.write_lines(corpus.relate_vocab, path("relate_vocab.txt"))
    chunks = [corpus.records[i : i + spec.predict_chunk] for i in range(0, len(corpus.records), spec.predict_chunk)]
    for i, chunk in enumerate(chunks):
        gen.write_jsonl(chunk, path(f"predict_{i}.jsonl"))
    return corpus, [len(chunk) for chunk in chunks]


@dataclass
class Setup:
    records: list
    labels: list
    token_vocab: object
    name_vocab: object
    enc_config: object
    store: object
    model: tuple  # (store, enc_config, token_vocab, name_vocab) of the checkpoint it names with


def load_model(model_dir: str) -> tuple:
    """The loads ``fnpred predict`` performs, through the public modules."""
    store = params.load_checkpoint(model_dir)
    enc_config = trainer.load_encoder_config(os.path.join(model_dir, "encoder_config.txt"))
    token_vocab = encoder.TokenVocab.load(os.path.join(model_dir, "token_vocab.txt"))
    name_vocab = tasks.NameVocabulary.load(os.path.join(model_dir, "name_vocab.tsv"))
    return store, enc_config, token_vocab, name_vocab


def vocabularies(records) -> tuple:
    pipeline = tokenizer.build_pipeline(tokenizer.bundled_corpus(), tokenizer.bundled_lexicon())
    labels = [tokenizer.preprocess_name(pipeline, r.name) for r in records]
    return labels, encoder.TokenVocab.from_records(records), tasks.NameVocabulary.build(labels)


def setup(spec: Spec, seed: int, path) -> Setup:
    """Corpus parse, tokenizer pipeline, labels, vocabularies, store init and
    the load of the checkpoint the workload names with."""
    records = ingest.parse_function_records(path("raw.jsonl"))
    labels, token_vocab, name_vocab = vocabularies(records)
    enc_config = encoder.EncoderConfig() if spec.train_default else encoder.EncoderConfig.toy()
    store = trainer.build_stores(enc_config, len(token_vocab), len(name_vocab), seed)
    model = load_model(path("model"))
    return Setup(records, labels, token_vocab, name_vocab, enc_config, store, model)


def build_model(seed: int, path, default: bool) -> None:
    """The untrained checkpoint a workload names with, built from the seed.

    The output bias of the control ids is lowered: an untrained decoder
    stops at step 1 (EOS), and a PAD or BOS choice is not counted toward
    ``--max-len``, so this makes every function decode exactly
    ``MAX_LEN`` labels, a fixed amount of work per function.
    """
    _, token_vocab, name_vocab = vocabularies(ingest.parse_function_records(path("raw.jsonl")))
    config = encoder.EncoderConfig() if default else encoder.EncoderConfig.toy()
    store = trainer.build_stores(config, len(token_vocab), len(name_vocab), seed)
    store.values["out_proj.b"][list(CONTROL_IDS)] = -100.0
    params.save_checkpoint(store, path("model"))
    trainer.save_encoder_config(config, os.path.join(path("model"), "encoder_config.txt"))
    token_vocab.save(os.path.join(path("model"), "token_vocab.txt"))
    name_vocab.save(os.path.join(path("model"), "name_vocab.tsv"))


def clone_store(store):
    out = params.ParamStore(seed=store.rng_seed)
    for name, value in store.values.items():
        out.add(name, value.copy())
    out.opt_state = {k: v.copy() for k, v in store.opt_state.items()}
    out.step_count = store.step_count
    return out


def train_steps(kind: str, s: Setup, store, cfg, directory: str, max_steps: int) -> list[float]:
    """Resume pretraining or multi-task training up to ``max_steps``; returns the step losses."""
    if kind == "pretrain":
        res = trainer.pretrain_alm(s.records, [], store, s.enc_config, s.token_vocab, cfg, directory, max_steps=max_steps)
        return [v for series in res.task_losses.values() for _, v in series]
    res = trainer.train_multitask(s.records, s.labels, [], [], store, s.enc_config, s.token_vocab,
                                  s.name_vocab, cfg, directory, max_steps=max_steps)
    return [h["loss"] for h in res.history]


# -- the run ------------------------------------------------------------------

def interleave(plan: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """(stage, round index) pairs, each stage's rounds spread evenly over the
    run, so that every stage samples the host's speed over the whole run
    rather than over one stretch of it."""
    slots = [((i + 0.5) / n, k, name, i) for k, (name, n) in enumerate(plan) for i in range(n)]
    return [(name, i) for _, _, name, i in sorted(slots)]


def run_workload(name: str, seed: int, seconds: float, work_dir: str, tracer=None) -> tuple[Run, dict]:
    """Generate, set up, time every stage and check; returns the run and its metrics."""
    spec = WORKLOADS[name]
    run = Run(spec=spec, seconds=seconds, tracer=tracer)

    def path(name: str) -> str:
        return os.path.join(work_dir, name)

    calib = [calibrate_ms()]
    corpus, chunk_sizes = make_inputs(spec, seed, path)
    build_model(seed, path, spec.predict_default)
    cfg = trainer.TrainConfig(batch_size=spec.batch_size, seed=seed, toy=not spec.train_default)
    s = setup(spec, seed, path)  # untimed: the stages work on its records and store
    store = s.store

    # A first, untimed ingest of each slice writes the normalized slices that pretrain-data reads.
    slice_sizes = [len(s.records[j :: spec.slices]) for j in range(spec.slices)]
    for j in range(spec.slices):
        run.cli(["ingest", "--input", path(f"raw_{j}.jsonl"), "--normalize", "--out", path(f"data_{j}.jsonl")])
    pair_epochs = skipgram_pairs(corpus.relate_lines) * spec.relate_epochs
    first_rounds: dict[str, tuple] = {}  # kind -> (store before, max_steps, store after)

    def do_setup(i: int):
        setup(spec, seed, path)
        return 1

    def do_ingest(i: int):
        j = i % spec.slices
        ok = run.cli(["ingest", "--input", path(f"raw_{j}.jsonl"), "--normalize", "--out", path(f"ingested_{j}.jsonl")])
        return slice_sizes[j] if ok else None

    def do_tokenize(i: int):
        return len(corpus.names) if run.cli(["tokenize", "--names", path("names.txt"), "--out", path("tokens.tsv")]) else None

    def do_pretrain_data(i: int):
        j = i % spec.slices
        for task in ("infill", "cdi", "dui"):
            if not run.cli(["pretrain-data", "--input", path(f"data_{j}.jsonl"), "--task", task,
                            "--seed", str(seed), "--out", path(f"{task}_{j}.jsonl")]):
                return None
        return slice_sizes[j]

    def do_relate(i: int):
        run.counts["relate_commands"] += 1
        ok = run.cli(["relate", "--vocab", path("relate_vocab.txt"), "--corpus", path("relate_corpus.txt"),
                      "--epochs", str(spec.relate_epochs), "--seed", str(seed), "--out", path("relations.tsv")])
        return pair_epochs if ok else None

    def do_steps(kind: str, n: int):
        before = store.step_count
        snapshot = clone_store(store) if not spec.train_default and kind not in first_rounds else None
        run.attempted += n
        try:
            losses = train_steps(kind, s, store, cfg, path(kind), before + n)
        except ValueError as exc:
            run.failed += n
            run.failures.append(f"{kind} steps {before}..{before + n}: {exc}")
            return None
        run.check(store.step_count == before + n, f"{kind}: step_count {before} -> {store.step_count}, asked {n}")
        run.check(len(losses) == n and all(math.isfinite(v) for v in losses), f"{kind}: missing or non-finite losses")
        if snapshot is not None:
            first_rounds[kind] = (snapshot, before + n, clone_store(store))
        if kind == "train":
            run.counts["train_steps"] += n
            run.counts["triplets"] += n * cfg.batch_size
        return n * cfg.batch_size

    def do_pretrain(i: int):
        return do_steps("pretrain", spec.pretrain_round)

    def do_train(i: int):
        if i == 0:  # multi-task training starts from the pretrained store with fresh moments
            store.opt_state.clear()
            store.step_count = 0
        return do_steps("train", spec.train_round)

    def do_predict(i: int):
        j = i % len(chunk_sizes)
        if not run.cli(["predict", "--model", path("model"), "--input", path(f"predict_{j}.jsonl"),
                        "--max-len", str(MAX_LEN), "--out", path(f"names_{j}.tsv")], ops=chunk_sizes[j]):
            return None
        run.counts["functions"] += chunk_sizes[j]
        return chunk_sizes[j]

    steps = {"setup": do_setup, "ingest": do_ingest, "tokenize": do_tokenize, "pretrain_data": do_pretrain_data,
             "relate": do_relate, "pretrain": do_pretrain, "train": do_train, "predict": do_predict}
    counts = run.round_counts()
    # Training is one sequence: every pretraining round comes before the first training round.
    plan = [(k, counts[k]) for k in ("setup", "ingest", "tokenize", "pretrain_data", "relate", "predict")]
    plan.append(("training", counts["pretrain"] + counts["train"]))
    for stage, i in interleave(plan):
        if stage == "training":
            stage, i = ("pretrain", i) if i < counts["pretrain"] else ("train", i - counts["pretrain"])
        run.round(stage, lambda: steps[stage](i))

    checks.ingest_output(run, path("raw_0.jsonl"), path("ingested_0.jsonl"))
    checks.tokenize_output(run, corpus, path("tokens.tsv"))
    checks.pretrain_data_output(run, path("data_0.jsonl"), path("infill_0.jsonl"), path("cdi_0.jsonl"))
    checks.relate_output(run, corpus.relate_vocab, path("relations.tsv"))
    checks.checkpoint_roundtrip(run, store, os.path.join(path("train"), "final"))
    for kind, (before, max_steps, after) in first_rounds.items():
        again = clone_store(before)
        train_steps(kind, s, again, cfg, path("rerun"), max_steps)
        run.check(checks.same_bits(again, after), f"{kind}: a same-seed rerun of the first steps differs")
    done = range(min(len(chunk_sizes), len(run.windows["predict"].rates)))
    checks.predict_output(run, s.model, [path(f"predict_{j}.jsonl") for j in done],
                          [path(f"names_{j}.tsv") for j in done], MAX_LEN)

    calib.append(calibrate_ms())
    run.calib_ms = statistics.fmean(calib)
    setup_times = [1.0 / r for r in run.windows["setup"].rates]
    run.setup_times = setup_times
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ingest.records_per_s": (run.windows["ingest"].rate, "1/s"),
        "tokenize.names_per_s": (run.windows["tokenize"].rate, "1/s"),
        "pretrain_data.records_per_s": (run.windows["pretrain_data"].rate, "1/s"),
        "relate.pair_epochs_per_s": (run.windows["relate"].rate, "1/s"),
        "pretrain.samples_per_s": (run.windows["pretrain"].rate, "1/s"),
        "train.triplets_per_s": (run.windows["train"].rate, "1/s"),
        "predict.fn_per_s": (run.windows["predict"].rate, "1/s"),
    }
    return run, metrics
