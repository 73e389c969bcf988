"""Command-line entry point.

Nine file-to-file subcommands cover the pipeline: ingest, tokenize, relate,
pretrain-data, train, predict, similarity, evaluate, and gradcheck.  Stages
communicate only through JSONL/TSV artifacts so each can be tested alone;
reruns with identical inputs and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .encoder import EncoderConfig, TokenVocab, encode_function
from .ingest import parse_function_records, normalize_record, record_to_json, split_by_source
from .metrics import (
    EvalCounts,
    kl_divergence,
    oov_ratio,
    prf,
    weighted_macro,
    word_level_counts,
)
from .params import ParamTape, load_checkpoint
from .pretrain import generate_pretrain_lines
from .relations import (
    build_relation_groups,
    load_relation_file,
    train_skipgram,
    train_subword_embeddings,
)
from .tasks import NameVocabulary, predict_name, score_tensor, similarity_h_tensor
from .tokenizer import build_pipeline, bundled_corpus, bundled_lexicon, load_corpus, load_lexicon, preprocess_name
from .trainer import (
    TrainConfig,
    build_stores,
    grad_check,
    gradcheck_paths,
    load_encoder_config,
    load_train_config,
    pretrain_alm,
    save_encoder_config,
    save_train_config,
    train_multitask,
)

GRADCHECK_THRESHOLD = 1e-4


@dataclass
class CommandResult:
    exit_code: int
    artifacts_written: list[str] = field(default_factory=list)
    summary: str = ""


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="random seed (default 0)")

    parser = argparse.ArgumentParser(
        prog="fnpred",
        description="Binary function-name prediction pipeline (desk-scale).",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("ingest", parents=[common], help="validate and optionally normalize a function-record JSONL file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--normalize", action="store_true", help="normalize instructions before writing")

    p = sub.add_parser("tokenize", parents=[common], help="split raw function names into label sequences")
    p.add_argument("--names", required=True, help="file with one raw name per line")
    p.add_argument("--corpus", default=None, help="whitespace-tokenized name corpus (default: bundled)")
    p.add_argument("--lexicon", default=None, help="word/abbreviation lexicon TSV (default: bundled)")
    p.add_argument("--out", required=True, help="output TSV raw_name<TAB>labels")

    p = sub.add_parser("relate", parents=[common], help="group related labels and elect canonical forms")
    p.add_argument("--vocab", required=True, help="file with one label per line")
    p.add_argument("--corpus", required=True, help="whitespace-tokenized name corpus for embeddings")
    p.add_argument("--external", default=None, help="optional TSV of known-related label pairs")
    p.add_argument("--out", required=True, help="output TSV label_a<TAB>label_b<TAB>kind")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=50)

    p = sub.add_parser("pretrain-data", parents=[common], help="emit language-model pretraining samples")
    p.add_argument("--input", required=True, help="function-record JSONL")
    p.add_argument("--task", required=True, choices=["infill", "cdi", "dui"])
    p.add_argument("--out", required=True, help="output JSONL of samples")

    p = sub.add_parser("train", parents=[common], help="pretrain and fine-tune on a source-grouped fold")
    p.add_argument("--input", required=True, help="function-record JSONL")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None, help="key=value training config file")
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--ablate", choices=["none", "no-pretrain", "no-similarity"], default="none")
    p.add_argument("--alm-checkpoint", default=None, help="start from a pretrained checkpoint directory")
    p.add_argument("--pretrain-steps", type=int, default=6)
    p.add_argument("--max-steps", type=int, default=None, help="override config max_steps for fine-tuning")
    p.add_argument("--jcs-inverted", action="store_true", help="use the inverted-sign ranking hinge")

    p = sub.add_parser("predict", parents=[common], help="greedy name prediction for each record")
    p.add_argument("--model", required=True, help="checkpoint directory")
    p.add_argument("--input", required=True, help="function-record JSONL")
    p.add_argument("--vocab", default=None, help="name vocabulary TSV (default: stored with the model)")
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--out", required=True, help="output TSV id<TAB>labels")

    p = sub.add_parser("similarity", parents=[common], help="similarity score between two functions")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="function-record JSONL containing both ids")
    p.add_argument("--a", required=True, dest="id_a")
    p.add_argument("--b", required=True, dest="id_b")

    p = sub.add_parser("evaluate", parents=[common], help="word-level P/R/F1 report")
    p.add_argument("--pred", required=True, help="TSV id<TAB>labels")
    p.add_argument("--truth", required=True, help="TSV id<TAB>labels[<TAB>arch<TAB>opt]")
    p.add_argument("--group-by", default=None, help="comma-joined subset of {arch,opt}")
    p.add_argument("--out", default=None, help="write the full JSON report here")
    p.add_argument("--literal-counts", action="store_true", help="count duplicate predictions per the raw indicator sums")
    p.add_argument("--train-vocab", default=None, help="training label vocabulary (one per line) for the OOV ratio")
    p.add_argument("--kl-against", default=None, help="second truth-format TSV for the KL-divergence block")
    p.add_argument("--kl-epsilon", type=float, default=1e-9)

    p = sub.add_parser("gradcheck", parents=[common], help="verify analytic gradients on every loss path")
    p.add_argument("--max-coords", type=int, default=200)
    p.add_argument("--threshold", type=float, default=GRADCHECK_THRESHOLD)

    return parser


def _effective_seed(ns: argparse.Namespace, fallback: int = 0) -> int:
    return fallback if ns.seed is None else ns.seed


# -- handlers -----------------------------------------------------------------

def _cmd_ingest(ns) -> tuple[str, list[str]]:
    records = parse_function_records(ns.input)
    if ns.normalize:
        records = [normalize_record(r) for r in records]
    with open(ns.out, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(record_to_json(rec) + "\n")
    return f"wrote {len(records)} records to {ns.out}", [ns.out]


def _load_pipeline(corpus_path: Optional[str], lexicon_path: Optional[str]):
    corpus = load_corpus(corpus_path) if corpus_path else bundled_corpus()
    lexicon = load_lexicon(lexicon_path) if lexicon_path else bundled_lexicon()
    return build_pipeline(corpus, lexicon)


def _cmd_tokenize(ns) -> tuple[str, list[str]]:
    pipeline = _load_pipeline(ns.corpus, ns.lexicon)
    n = 0
    with open(ns.names, "r", encoding="utf-8") as src, open(ns.out, "w", encoding="utf-8") as dst:
        for raw in src:
            name = raw.strip()
            if not name:
                continue
            labels = preprocess_name(pipeline, name)
            dst.write(f"{name}\t{' '.join(labels)}\n")
            n += 1
    return f"tokenized {n} names to {ns.out}", [ns.out]


def _cmd_relate(ns) -> tuple[str, list[str]]:
    seed = _effective_seed(ns)
    with open(ns.vocab, "r", encoding="utf-8") as fh:
        vocab = [line.strip().lower() for line in fh if line.strip()]
    corpus = load_corpus(ns.corpus)
    external = load_relation_file(ns.external) if ns.external else None
    sg = train_skipgram(corpus, dim=ns.dim, epochs=ns.epochs, seed=seed)
    sw = train_subword_embeddings(corpus, dim=ns.dim, epochs=ns.epochs, seed=seed + 1)
    lex = build_relation_groups(vocab, sg=sg, sw=sw, external=external)
    with open(ns.out, "w", encoding="utf-8") as fh:
        for a, b, kind in lex.relations:
            fh.write(f"{a}\t{b}\t{kind}\n")
        for member in sorted(lex.canonical):
            canon = lex.canonical[member]
            if canon != member:
                fh.write(f"{member}\t{canon}\tcanonical\n")
    groups = len(set(lex.canonical.values()))
    return f"{len(vocab)} labels -> {groups} groups, {len(lex.relations)} relations", [ns.out]


def _cmd_pretrain_data(ns) -> tuple[str, list[str]]:
    records = parse_function_records(ns.input)
    lines = generate_pretrain_lines(records, ns.task, seed=_effective_seed(ns))
    with open(ns.out, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return f"wrote {len(lines)} {ns.task} samples to {ns.out}", [ns.out]


def _write_model_extras(directory, token_vocab, name_vocab, enc_config, train_cfg) -> list[str]:
    paths = []
    for fname, writer in (
        ("token_vocab.txt", lambda p: token_vocab.save(p)),
        ("name_vocab.tsv", lambda p: name_vocab.save(p)),
        ("encoder_config.txt", lambda p: save_encoder_config(enc_config, p)),
        ("train_config.txt", lambda p: save_train_config(train_cfg, p)),
    ):
        path = os.path.join(directory, fname)
        writer(path)
        paths.append(path)
    return paths


def _cmd_train(ns) -> tuple[str, list[str]]:
    cfg = load_train_config(ns.config) if ns.config else TrainConfig()
    if ns.seed is not None:
        cfg = replace(cfg, seed=ns.seed)
    if ns.jcs_inverted:
        cfg = replace(cfg, jcs_variant="inverted")
    if ns.ablate == "no-similarity":
        cfg = replace(cfg, lambda2=0.0)
    enc_config = EncoderConfig.toy() if cfg.toy else EncoderConfig()

    records = parse_function_records(ns.input)
    splits = split_by_source(records, folds=ns.folds, seed=cfg.seed)
    if not 0 <= ns.fold < len(splits):
        raise ValueError(f"fold must be in [0, {len(splits) - 1}]")
    split = splits[ns.fold]
    by_id = {r.id: r for r in records}
    train_records = [by_id[i] for i in split.train]
    valid_records = [by_id[i] for i in split.valid]
    pipeline = _load_pipeline(None, None)
    labels = {r.id: preprocess_name(pipeline, r.name) for r in records}
    train_labels = [labels[r.id] for r in train_records]
    valid_labels = [labels[r.id] for r in valid_records]
    name_vocab = NameVocabulary.build(train_labels)

    artifacts: list[str] = []
    if ns.alm_checkpoint:
        store = load_checkpoint(ns.alm_checkpoint)
        tok_path = os.path.join(ns.alm_checkpoint, "token_vocab.txt")
        if not os.path.exists(tok_path):
            raise ValueError("checkpoint directory lacks token_vocab.txt")
        token_vocab = TokenVocab.load(tok_path)
        if store.values["tok_emb"].shape[0] != len(token_vocab):
            raise ValueError("checkpoint token-embedding shape does not match its vocabulary")
        store.opt_state.clear()
        store.step_count = 0
    else:
        token_vocab = TokenVocab.from_records(train_records)
        store = build_stores(enc_config, len(token_vocab), len(name_vocab), cfg.seed)
        if ns.ablate != "no-pretrain" and ns.pretrain_steps > 0:
            pre = pretrain_alm(
                train_records, valid_records, store, enc_config, token_vocab, cfg,
                os.path.join(ns.out_dir, "pretrain"), max_steps=ns.pretrain_steps,
            )
            for d in pre.checkpoint_dirs.values():
                artifacts.extend(_write_model_extras(d, token_vocab, name_vocab, enc_config, cfg))
            store.opt_state.clear()
            store.step_count = 0

    result = train_multitask(
        train_records, train_labels, valid_records, valid_labels, store,
        enc_config, token_vocab, name_vocab, cfg,
        os.path.join(ns.out_dir, "multitask"), max_steps=ns.max_steps,
    )
    for d in result.checkpoint_dirs.values():
        artifacts.extend(_write_model_extras(d, token_vocab, name_vocab, enc_config, cfg))
        artifacts.append(os.path.join(d, "manifest.txt"))
        artifacts.append(os.path.join(d, "params.bin"))
    best = "n/a" if result.best_f1 is None else f"{result.best_f1:.4f}"
    summary = (
        f"fold {ns.fold}: trained {store.step_count} steps on {len(train_records)} records "
        f"({len(valid_records)} valid); best valid F1 {best}"
    )
    return summary, artifacts


def _load_model(model_dir: str):
    store = load_checkpoint(model_dir)
    enc_config = load_encoder_config(os.path.join(model_dir, "encoder_config.txt"))
    token_vocab = TokenVocab.load(os.path.join(model_dir, "token_vocab.txt"))
    return store, enc_config, token_vocab


def _cmd_predict(ns) -> tuple[str, list[str]]:
    store, enc_config, token_vocab = _load_model(ns.model)
    vocab_path = ns.vocab or os.path.join(ns.model, "name_vocab.tsv")
    name_vocab = NameVocabulary.load(vocab_path)
    records = parse_function_records(ns.input)
    with open(ns.out, "w", encoding="utf-8") as fh:
        for rec in records:
            enc = encode_function(rec, store, enc_config, token_vocab)
            labels = predict_name(enc.emb, store, enc_config, name_vocab, max_len=ns.max_len)
            fh.write(f"{rec.id}\t{' '.join(labels)}\n")
    return f"predicted names for {len(records)} records to {ns.out}", [ns.out]


def _cmd_similarity(ns) -> tuple[str, list[str]]:
    store, enc_config, token_vocab = _load_model(ns.model)
    records = {r.id: r for r in parse_function_records(ns.input)}
    for rid in (ns.id_a, ns.id_b):
        if rid not in records:
            raise ValueError(f"record id {rid!r} not present in {ns.input}")
    tape = ParamTape(store, trainable=False)
    h = [
        similarity_h_tensor(encode_function(records[rid], tape, enc_config, token_vocab).emb)
        for rid in (ns.id_a, ns.id_b)
    ]
    value = score_tensor(h[0], h[1], tape).item()
    return f"score({ns.id_a}, {ns.id_b}) = {value:.6f}", []


def _read_label_tsv(path: str) -> dict[str, dict]:
    rows: dict[str, dict] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            rid = parts[0]
            if rid in rows:
                raise ValueError(f"{path} line {line_no}: duplicate id {rid!r}")
            rows[rid] = {
                "labels": parts[1].split() if len(parts) > 1 else [],
                "arch": parts[2] if len(parts) > 2 else None,
                "opt": parts[3] if len(parts) > 3 else None,
            }
    return rows


def _label_distributions(a: list[str], b: list[str]) -> tuple[np.ndarray, np.ndarray]:
    support = sorted(set(a) | set(b))
    pa = np.array([a.count(l) for l in support], dtype=np.float64)
    pb = np.array([b.count(l) for l in support], dtype=np.float64)
    return pa / pa.sum(), pb / pb.sum()


def _cmd_evaluate(ns) -> tuple[str, list[str]]:
    preds = _read_label_tsv(ns.pred)
    truths = _read_label_tsv(ns.truth)
    unknown = sorted(set(preds) - set(truths))
    if unknown:
        raise ValueError(f"predictions for ids not in the truth file: {', '.join(unknown[:5])}")
    group_keys = [k.strip() for k in ns.group_by.split(",") if k.strip()] if ns.group_by else []
    for key in group_keys:
        if key not in ("arch", "opt"):
            raise ValueError(f"cannot group by {key!r}; choose from arch,opt")

    def counts_block(counts: EvalCounts) -> dict:
        scores = prf(counts)
        return {
            "tp": counts.tp, "fp": counts.fp, "fn": counts.fn,
            "precision": scores.precision, "recall": scores.recall, "f1": scores.f1,
        }

    overall = EvalCounts(0, 0, 0)
    grouped: dict[str, EvalCounts] = {}
    group_sizes: dict[str, int] = {}
    for rid in truths:
        truth_row = truths[rid]
        pred_labels = preds.get(rid, {"labels": []})["labels"]
        c = word_level_counts(pred_labels, truth_row["labels"], literal=ns.literal_counts)
        overall = overall + c
        if group_keys:
            values = []
            for key in group_keys:
                if truth_row[key] is None:
                    raise ValueError(f"truth row {rid!r} lacks the {key!r} column needed for grouping")
                values.append(truth_row[key])
            gkey = "/".join(values)
            grouped[gkey] = grouped.get(gkey, EvalCounts(0, 0, 0)) + c
            group_sizes[gkey] = group_sizes.get(gkey, 0) + 1

    report: dict = {
        "literal_counts": ns.literal_counts,
        "overall": counts_block(overall),
    }
    if group_keys:
        report["groups"] = {k: counts_block(grouped[k]) for k in sorted(grouped)}
        macro_inputs = []
        for k in sorted(grouped):
            scores = prf(grouped[k])
            macro_inputs.append((float(group_sizes[k]), scores.precision, scores.recall, scores.f1))
        macro = weighted_macro(macro_inputs)
        report["weighted_macro"] = {
            "precision": macro.precision, "recall": macro.recall, "f1": macro.f1,
        }
    if ns.train_vocab:
        with open(ns.train_vocab, "r", encoding="utf-8") as fh:
            train_vocab = {line.strip() for line in fh if line.strip()}
        all_truth_labels = [l for row in truths.values() for l in row["labels"]]
        report["oov_ratio"] = oov_ratio(all_truth_labels, train_vocab)
    if ns.kl_against:
        other = _read_label_tsv(ns.kl_against)
        mine = [l for row in truths.values() for l in row["labels"]]
        theirs = [l for row in other.values() for l in row["labels"]]
        p, q = _label_distributions(mine, theirs)
        report["kl"] = {
            "forward": kl_divergence(p, q, epsilon=ns.kl_epsilon),
            "reverse": kl_divergence(q, p, epsilon=ns.kl_epsilon),
        }
    artifacts = []
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        artifacts.append(ns.out)
    o = report["overall"]
    summary = f"P={o['precision']:.4f} R={o['recall']:.4f} F1={o['f1']:.4f} (tp={o['tp']} fp={o['fp']} fn={o['fn']})"
    return summary, artifacts


def _cmd_gradcheck(ns) -> tuple[str, list[str]]:
    store, paths = gradcheck_paths(seed=_effective_seed(ns))
    failures = []
    lines = []
    for name, builder in paths.items():
        err = grad_check(builder, store, max_coords=ns.max_coords, seed=_effective_seed(ns) + 1)
        status = "ok" if err < ns.threshold else "FAIL"
        lines.append(f"{name}: max relative error {err:.3e} [{status}]")
        if err >= ns.threshold:
            failures.append(name)
    print("\n".join(lines))
    if failures:
        raise ValueError(f"gradient check failed for: {', '.join(failures)}")
    return f"all {len(paths)} loss paths below {ns.threshold:g}", []


_HANDLERS: dict[str, Callable] = {
    "ingest": _cmd_ingest,
    "tokenize": _cmd_tokenize,
    "relate": _cmd_relate,
    "pretrain-data": _cmd_pretrain_data,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "similarity": _cmd_similarity,
    "evaluate": _cmd_evaluate,
    "gradcheck": _cmd_gradcheck,
}


def run(argv: list[str]) -> CommandResult:
    """Parse and dispatch; never raises, so callers can inspect the result."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return CommandResult(exit_code=code)
    handler = _HANDLERS[ns.command]
    try:
        summary, artifacts = handler(ns)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return CommandResult(exit_code=code)
    except Exception as exc:  # operational failure -> exit 1 with message
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(exit_code=1, summary=str(exc))
    print(summary)
    return CommandResult(exit_code=0, artifacts_written=artifacts, summary=summary)


def main() -> None:
    sys.exit(run(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()
