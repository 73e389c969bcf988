"""Digest every output of a fixed same-seed pipeline run, for byte-identity gates.

Usage::

    python tests/same_bits.py --root CHECKOUT_A > a.txt
    python tests/same_bits.py --root CHECKOUT_B > b.txt
    diff a.txt b.txt

``fnpred`` is imported from ``CHECKOUT/src``; the corpus is criterion 11's,
built with this directory's ``conftest`` helpers, so both runs read the same
input.  In a temporary directory the script runs ``train --seed 7`` with
criterion 11's config, ``predict`` with ``multitask/final``, and
``pretrain-data --seed 7`` for ``infill``, ``cdi`` and ``dui``.  That model
ends every name at EOS, so a second ``predict``, at ``--max-len 3``, uses a
copy of it whose EOS output bias is lowered by 100: there every function
stops at the length cap instead.  It then
passes ``multitask/final`` through ``load_checkpoint`` and ``save_checkpoint``
into ``roundtrip/``, so the checkpoint reader and writer are covered too.  It
prints one ``sha256  name`` line per output file and, for every checkpoint,
one ``sha256  <dir>/<entry>`` line per manifest entry (``param/...``,
``opt/...``, ``meta/...``), sorted by name, then one line for the output of
``fnpred gradcheck`` at its defaults.  An entry's digest covers its shape
and its bytes but not its offset, so an entry keeps its line when entries
before it are added or dropped.  A failed command exits 1.

Those runs use ``EncoderConfig.toy()``, whose dropout is 0, so the script
also digests the training passes with dropout 0.1 on a fresh
``build_stores`` store, at two 2-layer configs: ``toy``
(``EncoderConfig.toy(dropout=0.1, n_layers=2)``) and ``default``
(``EncoderConfig(n_layers=2)``).  The passes are ``encode_function`` +
``name_loss``, and ``alm_losses`` on an infill and a CDI batch, each with
``training=True`` and a seeded generator.  Each prints one
``dropout/<config>/<pass>/loss`` line and one line per ``tape.grads()``
entry.  At the same configs, one line digests every step's live indices
and logits from ``predict_names``'s ``logits_sink`` on four encodings, and
one the ``decode_step_probs`` oracle on a 3-id prefix.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest(array) -> str:
    array = np.ascontiguousarray(array, dtype=np.float64)
    return hashlib.sha256(f"{array.shape}\n".encode("utf-8") + array.tobytes()).hexdigest()


def _dropout_lines(records) -> list[str]:
    """Digest lines of the dropout-on training passes and of decoding, at both 2-layer configs."""
    from fnpred.encoder import EncoderConfig, TokenVocab, alm_losses, encode_function
    from fnpred.params import ParamTape
    from fnpred.pretrain import task_samples
    from fnpred.tasks import NAME_BOS, NameVocabulary, decode_step_probs, name_loss, predict_names
    from fnpred.trainer import build_stores

    vocab = TokenVocab.from_records(records)
    labels = [rec.name.split("_") for rec in records]
    name_vocab = NameVocabulary.build(labels)
    infill = [s for i in range(4) for s in task_samples(records[i], "infill", 20 + i, mask_ratio=0.3)]
    cdi = task_samples(records[0], "cdi", 3, w=2, negatives_per_positive=1)[:4]

    def name_pass(tape, rng):
        emb = encode_function(records[1], tape, config, vocab, training=True, rng=rng).emb
        return name_loss(emb, name_vocab.encode(labels[1]), tape, config, training=True, rng=rng)

    passes = {
        "encode_function+name_loss": name_pass,
        "alm_losses.infill": lambda tape, rng: alm_losses(infill, tape, config, vocab, training=True, rng=rng),
        "alm_losses.cdi": lambda tape, rng: alm_losses(cdi, tape, config, vocab, training=True, rng=rng),
    }
    lines = []
    for size, config in (("toy", EncoderConfig.toy(dropout=0.1, n_layers=2)), ("default", EncoderConfig(n_layers=2))):
        store = build_stores(config, len(vocab), len(name_vocab), seed=5)
        for seed, (name, build) in enumerate(passes.items()):
            tape = ParamTape(store)
            loss = build(tape, np.random.default_rng(100 + seed))
            loss.backward()
            lines.append(f"{_digest(loss.data)}  dropout/{size}/{name}/loss")
            lines += [f"{_digest(g)}  dropout/{size}/{name}/{param}" for param, g in sorted(tape.grads().items())]
        embs = [encode_function(rec, store, config, vocab).emb for rec in records[:4]]
        sink: list = []
        predict_names(embs, store, config, name_vocab, logits_sink=sink)
        steps = np.concatenate([np.column_stack([live, logits]) for live, logits in sink])
        lines.append(f"{_digest(steps)}  dropout/{size}/predict_names")
        probs = decode_step_probs(embs[0], [NAME_BOS, 4, 5], store, config)
        lines.append(f"{_digest(probs)}  dropout/{size}/decode_step_probs")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--root", required=True, help="checkout whose src/ provides fnpred")
    root = os.path.abspath(parser.parse_args(argv).root)
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    import fnpred
    from conftest import checkpoint_entries, defuse_chain_record, make_dataset, write_jsonl
    from fnpred.cli import run
    from fnpred.params import load_checkpoint, save_checkpoint
    from fnpred.tasks import NAME_EOS

    if not os.path.abspath(fnpred.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"fnpred was imported from {fnpred.__file__}, not from {root}/src", file=sys.stderr)
        return 1

    def call(args: list[str]) -> str:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            result = run(args)
        if result.exit_code != 0:
            raise SystemExit(f"fnpred {args[0]} exited {result.exit_code}: {result.summary}")
        return captured.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        records = make_dataset(n_sources=10)
        for i, name in enumerate(["chain_alpha", "chain_beta", "chain_gamma"]):
            records.append(defuse_chain_record(7 + i, rec_id=f"du{i}", name=name, source_id=f"duS{i}"))
        data = write_jsonl(records, os.path.join(tmp, "corpus.jsonl"))
        cfg = os.path.join(tmp, "train.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("batch_size=2\nmax_steps=10\nlr=0.001\n")
        out = os.path.join(tmp, "out")
        os.makedirs(out)
        call(["train", "--input", data, "--out-dir", os.path.join(out, "train"), "--config", cfg, "--seed", "7"])
        model = os.path.join(out, "train", "multitask", "final")
        call(["predict", "--model", model, "--input", data, "--out", os.path.join(out, "predict.tsv")])
        no_eos = os.path.join(tmp, "no-eos")
        store = load_checkpoint(model)
        store.values["out_proj.b"][NAME_EOS] -= 100.0
        save_checkpoint(store, no_eos)
        for extra in ("encoder_config.txt", "token_vocab.txt", "name_vocab.tsv"):
            shutil.copy(os.path.join(model, extra), no_eos)
        call(["predict", "--model", no_eos, "--input", data, "--max-len", "3",
              "--out", os.path.join(out, "predict.no-eos.max-len-3.tsv")])
        for task in ("infill", "cdi", "dui"):
            call(["pretrain-data", "--input", data, "--task", task, "--seed", "7",
                  "--out", os.path.join(out, f"pretrain-data.{task}.jsonl")])
        final = load_checkpoint(os.path.join(out, "train", "multitask", "final"))
        save_checkpoint(final, os.path.join(out, "roundtrip"))
        lines = []
        for dirpath, _, filenames in os.walk(out):
            for filename in filenames:
                path = os.path.join(dirpath, filename)
                lines.append(f"{_sha256(path)}  {os.path.relpath(path, out)}")
            if "manifest.txt" in filenames:
                for name, (shape, _, data) in checkpoint_entries(dirpath).items():
                    digest = hashlib.sha256(f"{shape}\n".encode("utf-8") + data).hexdigest()
                    lines.append(f"{digest}  {os.path.relpath(dirpath, out)}/{name}")
        gradcheck = call(["gradcheck"]).encode("utf-8")
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    print(f"{hashlib.sha256(gradcheck).hexdigest()}  gradcheck (stdout)")
    print("\n".join(_dropout_lines(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
