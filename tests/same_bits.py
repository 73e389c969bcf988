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

HERE = os.path.dirname(os.path.abspath(__file__))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
