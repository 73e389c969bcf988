"""End-to-end tests for the command-line pipeline."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import fnpred
from conftest import checkpoint_entries, checkpoint_meta, defuse_chain_record, make_dataset, write_jsonl
from fnpred import trainer
from fnpred.cli import run
from fnpred.encoder import EncoderConfig, TokenVocab, init_encoder_params
from fnpred.params import ParamStore, load_checkpoint
from fnpred.tasks import NameVocabulary

ALL_COMMANDS = [
    "ingest", "tokenize", "relate", "pretrain-data", "train",
    "predict", "similarity", "evaluate", "gradcheck",
]


def cli_records():
    """Name-prediction corpus plus def-use chains so every pretrain task has data."""
    records = make_dataset(n_sources=10)
    for i, name in enumerate(["chain_alpha", "chain_beta", "chain_gamma"]):
        records.append(
            defuse_chain_record(7 + i, rec_id=f"du{i}", name=name, source_id=f"duS{i}")
        )
    return records


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def corpus_jsonl(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    return write_jsonl(cli_records(), root / "corpus.jsonl")


@pytest.fixture(scope="module")
def small_train_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_cfg") / "train.cfg"
    path.write_text("batch_size=1\nmax_steps=2\nlr=0.001\nseed=3\neval_every=50\n")
    return str(path)


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, corpus_jsonl, small_train_cfg):
    """One tiny end-to-end training run shared by predict/similarity tests."""
    out_dir = tmp_path_factory.mktemp("cli_run")
    result = run([
        "train", "--input", corpus_jsonl, "--out-dir", str(out_dir),
        "--config", small_train_cfg, "--pretrain-steps", "2",
    ])
    assert result.exit_code == 0, result.summary
    return {"out_dir": str(out_dir), "model": os.path.join(str(out_dir), "multitask", "final"),
            "result": result}


def checkpoint_reads(monkeypatch) -> list[tuple[int, int]]:
    """Record the (offset, byte count) of every array read from a checkpoint payload."""
    reads: list[tuple[int, int]] = []
    real = np.fromfile

    def spy(fh, *args, **kwargs):
        reads.append((fh.tell(), 8 * kwargs["count"]))
        return real(fh, *args, **kwargs)

    monkeypatch.setattr(np, "fromfile", spy)
    return reads


def entries_read(checkpoint: str, reads: list[tuple[int, int]]) -> set[str]:
    """The manifest entries that ``reads`` covered, each read exactly once and whole."""
    by_offset = {offset: (name, len(data)) for name, (_, offset, data) in checkpoint_entries(checkpoint).items()}
    names = [by_offset[offset][0] for offset, nbytes in reads if by_offset.get(offset, (None, -1))[1] == nbytes]
    assert len(names) == len(reads) == len(set(names)), "a read that is not one whole manifest entry"
    return set(names)


class TestParsingAndHelp:
    def test_help_exits_zero(self):
        assert run(["--help"]).exit_code == 0

    def test_missing_command_is_usage_error(self):
        assert run([]).exit_code == 2

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]).exit_code == 2

    def test_jobs_option_removed(self, tmp_path):
        inp = write_jsonl(make_dataset(n_sources=1), tmp_path / "in.jsonl")
        argv = ["ingest", "--jobs", "2", "--input", str(inp), "--out", str(tmp_path / "out.jsonl")]
        assert run(argv).exit_code == 2

    def test_help_lists_every_subcommand(self, capsys):
        run(["--help"])
        out = capsys.readouterr().out
        for command in ALL_COMMANDS:
            assert command in out

    def test_module_entry_point(self):
        # The child imports the same package as this test, also when pytest
        # found it through its own ``pythonpath`` setting.
        src = os.path.dirname(os.path.dirname(fnpred.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "fnpred.cli", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "COMMAND" in proc.stdout


class TestIngestCommand:
    def test_roundtrip_writes_all_records(self, tmp_path):
        inp = write_jsonl(make_dataset(n_sources=3), tmp_path / "in.jsonl")
        out = str(tmp_path / "out.jsonl")
        result = run(["ingest", "--input", inp, "--out", out])
        assert result.exit_code == 0
        assert result.artifacts_written == [out]
        lines = [json.loads(l) for l in open(out, encoding="utf-8")]
        assert len(lines) == 6
        assert all({"id", "name", "source_id", "instructions"} <= set(l) for l in lines)

    def test_input_never_mutated(self, tmp_path):
        inp = write_jsonl(make_dataset(n_sources=2), tmp_path / "in.jsonl")
        before = read_bytes(inp)
        run(["ingest", "--input", inp, "--out", str(tmp_path / "out.jsonl")])
        assert read_bytes(inp) == before

    def test_normalize_is_idempotent_at_file_level(self, tmp_path):
        inp = write_jsonl(make_dataset(n_sources=3), tmp_path / "in.jsonl")
        out1 = str(tmp_path / "norm1.jsonl")
        out2 = str(tmp_path / "norm2.jsonl")
        assert run(["ingest", "--input", inp, "--out", out1, "--normalize"]).exit_code == 0
        assert run(["ingest", "--input", out1, "--out", out2, "--normalize"]).exit_code == 0
        assert read_bytes(out1) == read_bytes(out2)

    def test_malformed_input_fails_cleanly(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        out = tmp_path / "out.jsonl"
        result = run(["ingest", "--input", str(bad), "--out", str(out)])
        assert result.exit_code == 1
        assert result.summary
        assert not out.exists()


class TestTokenizeCommand:
    def test_tsv_format_and_splits(self, tmp_path):
        names = tmp_path / "names.txt"
        names.write_text("timeset\nget_user_name\n\n")
        out = str(tmp_path / "labels.tsv")
        result = run(["tokenize", "--names", str(names), "--out", out])
        assert result.exit_code == 0
        rows = [l.rstrip("\n").split("\t") for l in open(out, encoding="utf-8")]
        assert len(rows) == 2  # the blank line is skipped
        assert rows[0] == ["timeset", "time set"]
        assert rows[1][0] == "get_user_name"
        assert "get" in rows[1][1].split()

    def test_rerun_byte_identical(self, tmp_path):
        names = tmp_path / "names.txt"
        names.write_text("mallocbuf\nsettime\n")
        out1, out2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        run(["tokenize", "--names", str(names), "--out", out1])
        run(["tokenize", "--names", str(names), "--out", out2])
        assert read_bytes(out1) == read_bytes(out2)


class TestRelateCommand:
    @pytest.fixture
    def relate_inputs(self, tmp_path):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("set\nget\ntime\ntimer\n")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("set time\nget time\nset timer\nget timer\n" * 5)
        return str(vocab), str(corpus)

    def test_rows_are_three_column_relations(self, tmp_path, relate_inputs):
        vocab, corpus = relate_inputs
        out = str(tmp_path / "relations.tsv")
        result = run(["relate", "--vocab", vocab, "--corpus", corpus,
                      "--out", out, "--dim", "8", "--epochs", "5", "--seed", "1"])
        assert result.exit_code == 0
        assert result.artifacts_written == [out]
        for line in open(out, encoding="utf-8"):
            a, b, kind = line.rstrip("\n").split("\t")
            assert kind in {"synonym", "abbreviation", "canonical"}
            assert a != b

    def test_rerun_byte_identical(self, tmp_path, relate_inputs):
        vocab, corpus = relate_inputs
        out1, out2 = str(tmp_path / "r1.tsv"), str(tmp_path / "r2.tsv")
        for out in (out1, out2):
            assert run(["relate", "--vocab", vocab, "--corpus", corpus,
                        "--out", out, "--dim", "8", "--epochs", "5", "--seed", "1"]).exit_code == 0
        assert read_bytes(out1) == read_bytes(out2)


class TestPretrainDataCommand:
    @pytest.mark.parametrize("task", ["infill", "cdi", "dui"])
    def test_emits_json_lines(self, tmp_path, corpus_jsonl, task):
        out = str(tmp_path / f"{task}.jsonl")
        result = run(["pretrain-data", "--input", corpus_jsonl, "--task", task,
                      "--out", out, "--seed", "4"])
        assert result.exit_code == 0
        lines = [json.loads(l) for l in open(out, encoding="utf-8")]
        assert lines, f"no {task} samples emitted"
        assert all(isinstance(l, dict) for l in lines)

    def test_rerun_byte_identical_and_seed_sensitive(self, tmp_path, corpus_jsonl):
        outs = [str(tmp_path / f"infill{i}.jsonl") for i in range(3)]
        run(["pretrain-data", "--input", corpus_jsonl, "--task", "infill", "--out", outs[0], "--seed", "4"])
        run(["pretrain-data", "--input", corpus_jsonl, "--task", "infill", "--out", outs[1], "--seed", "4"])
        run(["pretrain-data", "--input", corpus_jsonl, "--task", "infill", "--out", outs[2], "--seed", "5"])
        assert read_bytes(outs[0]) == read_bytes(outs[1])
        assert read_bytes(outs[0]) != read_bytes(outs[2])

    def test_dui_without_flow_yields_empty_file(self, tmp_path):
        inp = write_jsonl(make_dataset(n_sources=2), tmp_path / "flat.jsonl")
        out = tmp_path / "dui.jsonl"
        result = run(["pretrain-data", "--input", inp, "--task", "dui", "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text() == ""

    def test_unknown_task_is_usage_error(self, tmp_path, corpus_jsonl):
        result = run(["pretrain-data", "--input", corpus_jsonl, "--task", "mlm",
                      "--out", str(tmp_path / "x.jsonl")])
        assert result.exit_code == 2


class TestTrainCommand:
    def test_end_to_end_writes_model_files(self, trained_model):
        result = trained_model["result"]
        assert result.summary.startswith("fold 0:")
        model = trained_model["model"]
        for fname in ("params.bin", "manifest.txt", "token_vocab.txt",
                      "name_vocab.tsv", "encoder_config.txt", "train_config.txt"):
            assert os.path.isfile(os.path.join(model, fname)), fname
        assert os.path.isdir(os.path.join(trained_model["out_dir"], "pretrain", "final"))
        assert any(p.endswith("params.bin") for p in result.artifacts_written)

    def test_rerun_is_bit_identical(self, tmp_path, corpus_jsonl, small_train_cfg):
        dirs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
        for d in dirs:
            result = run(["train", "--input", corpus_jsonl, "--out-dir", d,
                          "--config", small_train_cfg, "--pretrain-steps", "2"])
            assert result.exit_code == 0, result.summary
        for fname in ("params.bin", "manifest.txt", "token_vocab.txt", "name_vocab.tsv"):
            a = read_bytes(os.path.join(dirs[0], "multitask", "final", fname))
            b = read_bytes(os.path.join(dirs[1], "multitask", "final", fname))
            assert a == b, fname

    def test_no_pretrain_ablation_skips_pretrain_stage(self, tmp_path, corpus_jsonl, small_train_cfg):
        out_dir = str(tmp_path / "run")
        result = run(["train", "--input", corpus_jsonl, "--out-dir", out_dir,
                      "--config", small_train_cfg, "--ablate", "no-pretrain"])
        assert result.exit_code == 0, result.summary
        assert not os.path.exists(os.path.join(out_dir, "pretrain"))

    def test_no_pretrain_ablation_rejects_a_pretrained_checkpoint(self, tmp_path, corpus_jsonl,
                                                                  small_train_cfg, trained_model):
        out_dir = str(tmp_path / "run")
        result = run(["train", "--input", corpus_jsonl, "--out-dir", out_dir,
                      "--config", small_train_cfg, "--ablate", "no-pretrain", "--alm-checkpoint",
                      os.path.join(trained_model["out_dir"], "pretrain", "final")])
        assert result.exit_code == 1
        assert "--ablate no-pretrain" in result.summary and "--alm-checkpoint" in result.summary
        assert not os.path.exists(os.path.join(out_dir, "multitask"))

    @pytest.mark.parametrize("extra", [["--jcs-inverted"], ["--ablate", "no-similarity"]])
    def test_variant_flags_accepted(self, tmp_path, corpus_jsonl, small_train_cfg, extra):
        result = run(["train", "--input", corpus_jsonl, "--out-dir", str(tmp_path / "run"),
                      "--config", small_train_cfg, "--pretrain-steps", "0",
                      "--max-steps", "1", *extra])
        assert result.exit_code == 0, result.summary

    def test_out_of_range_fold_rejected(self, tmp_path, corpus_jsonl, small_train_cfg):
        result = run(["train", "--input", corpus_jsonl, "--out-dir", str(tmp_path / "run"),
                      "--config", small_train_cfg, "--fold", "7"])
        assert result.exit_code == 1
        assert "fold must be in" in result.summary

    def test_bad_config_key_rejected(self, tmp_path, corpus_jsonl):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        result = run(["train", "--input", corpus_jsonl, "--out-dir", str(tmp_path / "run"),
                      "--config", str(cfg)])
        assert result.exit_code == 1
        assert "unknown key" in result.summary

    def test_bad_fine_tuning_setting_rejected_before_pretraining(self, tmp_path, corpus_jsonl):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("batch_size=2\nmax_steps=10\nm_cs=0\n")
        out_dir = tmp_path / "run"
        result = run(["train", "--input", corpus_jsonl, "--out-dir", str(out_dir),
                      "--config", str(cfg), "--pretrain-steps", "2"])
        assert result.exit_code == 1
        assert "config line 3: m_cs must be positive" in result.summary
        assert not os.path.exists(out_dir / "pretrain")

    def test_fine_tuning_keeps_its_own_best_evaluation(self, tmp_path, corpus_jsonl):
        # Both stages evaluate after every step.  Fine-tuning starts from a
        # reset run state, so its best is an F1 at a fine-tuning step, never
        # pretraining's negated validation loss.
        cfg = tmp_path / "train.cfg"
        cfg.write_text("batch_size=1\nmax_steps=3\nlr=0.001\nseed=3\neval_every=1\n")
        base = ["train", "--input", corpus_jsonl, "--config", str(cfg), "--pretrain-steps", "4"]
        out = tmp_path / "run"
        result = run([*base, "--out-dir", str(out)])
        assert result.exit_code == 0, result.summary
        assert checkpoint_meta(out / "pretrain" / "best")["meta/best_score"] < 0.0
        best = checkpoint_meta(out / "multitask" / "best")
        assert best["meta/best_step"] in (1.0, 2.0, 3.0)
        assert 0.0 <= best["meta/best_score"] <= 1.0
        final = checkpoint_meta(out / "multitask" / "final")
        assert final == {**best, "meta/step": 3.0}
        assert f"best valid F1 {best['meta/best_score']:.4f}" in result.summary
        # With no fine-tuning step, nothing of pretraining's best is carried over.
        out = tmp_path / "no-steps"
        result = run([*base, "--out-dir", str(out), "--max-steps", "0"])
        assert result.exit_code == 0, result.summary
        assert checkpoint_meta(out / "multitask" / "final") == {"meta/step": 0.0}
        assert not os.path.exists(out / "multitask" / "best")
        assert "best valid F1 n/a" in result.summary

    def test_warm_start_from_own_pretraining_matches_one_run(self, tmp_path, corpus_jsonl):
        # Pretraining never moves the task group, so a warm start from the
        # pretrain checkpoint holds the same state as the run that wrote it.
        cfg = tmp_path / "train.cfg"
        cfg.write_text("batch_size=2\nmax_steps=10\nlr=0.001\n")
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        base = ["train", "--input", corpus_jsonl, "--config", str(cfg), "--seed", "7"]
        assert run([*base, "--out-dir", first]).exit_code == 0
        result = run([*base, "--out-dir", second,
                      "--alm-checkpoint", os.path.join(first, "pretrain", "final")])
        assert result.exit_code == 0, result.summary
        assert not os.path.exists(os.path.join(second, "pretrain"))
        for fname in ("params.bin", "manifest.txt"):
            a = read_bytes(os.path.join(first, "multitask", "final", fname))
            b = read_bytes(os.path.join(second, "multitask", "final", fname))
            assert a == b, fname

    def test_warm_start_on_a_corpus_with_more_names(self, tmp_path, corpus_jsonl, small_train_cfg, monkeypatch):
        first = str(tmp_path / "first")
        assert run(["train", "--input", corpus_jsonl, "--out-dir", first, "--config", small_train_cfg,
                    "--pretrain-steps", "2", "--max-steps", "0"]).exit_code == 0
        checkpoint = os.path.join(first, "pretrain", "final")
        larger = write_jsonl(make_dataset(n_sources=14), tmp_path / "larger.jsonl")
        second = str(tmp_path / "second")
        reads = checkpoint_reads(monkeypatch)
        result = run(["train", "--input", larger, "--out-dir", second, "--config", small_train_cfg,
                      "--alm-checkpoint", checkpoint, "--max-steps", "0"])
        assert result.exit_code == 0, result.summary
        read = entries_read(checkpoint, reads)
        monkeypatch.undo()
        model = os.path.join(second, "multitask", "final")
        old_names = NameVocabulary.load(os.path.join(checkpoint, "name_vocab.tsv"))
        new_names = NameVocabulary.load(os.path.join(model, "name_vocab.tsv"))
        assert len(new_names) > len(old_names)
        saved, final = load_checkpoint(checkpoint), load_checkpoint(model)
        token_vocab = TokenVocab.load(os.path.join(checkpoint, "token_vocab.txt"))
        encoder_group = ParamStore()
        init_encoder_params(encoder_group, EncoderConfig.toy(), len(token_vocab))
        for name in encoder_group.values:
            assert np.array_equal(final.values[name], saved.values[name]), name
        assert read == {f"param/{name}" for name in encoder_group.values}  # the encoder group only
        assert final.values["name_emb"].shape[0] == len(new_names)
        assert final.values["out_proj.w"].shape[1] == len(new_names)
        assert final.values["out_proj.b"].shape == (len(new_names),)

    def test_warm_start_rejects_a_mismatched_encoder(self, tmp_path, corpus_jsonl, small_train_cfg):
        first = str(tmp_path / "first")
        assert run(["train", "--input", corpus_jsonl, "--out-dir", first, "--config", small_train_cfg,
                    "--pretrain-steps", "1", "--max-steps", "0"]).exit_code == 0
        cfg = tmp_path / "default_size.cfg"
        cfg.write_text("toy=false\nbatch_size=1\n")
        result = run(["train", "--input", corpus_jsonl, "--out-dir", str(tmp_path / "second"),
                      "--config", str(cfg), "--max-steps", "0",
                      "--alm-checkpoint", os.path.join(first, "pretrain", "final")])
        assert result.exit_code == 1
        assert "'tok_emb'" in result.summary

    def test_empty_operand_token_survives_train_then_predict(self, tmp_path, small_train_cfg):
        records = cli_records()
        for rec in records:
            rec.instructions[1].operands.append("")
        inp = write_jsonl(records, tmp_path / "data.jsonl")
        out_dir = str(tmp_path / "run")
        result = run(["train", "--input", inp, "--out-dir", out_dir,
                      "--config", small_train_cfg, "--ablate", "no-pretrain"])
        assert result.exit_code == 0, result.summary
        model = os.path.join(out_dir, "multitask", "final")
        token_vocab = TokenVocab.load(os.path.join(model, "token_vocab.txt"))
        assert "" in token_vocab.label_to_id
        assert len(token_vocab) == load_checkpoint(model).values["tok_emb"].shape[0]
        out = tmp_path / "p.tsv"
        result = run(["predict", "--model", model, "--input", inp, "--out", str(out)])
        assert result.exit_code == 0, result.summary
        assert len(out.read_text(encoding="utf-8").splitlines()) == len(records)

    def test_input_never_mutated(self, tmp_path, small_train_cfg):
        inp = write_jsonl(cli_records(), tmp_path / "data.jsonl")
        before = read_bytes(inp)
        result = run(["train", "--input", inp, "--out-dir", str(tmp_path / "run"),
                      "--config", small_train_cfg, "--pretrain-steps", "0", "--max-steps", "1"])
        assert result.exit_code == 0, result.summary
        assert read_bytes(inp) == before


class TestPredictCommand:
    def test_predictions_cover_every_record(self, tmp_path, corpus_jsonl, trained_model):
        out = str(tmp_path / "preds.tsv")
        result = run(["predict", "--model", trained_model["model"],
                      "--input", corpus_jsonl, "--out", out])
        assert result.exit_code == 0, result.summary
        rows = [l.rstrip("\n").split("\t") for l in open(out, encoding="utf-8")]
        input_ids = [json.loads(l)["id"] for l in open(corpus_jsonl, encoding="utf-8")]
        assert [r[0] for r in rows] == input_ids
        vocab_labels = {
            line.split("\t")[0]
            for line in open(os.path.join(trained_model["model"], "name_vocab.tsv"), encoding="utf-8")
        }
        for row in rows:
            predicted = row[1].split() if len(row) > 1 else []
            assert set(predicted) <= vocab_labels

    def test_rerun_byte_identical(self, tmp_path, corpus_jsonl, trained_model):
        out1, out2 = str(tmp_path / "p1.tsv"), str(tmp_path / "p2.tsv")
        for out in (out1, out2):
            assert run(["predict", "--model", trained_model["model"],
                        "--input", corpus_jsonl, "--out", out]).exit_code == 0
        assert read_bytes(out1) == read_bytes(out2)

    def test_missing_model_directory_rejected(self, tmp_path, corpus_jsonl):
        result = run(["predict", "--model", str(tmp_path / "nope"),
                      "--input", corpus_jsonl, "--out", str(tmp_path / "p.tsv")])
        assert result.exit_code == 1

    @pytest.mark.parametrize("extra", [-4, 3])
    def test_vocabulary_of_another_size_rejected_before_writing(self, tmp_path, corpus_jsonl, trained_model, extra):
        model = trained_model["model"]
        outputs = load_checkpoint(model).values["out_proj.w"].shape[1]
        labels = NameVocabulary.load(os.path.join(model, "name_vocab.tsv")).id_to_label
        size = outputs + extra
        other = labels[:size] + [f"extra{i}" for i in range(size - len(labels))]
        vocab_path = str(tmp_path / "other_vocab.tsv")
        NameVocabulary(other).save(vocab_path)
        out = tmp_path / "p.tsv"
        result = run(["predict", "--model", model, "--input", corpus_jsonl,
                      "--vocab", vocab_path, "--out", str(out)])
        assert result.exit_code == 1
        assert f"has {size} labels" in result.summary
        assert f"has {outputs} columns" in result.summary
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "similarity"])
    def test_token_vocabulary_of_another_size_rejected_before_writing(self, tmp_path, corpus_jsonl,
                                                                      trained_model, command):
        model = str(tmp_path / "model")
        shutil.copytree(trained_model["model"], model)
        vocab_path = os.path.join(model, "token_vocab.txt")
        lines = open(vocab_path, encoding="utf-8").readlines()
        with open(vocab_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])
        rows = load_checkpoint(model).values["tok_emb"].shape[0]
        out = tmp_path / "p.tsv"
        args = (["predict", "--out", str(out)] if command == "predict"
                else ["similarity", "--a", "fn000_O0", "--b", "fn000_O2"])
        result = run([*args, "--model", model, "--input", corpus_jsonl])
        assert result.exit_code == 1
        assert f"has {rows - 1} tokens" in result.summary
        assert f"has {rows} rows" in result.summary
        assert not out.exists()

    @pytest.mark.parametrize("max_len", ["0", "-1"])
    def test_max_len_below_one_rejected_before_writing(self, tmp_path, corpus_jsonl, trained_model, max_len):
        out = tmp_path / "p.tsv"
        result = run(["predict", "--model", trained_model["model"], "--input", corpus_jsonl,
                      "--max-len", max_len, "--out", str(out)])
        assert result.exit_code == 1
        assert "--max-len" in result.summary
        assert not out.exists()

    def test_failed_decode_leaves_no_output(self, tmp_path, corpus_jsonl, trained_model, monkeypatch):
        calls = []

        def fail_second_group(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("decoder failed")
            return real(*args, **kwargs)

        real = trainer.predict_names
        monkeypatch.setattr(trainer, "DECODE_GROUP", 4)
        monkeypatch.setattr(trainer, "predict_names", fail_second_group)
        out = tmp_path / "p.tsv"
        result = run(["predict", "--model", trained_model["model"], "--input", corpus_jsonl, "--out", str(out)])
        assert result.exit_code == 1 and "decoder failed" in result.summary
        assert not out.exists()


    @pytest.mark.parametrize("command", ["predict", "similarity"])
    def test_reads_no_optimizer_moments(self, tmp_path, corpus_jsonl, trained_model, monkeypatch, command):
        model = trained_model["model"]
        manifest = open(os.path.join(model, "manifest.txt"), encoding="utf-8").read()
        names = [line.split("\t")[0] for line in manifest.splitlines()]
        assert any(n.startswith("opt/") for n in names)  # the checkpoint carries moments
        reads = checkpoint_reads(monkeypatch)
        args = (["predict", "--out", str(tmp_path / "p.tsv")] if command == "predict"
                else ["similarity", "--a", "fn000_O0", "--b", "fn000_O2"])
        result = run([*args, "--model", model, "--input", corpus_jsonl])
        assert result.exit_code == 0, result.summary
        assert entries_read(model, reads) == {n for n in names if n.startswith("param/")}


class TestSimilarityCommand:
    def test_score_printed_and_bounded(self, corpus_jsonl, trained_model):
        result = run(["similarity", "--model", trained_model["model"],
                      "--input", corpus_jsonl, "--a", "fn000_O0", "--b", "fn000_O2"])
        assert result.exit_code == 0, result.summary
        match = re.fullmatch(r"score\(fn000_O0, fn000_O2\) = (-?\d+\.\d{6})", result.summary)
        assert match, result.summary
        assert -1.0 <= float(match.group(1)) <= 1.0
        assert result.artifacts_written == []

    def test_score_deterministic_across_runs(self, corpus_jsonl, trained_model):
        # The two arguments feed distinct projections, so the score is
        # order-sensitive; reruns of the same ordered pair must agree exactly.
        def value(a, b):
            res = run(["similarity", "--model", trained_model["model"],
                       "--input", corpus_jsonl, "--a", a, "--b", b])
            assert res.exit_code == 0
            return res.summary.split("=")[1].strip()

        assert value("fn001_O0", "fn002_O2") == value("fn001_O0", "fn002_O2")

    def test_unknown_record_id_rejected(self, corpus_jsonl, trained_model):
        result = run(["similarity", "--model", trained_model["model"],
                      "--input", corpus_jsonl, "--a", "fn000_O0", "--b", "ghost"])
        assert result.exit_code == 1
        assert "not present" in result.summary


class TestEvaluateCommand:
    @pytest.fixture
    def eval_files(self, tmp_path):
        truth = tmp_path / "truth.tsv"
        truth.write_text("f1\tfind attrs\tx86\tO0\nf2\tset time\tarm\tO2\n")
        pred = tmp_path / "pred.tsv"
        pred.write_text("f1\tget attrs\nf2\tset time\n")
        return str(pred), str(truth)

    def test_overall_scores_in_summary(self, eval_files):
        pred, truth = eval_files
        result = run(["evaluate", "--pred", pred, "--truth", truth])
        assert result.exit_code == 0
        # f1: tp=1 fp=1 fn=1; f2: tp=2 -> P = R = 3/4.
        assert "P=0.7500 R=0.7500 F1=0.7500" in result.summary

    def test_perfect_predictions_score_one(self, tmp_path):
        truth = tmp_path / "t.tsv"
        truth.write_text("f1\tset time\n")
        pred = tmp_path / "p.tsv"
        pred.write_text("f1\tset time\n")
        result = run(["evaluate", "--pred", str(pred), "--truth", str(truth)])
        assert "P=1.0000 R=1.0000 F1=1.0000" in result.summary

    def test_grouped_json_report(self, tmp_path, eval_files):
        pred, truth = eval_files
        out = str(tmp_path / "report.json")
        result = run(["evaluate", "--pred", pred, "--truth", truth,
                      "--group-by", "arch,opt", "--out", out])
        assert result.exit_code == 0
        assert result.artifacts_written == [out]
        report = json.load(open(out, encoding="utf-8"))
        assert set(report["groups"]) == {"x86/O0", "arm/O2"}
        assert report["groups"]["x86/O0"]["f1"] == pytest.approx(0.5)
        assert report["groups"]["arm/O2"]["f1"] == pytest.approx(1.0)
        assert report["weighted_macro"]["f1"] == pytest.approx(0.75)

    def test_oov_and_kl_blocks(self, tmp_path, eval_files):
        pred, truth = eval_files
        vocab = tmp_path / "train_vocab.txt"
        vocab.write_text("find\nattrs\nset\n")
        out = str(tmp_path / "report.json")
        result = run(["evaluate", "--pred", pred, "--truth", truth,
                      "--train-vocab", str(vocab), "--kl-against", truth, "--out", out])
        assert result.exit_code == 0
        report = json.load(open(out, encoding="utf-8"))
        assert report["oov_ratio"] == pytest.approx(0.25)  # 'time' is the one OOV label
        assert report["kl"]["forward"] == pytest.approx(0.0, abs=1e-12)
        assert report["kl"]["reverse"] == pytest.approx(0.0, abs=1e-12)

    def test_report_rerun_byte_identical(self, tmp_path, eval_files):
        pred, truth = eval_files
        outs = [str(tmp_path / f"r{i}.json") for i in range(2)]
        for out in outs:
            run(["evaluate", "--pred", pred, "--truth", truth, "--group-by", "arch", "--out", out])
        assert read_bytes(outs[0]) == read_bytes(outs[1])

    def test_prediction_for_unknown_id_rejected(self, tmp_path, eval_files):
        _, truth = eval_files
        rogue = tmp_path / "rogue.tsv"
        rogue.write_text("ghost\tset\n")
        result = run(["evaluate", "--pred", str(rogue), "--truth", truth])
        assert result.exit_code == 1
        assert "not in the truth file" in result.summary

    def test_bad_group_key_rejected(self, eval_files):
        pred, truth = eval_files
        result = run(["evaluate", "--pred", pred, "--truth", truth, "--group-by", "name"])
        assert result.exit_code == 1
        assert "cannot group by" in result.summary

    def test_missing_group_column_rejected(self, tmp_path):
        truth = tmp_path / "t.tsv"
        truth.write_text("f1\tset time\n")  # no arch/opt columns
        pred = tmp_path / "p.tsv"
        pred.write_text("f1\tset time\n")
        result = run(["evaluate", "--pred", str(pred), "--truth", str(truth), "--group-by", "arch"])
        assert result.exit_code == 1
        assert "lacks the 'arch' column" in result.summary


class TestGradcheckCommand:
    def test_all_paths_pass_at_default_threshold(self, capsys):
        result = run(["gradcheck"])
        assert result.exit_code == 0
        assert result.summary == "all 7 loss paths below 0.0001"
        out = capsys.readouterr().out
        assert out.count("[ok]") == 7

    def test_impossible_threshold_reports_failures(self):
        result = run(["gradcheck", "--max-coords", "5", "--threshold", "0"])
        assert result.exit_code == 1
        assert "gradient check failed for" in result.summary
