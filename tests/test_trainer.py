"""Tests for config files, Adam, gradient checking, and the training loops."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from conftest import checkpoint_entries, checkpoint_meta, defuse_chain_record, make_dataset, make_record
from fnpred.autograd import sum_
from fnpred.encoder import EncoderConfig, TokenVocab, alm_losses
from fnpred.ingest import instruction_tokens, normalize_record
from fnpred.params import ParamStore, ParamTape, load_checkpoint
from fnpred.pretrain import cdi_pairs, dui_pairs, text_infilling
from fnpred.tasks import NameVocabulary
from fnpred.trainer import (
    PRETRAIN_TASKS,
    TrainConfig,
    adam_step,
    build_stores,
    grad_check,
    gradcheck_paths,
    load_encoder_config,
    load_train_config,
    overfit_name_decoder,
    pretrain_alm,
    save_encoder_config,
    save_train_config,
    similarity_gap,
    train_multitask,
    train_step,
)

TOY = EncoderConfig.toy()


def flat_tokens(rec) -> list[str]:
    return [t for ins in normalize_record(rec).instructions for t in instruction_tokens(ins)]


def vocab_for(records) -> TokenVocab:
    corpus = [instruction_tokens(i) for r in records for i in normalize_record(r).instructions]
    return TokenVocab.build(corpus)


def labels_for(records) -> list[list[str]]:
    return [r.name.split("_") for r in records]


def snapshot(store: ParamStore) -> dict[str, bytes]:
    return {name: arr.tobytes() for name, arr in store.values.items()}


# -- configuration files --------------------------------------------------------


class TestTrainConfigIO:
    def test_roundtrip_preserves_every_field(self, tmp_path):
        cfg = TrainConfig(
            batch_size=4, lr=0.01, beta1=0.8, beta2=0.95, eps=1e-9,
            max_steps=7, patience=2, seed=13, lambda1=0.5, lambda2=2.0,
            m_cs=0.25, toy=False, eval_every=3, max_name_len=5,
            jcs_variant="inverted", mask_ratio=0.3, cdi_window=4,
            negatives_per_positive=2,
        )
        path = str(tmp_path / "train.cfg")
        save_train_config(cfg, path)
        assert load_train_config(path) == cfg

    def test_comments_blank_lines_and_spaces_ignored(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("# a comment\n\n  lr = 0.02  \nseed=5\n")
        cfg = load_train_config(str(path))
        assert cfg.lr == 0.02
        assert cfg.seed == 5
        assert cfg.batch_size == TrainConfig().batch_size

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("momentum=0.9\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_train_config(str(path))

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("lr 0.5\n")
        with pytest.raises(ValueError, match="expected key=value"):
            load_train_config(str(path))

    @pytest.mark.parametrize("raw,expected", [("yes", True), ("1", True), ("TRUE", True),
                                              ("no", False), ("0", False), ("False", False)])
    def test_bool_coercion(self, tmp_path, raw, expected):
        path = tmp_path / "train.cfg"
        path.write_text(f"toy={raw}\n")
        assert load_train_config(str(path)).toy is expected

    def test_bad_bool_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("toy=maybe\n")
        with pytest.raises(ValueError, match="not a boolean"):
            load_train_config(str(path))

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"lr": 0.0}, "lr must be positive"),
            ({"lr": -1e-4}, "lr must be positive"),
            ({"batch_size": 0}, "batch_size must be >= 1"),
            ({"patience": 0}, "patience must be >= 1"),
            ({"jcs_variant": "huber"}, "jcs_variant"),
            ({"eval_every": 0}, "eval_every must be >= 1"),
            ({"eval_every": -3}, "eval_every must be >= 1"),
        ],
    )
    def test_constructor_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "field,value,message",
        [("beta1", 1.0, r"beta1 must be in \[0, 1\)"), ("beta1", -0.1, r"beta1 must be in \[0, 1\)"),
         ("beta2", 1.0, r"beta2 must be in \[0, 1\)"), ("eps", 0.0, "eps must be positive"),
         ("eps", -1e-8, "eps must be positive"), ("eps", float("nan"), "eps must be positive"),
         ("lr", float("nan"), "lr must be positive")],
    )
    def test_adam_settings_that_corrupt_a_run_rejected(self, tmp_path, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})
        path = tmp_path / "train.cfg"
        path.write_text(f"seed=2\n# Adam\n{field}={value}\nmax_steps=3\n")
        with pytest.raises(ValueError, match="config line 3: " + message):
            load_train_config(str(path))

    @pytest.mark.parametrize(
        "field,value,message",
        [("m_cs", 0.0, "m_cs must be positive"), ("m_cs", float("nan"), "m_cs must be positive"),
         ("max_name_len", 0, "max_name_len must be >= 1"), ("lambda1", -1.0, "lambda1 must be >= 0"),
         ("lambda2", float("nan"), "lambda2 must be >= 0"),
         ("negatives_per_positive", -1, "negatives_per_positive must be >= 0"),
         ("max_steps", -3, "max_steps must be >= 0")],
    )
    def test_settings_that_fail_only_after_pretraining_rejected(self, tmp_path, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})
        path = tmp_path / "train.cfg"
        path.write_text(f"seed=2\n# fine-tuning\n{field}={value}\nbatch_size=2\n")
        with pytest.raises(ValueError, match="config line 3: " + message):
            load_train_config(str(path))

    def test_eval_every_below_one_rejected_from_file(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("seed=2\neval_every=0\n")
        with pytest.raises(ValueError, match="eval_every must be >= 1"):
            load_train_config(str(path))


class TestEncoderConfigIO:
    def test_roundtrip_including_widths_and_dropout(self, tmp_path):
        cfg = EncoderConfig.toy(conv_kernel_widths=[1, 2, 5], dropout=0.25, seq_cap=32)
        path = str(tmp_path / "enc.cfg")
        save_encoder_config(cfg, path)
        loaded = load_encoder_config(path)
        assert loaded == cfg
        assert loaded.conv_kernel_widths == [1, 2, 5]
        assert isinstance(loaded.dropout, float)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = str(tmp_path / "enc.cfg")
        save_encoder_config(TOY, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n# trailing comment\n")
        assert load_encoder_config(path) == TOY

    @pytest.mark.parametrize(
        "line,message",
        [("heads=4", r"config line 3: unknown key 'heads'"),
         ("n_layers 4", r"config line 3: expected key=value"),
         ("n_layers=four", r"config line 3: bad value for 'n_layers'"),
         ("conv_kernel_widths=0,2", r"config line 3: conv_kernel_widths must be >= 1")],
    )
    def test_bad_line_named(self, tmp_path, line, message):
        path = tmp_path / "enc.cfg"
        path.write_text(f"d_token=8\n# comment\n{line}\n")
        with pytest.raises(ValueError, match=message):
            load_encoder_config(str(path))

    @pytest.mark.parametrize(
        "text,message",
        [("gnn_layers=2\ngnn_hops=0\n", "config line 2: gnn_hops must be >= 1"),
         ("gnn_hops=2\ngnn_layers=0\n", "config line 2: gnn_layers must be >= 1")],
        ids=["gnn_hops", "gnn_layers"],
    )
    def test_gnn_setting_named_on_its_own_line(self, tmp_path, text, message):
        path = tmp_path / "enc.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_encoder_config(str(path))

    @pytest.mark.parametrize("n_heads", [0, -2])
    def test_n_heads_below_one_rejected(self, tmp_path, n_heads):
        with pytest.raises(ValueError, match="n_heads must be >= 1"):
            EncoderConfig(n_heads=n_heads)
        path = tmp_path / "enc.cfg"
        path.write_text(f"n_heads={n_heads}\n")
        with pytest.raises(ValueError, match="n_heads must be >= 1"):
            load_encoder_config(str(path))

    def test_files_unchanged_by_shared_writer(self, tmp_path):
        enc_path, train_path = tmp_path / "enc.cfg", tmp_path / "train.cfg"
        save_encoder_config(TOY, str(enc_path))
        save_train_config(TrainConfig(), str(train_path))
        assert enc_path.read_text().splitlines() == [
            "d_token=8", "n_layers=1", "n_heads=2", "d_hidden=16", "gnn_layers=1",
            "gnn_hops=2", "conv_kernel_widths=2,3", "kernels_per_width=2",
            "dropout=0.0", "seq_cap=64",
        ]
        assert train_path.read_text().startswith("batch_size=32\nlr=5e-05\n")
        assert "toy=True\n" in train_path.read_text()


# -- optimizer -------------------------------------------------------------------


def hand_adam_update(g: float, t: int, cfg: TrainConfig, m0: float = 0.0, v0: float = 0.0):
    """Reference Adam arithmetic for a single scalar coordinate."""
    m = cfg.beta1 * m0 + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * v0 + (1.0 - cfg.beta2) * g * g
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    return cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps), m, v


def dense_zero_adam_step(store: ParamStore, grads: dict[str, np.ndarray], cfg: TrainConfig) -> None:
    """Adam as it was before untouched arrays were skipped: every array is
    updated, a missing gradient is zero and missing moments start at zero."""
    t = store.step_count + 1
    for name, value in store.values.items():
        g = grads.get(name, 0.0)
        m = store.opt_state.setdefault(f"{name}.m", np.zeros_like(value))
        v = store.opt_state.setdefault(f"{name}.v", np.zeros_like(value))
        a, b = np.empty_like(value), np.empty_like(value)
        m *= cfg.beta1
        np.multiply(1.0 - cfg.beta1, g, out=a)
        m += a
        v *= cfg.beta2
        np.multiply(1.0 - cfg.beta2, g, out=a)
        a *= g
        v += a
        np.divide(m, 1.0 - cfg.beta1**t, out=a)
        a *= cfg.lr
        np.divide(v, 1.0 - cfg.beta2**t, out=b)
        np.sqrt(b, out=b)
        b += cfg.eps
        a /= b
        value -= a
    store.step_count = t


class TestAdamStep:
    def test_untouched_arrays_are_skipped_and_get_no_moments(self):
        store = ParamStore(seed=0)
        store.affine("a", (3, 2))
        store.affine("b", (2, 2))
        before = snapshot(store)
        adam_step(store, {"a": np.ones((3, 2))}, TrainConfig())
        assert sorted(store.opt_state) == ["a.m", "a.v"]
        assert snapshot(store)["b"] == before["b"]
        assert snapshot(store)["a"] != before["a"]

    def test_matches_dense_zero_oracle_bit_for_bit(self):
        # "x" has a gradient at every step, "y" first at step 3 and none at
        # step 4, "z" never; "w" has moments (as from a checkpoint) but no
        # gradient.  Values and moments must match the dense-zero oracle's.
        cfg = TrainConfig(lr=0.05)
        rng = np.random.default_rng(11)
        grads_by_step = {
            1: {"x": rng.normal(size=(3, 2))},
            2: {"x": rng.normal(size=(3, 2))},
            3: {"x": rng.normal(size=(3, 2)), "y": rng.normal(size=(4,))},
            4: {"x": rng.normal(size=(3, 2))},
            5: {"x": rng.normal(size=(3, 2)), "y": np.array([-0.0, 0.0, 1.0, -2.0])},
        }

        def fresh() -> ParamStore:
            store = ParamStore(seed=2)
            for name, shape in (("x", (3, 2)), ("y", (4,)), ("z", (2, 2)), ("w", (2,))):
                store.affine(name, shape)
            store.values["z"][0, 0] = -0.0
            store.opt_state = {"w.m": np.array([0.1, -0.2]), "w.v": np.array([0.3, 0.4])}
            return store

        new, oracle = fresh(), fresh()
        for step, grads in grads_by_step.items():
            y_before = new.values["y"].copy()
            adam_step(new, grads, cfg)
            dense_zero_adam_step(oracle, grads, cfg)
            assert snapshot(new) == snapshot(oracle), step
            for key, moment in new.opt_state.items():
                assert moment.tobytes() == oracle.opt_state[key].tobytes(), (step, key)
            extra = set(oracle.opt_state) - set(new.opt_state)
            assert all(not oracle.opt_state[key].any() for key in extra)
            assert ("y.m" in new.opt_state) == (step >= 3)
            if step == 4:  # moments but no gradient: still updated
                assert new.values["y"].tobytes() != y_before.tobytes()
        assert sorted(new.opt_state) == ["w.m", "w.v", "x.m", "x.v", "y.m", "y.v"]
        assert new.values["w"].tobytes() != fresh().values["w"].tobytes()

    def test_zero_gradients_leave_values_unchanged(self):
        store = ParamStore(seed=0)
        store.affine("w", (3, 4))
        store.zeros("b", (4,))
        before = snapshot(store)
        adam_step(store, {}, TrainConfig())
        assert snapshot(store) == before
        assert all(not moment.any() for moment in store.opt_state.values())
        assert store.step_count == 1

    def test_single_step_matches_hand_adam(self):
        cfg = TrainConfig(lr=0.1)
        store = ParamStore(seed=0)
        store.zeros("x", (2,))
        grad = np.array([1.0, -3.0])
        adam_step(store, {"x": grad}, cfg)
        for i, g in enumerate([1.0, -3.0]):
            delta, m, v = hand_adam_update(g, t=1, cfg=cfg)
            assert store.values["x"][i] == pytest.approx(-delta, rel=0, abs=1e-15)
            assert store.opt_state["x.m"][i] == pytest.approx(m, abs=1e-18)
            assert store.opt_state["x.v"][i] == pytest.approx(v, abs=1e-18)
        assert grad.tolist() == [1.0, -3.0]  # the caller's gradient is read, not consumed

    def test_second_step_accumulates_moments(self):
        cfg = TrainConfig(lr=0.1)
        store = ParamStore(seed=0)
        store.zeros("x", (1,))
        adam_step(store, {"x": np.ones(1)}, cfg)
        first = float(store.values["x"][0])
        adam_step(store, {"x": np.ones(1)}, cfg)
        delta1, m1, v1 = hand_adam_update(1.0, t=1, cfg=cfg)
        delta2, _, _ = hand_adam_update(1.0, t=2, cfg=cfg, m0=m1, v0=v1)
        assert first == pytest.approx(-delta1, abs=1e-15)
        assert store.values["x"][0] == pytest.approx(-(delta1 + delta2), abs=1e-14)
        assert store.step_count == 2

    def test_resumed_step_count_sets_bias_correction(self):
        cfg = TrainConfig(lr=0.1)
        store = ParamStore(seed=0)
        store.zeros("x", (1,))
        store.step_count = 4  # as loaded from a checkpoint taken after step 4
        adam_step(store, {"x": np.full(1, 0.5)}, cfg)
        delta, _, _ = hand_adam_update(0.5, t=5, cfg=cfg)
        assert store.values["x"][0] == pytest.approx(-delta, abs=1e-15)
        assert store.step_count == 5

    def test_non_finite_gradient_rejected(self):
        store = ParamStore(seed=0)
        store.zeros("x", (2,))
        with pytest.raises(ValueError, match="non-finite gradient for parameter"):
            adam_step(store, {"x": np.array([np.nan, 0.0])}, TrainConfig())

    def test_non_finite_gradient_leaves_state_unchanged(self):
        store = ParamStore(seed=0)
        store.affine("a", (3, 2))
        store.affine("b", (2, 2))
        adam_step(store, {"a": np.ones((3, 2))}, TrainConfig())
        bad = np.zeros((2, 2))
        bad[1, 1] = np.nan
        values = {k: v.copy() for k, v in store.values.items()}
        moments = {k: v.copy() for k, v in store.opt_state.items()}
        with pytest.raises(ValueError, match="'b'"):
            adam_step(store, {"a": np.full((3, 2), 0.5), "b": bad}, TrainConfig())
        assert store.step_count == 1
        assert set(store.values) == set(values)
        for name, value in values.items():
            assert np.array_equal(store.values[name], value)
        assert set(store.opt_state) == set(moments)
        for name, moment in moments.items():
            assert np.array_equal(store.opt_state[name], moment)

    def test_failed_step_leaves_nothing_behind(self):
        # A step that raises on a NaN gradient must not leak into the next one:
        # store A, which saw the failure, then matches store B bit for bit.
        cfg = TrainConfig(lr=0.1)

        def step(store, scale):
            tape = ParamTape(store, trainable=True)
            sum_(tape.get("w") * scale + tape.get("b") * tape.get("b")).backward()
            adam_step(store, tape.grads(), cfg)

        def fresh():
            store = ParamStore(seed=3)
            store.affine("w", (3, 2))
            store.affine("b", (3, 2))
            return store

        poisoned = np.ones((3, 2))
        poisoned[2, 0] = np.nan
        a, b = fresh(), fresh()
        for store in (a, b):
            step(store, 2.0)
        with pytest.raises(ValueError, match="non-finite gradient for parameter 'w'"):
            step(a, poisoned)
        for store in (a, b):
            step(store, -1.5)
        assert a.step_count == b.step_count == 2
        assert snapshot(a) == snapshot(b)
        assert {k: v.tobytes() for k, v in a.opt_state.items()} == {k: v.tobytes() for k, v in b.opt_state.items()}


# -- gradient-check harness -------------------------------------------------------


def quadratic_store() -> ParamStore:
    store = ParamStore(seed=0)
    store.zeros("x", (4,))
    store.values["x"][:] = [0.5, -1.0, 2.0, 0.25]
    return store


def quadratic_loss(tape):
    x = tape.get("x")
    return sum_(x * x)


class TestGradCheck:
    def test_correct_gradient_passes(self):
        err = grad_check(quadratic_loss, quadratic_store(), eps=1e-6)
        assert err < 1e-8

    def test_detects_corrupted_gradient(self):
        # Analytic gradient of sum(x^2) is 2x; feeding 3x must be flagged.
        def wrong_grads(store: ParamStore) -> dict[str, np.ndarray]:
            return {"x": 3.0 * store.values["x"]}

        err = grad_check(quadratic_loss, quadratic_store(), eps=1e-6, grad_fn=wrong_grads)
        assert err > 1e-2

    def test_values_restored_after_probing(self):
        store = quadratic_store()
        before = snapshot(store)
        grad_check(quadratic_loss, store, eps=1e-6)
        assert snapshot(store) == before

    def test_unreached_parameter_counts_as_zero_gradient(self):
        store = quadratic_store()
        store.ones("unused", (3,))
        assert grad_check(quadratic_loss, store, eps=1e-6) < 1e-8

    def test_max_coords_subsample_still_passes(self):
        err = grad_check(quadratic_loss, quadratic_store(), eps=1e-6, max_coords=2)
        assert err < 1e-8

    def test_vector_loss_rejected(self):
        with pytest.raises(ValueError, match="must return a scalar"):
            grad_check(lambda tape: tape.get("x") * 2.0, quadratic_store())

    def test_non_finite_loss_rejected(self):
        with pytest.raises(ValueError, match="non-finite loss"):
            grad_check(lambda tape: sum_(tape.get("x")) * float("nan"), quadratic_store())


@pytest.fixture(scope="module")
def path_fixture():
    return gradcheck_paths(seed=0)


class TestGradcheckPaths:
    def test_all_seven_paths_present(self, path_fixture):
        _, paths = path_fixture
        assert set(paths) == {
            "infilling", "cdi", "dui", "j_cg", "j_cs_margin", "j_cs_inverted", "joint",
        }

    @pytest.mark.parametrize(
        "name", ["infilling", "cdi", "dui", "j_cg", "j_cs_margin", "j_cs_inverted", "joint"]
    )
    def test_backprop_matches_numeric_gradient(self, path_fixture, name):
        store, paths = path_fixture
        err = grad_check(paths[name], store, max_coords=25, seed=3)
        assert err < 1e-4


# -- pretraining loop --------------------------------------------------------------


def pretrain_records():
    recs = make_dataset(n_sources=4)
    recs.append(defuse_chain_record(8, rec_id="du0", source_id="duS0"))
    recs.append(defuse_chain_record(7, rec_id="du1", source_id="duS1"))
    return recs


def pretrain_valid():
    return [
        defuse_chain_record(6, rec_id="v0", source_id="vs0"),
        make_record(rec_id="v1", name="spare_fn", source_id="vs1", salt=3),
    ]


def pretrain_setup(seed: int = 5):
    records = pretrain_records()
    vocab = vocab_for(records)
    store = build_stores(TOY, len(vocab), 10, seed=seed)
    return records, vocab, store


class TestPretrainAlm:
    def test_round_robin_task_schedule(self, tmp_path):
        records, vocab, store = pretrain_setup()
        cfg = TrainConfig(batch_size=2, seed=9)
        result = pretrain_alm(records, [], store, TOY, vocab, cfg,
                              str(tmp_path / "ck"), max_steps=6)
        assert [s for s, _ in result.task_losses["infill"]] == [1, 4]
        assert [s for s, _ in result.task_losses["cdi"]] == [2, 5]
        assert [s for s, _ in result.task_losses["dui"]] == [3, 6]

    def test_missing_dui_stream_rejected(self, tmp_path):
        records = make_dataset(n_sources=3)  # no def-use flow anywhere
        vocab = vocab_for(records)
        store = build_stores(TOY, len(vocab), 10, seed=0)
        with pytest.raises(ValueError, match="pretraining task 'dui'"):
            pretrain_alm(records, [], store, TOY, vocab, TrainConfig(batch_size=2),
                         str(tmp_path / "ck"), max_steps=3)

    def test_no_training_records_rejected(self, tmp_path):
        store = build_stores(TOY, 8, 10, seed=0)
        vocab = vocab_for(pretrain_records())
        with pytest.raises(ValueError, match="no training records"):
            pretrain_alm([], [], store, TOY, vocab, TrainConfig(),
                         str(tmp_path / "ck"), max_steps=3)

    def test_resume_retraces_uninterrupted_run(self, tmp_path):
        records, vocab, _ = pretrain_setup()
        cfg = TrainConfig(batch_size=2, seed=9)

        store_a = build_stores(TOY, len(vocab), 10, seed=5)
        res_a = pretrain_alm(records, [], store_a, TOY, vocab, cfg,
                             str(tmp_path / "a"), max_steps=6)

        store_b = build_stores(TOY, len(vocab), 10, seed=5)
        res_b1 = pretrain_alm(records, [], store_b, TOY, vocab, cfg,
                              str(tmp_path / "b1"), max_steps=3)
        assert store_b.step_count == 3
        res_b2 = pretrain_alm(records, [], store_b, TOY, vocab, cfg,
                              str(tmp_path / "b2"), max_steps=6)

        assert snapshot(store_a) == snapshot(store_b)
        for task in PRETRAIN_TASKS:
            joined = res_b1.task_losses[task] + res_b2.task_losses[task]
            assert joined == res_a.task_losses[task]
        assert res_a.trained_record_ids == (res_b1.trained_record_ids | res_b2.trained_record_ids)

    def test_resume_from_checkpoint_at_every_step_matches_bit_for_bit(self, tmp_path):
        records, vocab, _ = pretrain_setup()
        cfg = TrainConfig(batch_size=2, seed=9)
        n = 5
        pretrain_alm(records, [], build_stores(TOY, len(vocab), 10, seed=5), TOY, vocab, cfg,
                     str(tmp_path / "whole"), max_steps=n)
        expected = checkpoint_entries(str(tmp_path / "whole" / "final"))
        assert "opt/tok_emb.m" in expected
        assert not any(name.startswith(("opt/out_proj", "opt/dec0.", "opt/sim.")) for name in expected)
        for k in range(1, n):
            first, second = str(tmp_path / f"{k}a"), str(tmp_path / f"{k}b")
            pretrain_alm(records, [], build_stores(TOY, len(vocab), 10, seed=5), TOY, vocab, cfg,
                         first, max_steps=k)
            resumed = load_checkpoint(os.path.join(first, "final"))
            pretrain_alm(records, [], resumed, TOY, vocab, cfg, second, max_steps=n)
            assert checkpoint_entries(os.path.join(second, "final")) == expected, k

    def test_fixed_batch_losses_decrease(self):
        # The round-robin schedule on three frozen batches, driven through
        # the step primitive: every task's loss falls.
        records, vocab, store = pretrain_setup()
        chain = records[-1]
        fixed = {
            "infill": [text_infilling(flat_tokens(records[0]), 0.3, 7)],
            "cdi": cdi_pairs(records[0], w=2, negatives_per_positive=1, rng_seed=0)[:2],
            "dui": dui_pairs(chain, negatives_per_positive=1, rng_seed=0)[:2],
        }
        cfg = TrainConfig(batch_size=2, seed=1, lr=0.02)
        task_losses = {task: [] for task in PRETRAIN_TASKS}
        for step in range(30):
            task = PRETRAIN_TASKS[step % len(PRETRAIN_TASKS)]
            rng = np.random.default_rng((cfg.seed, step))
            task_losses[task].append(train_step(
                store, cfg, lambda tape: alm_losses(fixed[task], tape, TOY, vocab, training=True, rng=rng)))
        for task in PRETRAIN_TASKS:
            losses = task_losses[task]
            assert len(losses) == 10
            assert losses[-1] < losses[0]
        total_first = sum(task_losses[t][0] for t in PRETRAIN_TASKS)
        total_last = sum(task_losses[t][-1] for t in PRETRAIN_TASKS)
        assert total_last < 0.75 * total_first

    def test_checkpoints_validation_and_id_hygiene(self, tmp_path):
        records, vocab, store = pretrain_setup()
        valid = pretrain_valid()
        cfg = TrainConfig(batch_size=2, seed=9, eval_every=3)
        result = pretrain_alm(records, valid, store, TOY, vocab, cfg,
                              str(tmp_path / "ck"), max_steps=6)

        assert [s for s, _ in result.valid_losses] == [3, 6]
        assert result.best_step in (3, 6)
        assert result.best_valid_loss == min(l for _, l in result.valid_losses)
        assert set(result.checkpoint_dirs) == {"best", "final"}

        train_ids = {r.id for r in records}
        assert result.trained_record_ids <= train_ids
        assert result.trained_record_ids.isdisjoint({"v0", "v1"})

        reloaded = load_checkpoint(result.checkpoint_dirs["final"])
        assert snapshot(reloaded) == snapshot(store)
        assert reloaded.step_count == store.step_count
        assert reloaded.best_step == result.best_step
        assert reloaded.best_score == -result.best_valid_loss
        assert checkpoint_meta(result.checkpoint_dirs["best"])["meta/best_step"] == result.best_step

    def test_validated_resume_at_every_step_matches_uninterrupted_run(self, tmp_path):
        # Split after every step k and resume from final/ into the same
        # directory: best/ (kept from step 2) and final/ match the whole run.
        records, vocab, _ = pretrain_setup()
        valid = pretrain_valid()
        cfg = TrainConfig(batch_size=2, seed=9, eval_every=1, lr=0.05)
        n = 12

        def pretrain(store, directory, max_steps):
            return pretrain_alm(records, valid, store, TOY, vocab, cfg, directory, max_steps=max_steps)

        whole = pretrain(build_stores(TOY, len(vocab), 10, seed=5), str(tmp_path / "whole"), n)
        assert whole.best_step == 2 and len(whole.valid_losses) == n
        expected = {sub: checkpoint_entries(str(tmp_path / "whole" / sub)) for sub in ("best", "final")}
        assert checkpoint_meta(str(tmp_path / "whole" / "final"))["meta/best_step"] == 2
        for k in range(1, n):
            directory = str(tmp_path / f"split{k}")
            pretrain(build_stores(TOY, len(vocab), 10, seed=5), directory, k)
            resumed = pretrain(load_checkpoint(os.path.join(directory, "final")), directory, n)
            assert (resumed.best_step, resumed.best_valid_loss) == (whole.best_step, whole.best_valid_loss), k
            assert resumed.valid_losses == whole.valid_losses[k:], k
            for sub in ("best", "final"):
                assert checkpoint_entries(os.path.join(directory, sub)) == expected[sub], (k, sub)

    def test_run_without_validation_writes_meta_step_alone(self, tmp_path):
        records, vocab, store = pretrain_setup()
        result = pretrain_alm(records, [], store, TOY, vocab, TrainConfig(batch_size=2, seed=9, eval_every=1),
                              str(tmp_path / "ck"), max_steps=3)
        assert set(result.checkpoint_dirs) == {"final"}
        assert checkpoint_meta(result.checkpoint_dirs["final"]) == {"meta/step": 3.0}


# -- multi-task fine-tuning ---------------------------------------------------------


def finetune_setup(n_sources: int = 6, seed: int = 2):
    train = make_dataset(n_sources=n_sources)
    vocab = vocab_for(train)
    labels = labels_for(train)
    name_vocab = NameVocabulary.build(labels)
    store = build_stores(TOY, len(vocab), len(name_vocab), seed=seed)
    return train, labels, vocab, name_vocab, store


def valid_record(idx: int = 0, name: str = "spare_fn") -> list:
    return [make_record(rec_id=f"vr{idx}", name=name, source_id=f"vsrc{idx}", salt=9 + idx)]


class TestTrainMultitask:
    def test_shared_record_id_rejected(self, tmp_path):
        train, labels, vocab, name_vocab, store = finetune_setup()
        bad_valid = [train[0]]
        with pytest.raises(ValueError, match="record ids shared"):
            train_multitask(train, labels, bad_valid, labels_for(bad_valid), store,
                            TOY, vocab, name_vocab, TrainConfig(batch_size=1),
                            str(tmp_path / "ck"), max_steps=1)

    def test_shared_source_id_rejected(self, tmp_path):
        train, labels, vocab, name_vocab, store = finetune_setup()
        bad = make_record(rec_id="fresh", name="other_fn", source_id=train[0].source_id)
        with pytest.raises(ValueError, match="source ids shared"):
            train_multitask(train, labels, [bad], labels_for([bad]), store,
                            TOY, vocab, name_vocab, TrainConfig(batch_size=1),
                            str(tmp_path / "ck"), max_steps=1)

    def test_vocab_label_absent_from_train_rejected(self, tmp_path):
        train, labels, vocab, _, store = finetune_setup()
        leaky_vocab = NameVocabulary.build(labels + [["zzz"]])
        with pytest.raises(ValueError, match="absent from training records"):
            train_multitask(train, labels, [], [], store, TOY, vocab, leaky_vocab,
                            TrainConfig(batch_size=1), str(tmp_path / "ck"), max_steps=1)

    def test_zero_loss_weights_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one loss weight"):
            TrainConfig(batch_size=1, lambda1=0.0, lambda2=0.0)
        path = tmp_path / "train.cfg"
        path.write_text("seed=2\nlambda1=0\nlambda2=0\n")
        with pytest.raises(ValueError, match="config line 2: lambda1 and lambda2 are both 0"):
            load_train_config(str(path))

    def test_resume_from_checkpoint_at_every_step_matches_bit_for_bit(self, tmp_path):
        train, labels, vocab, name_vocab, store = finetune_setup()
        cfg = TrainConfig(batch_size=1, seed=4)
        n = 4
        train_multitask(train, labels, [], [], store, TOY, vocab, name_vocab, cfg,
                        str(tmp_path / "whole"), max_steps=n)
        expected = checkpoint_entries(str(tmp_path / "whole" / "final"))
        assert "opt/out_proj.w.m" in expected and "opt/sim.w1.m" in expected
        assert not any(name.startswith(("opt/mlm.", "opt/pair.", "opt/span_pos")) for name in expected)
        for k in range(1, n):
            first, second = str(tmp_path / f"{k}a"), str(tmp_path / f"{k}b")
            train_multitask(train, labels, [], [], finetune_setup()[-1], TOY, vocab, name_vocab, cfg,
                            first, max_steps=k)
            resumed = load_checkpoint(os.path.join(first, "final"))
            train_multitask(train, labels, [], [], resumed, TOY, vocab, name_vocab, cfg,
                            second, max_steps=n)
            assert checkpoint_entries(os.path.join(second, "final")) == expected, k

    def test_lambda2_zero_touches_no_similarity_params(self, tmp_path):
        train, labels, vocab, name_vocab, store = finetune_setup()
        before = snapshot(store)
        cfg = TrainConfig(batch_size=1, seed=4, lambda1=1.0, lambda2=0.0)
        train_multitask(train, labels, [], [], store, TOY, vocab, name_vocab,
                        cfg, str(tmp_path / "ck"), max_steps=2)
        after = snapshot(store)
        for name in ("sim.w1", "sim.b1", "sim.w2", "sim.b2"):
            assert after[name] == before[name]
        assert after["out_proj.w"] != before["out_proj.w"]

    def test_lambda1_zero_touches_no_decoder_params(self, tmp_path):
        train, labels, vocab, name_vocab, store = finetune_setup()
        before = snapshot(store)
        cfg = TrainConfig(batch_size=1, seed=4, lambda1=0.0, lambda2=1.0)
        train_multitask(train, labels, [], [], store, TOY, vocab, name_vocab,
                        cfg, str(tmp_path / "ck"), max_steps=2)
        after = snapshot(store)
        for name in ("name_emb", "dec_pos_emb", "out_proj.w", "out_proj.b",
                     "dec0.self.wq", "dec0.cross.wq", "dec_final_ln.g"):
            assert after[name] == before[name]
        assert after["sim.w1"] != before["sim.w1"]

    def test_history_reports_weighted_joint_loss(self, tmp_path):
        train, labels, vocab, name_vocab, store = finetune_setup()
        cfg = TrainConfig(batch_size=1, seed=4, lambda1=0.7, lambda2=1.3)
        result = train_multitask(train, labels, [], [], store, TOY, vocab, name_vocab,
                                 cfg, str(tmp_path / "ck"), max_steps=3)
        assert [h["step"] for h in result.history] == [1, 2, 3]
        for h in result.history:
            assert set(h) == {"step", "loss", "j_cg", "j_cs"}
            assert h["loss"] == pytest.approx(0.7 * h["j_cg"] + 1.3 * h["j_cs"], abs=1e-12)
        assert not result.stopped_early
        assert os.path.isdir(result.checkpoint_dirs["final"])

    def test_early_stopping_on_stale_validation_f1(self, tmp_path):
        train, labels, vocab, name_vocab, store = finetune_setup()
        # Gold labels outside the vocabulary pin validation F1 at zero, so
        # every evaluation after the first is stale.
        valid = valid_record()
        valid_labels = [["unreachable"]]
        cfg = TrainConfig(batch_size=1, seed=4, eval_every=1, patience=2, max_steps=50)
        result = train_multitask(train, labels, valid, valid_labels, store, TOY,
                                 vocab, name_vocab, cfg, str(tmp_path / "ck"))
        assert result.stopped_early
        assert store.step_count == 3
        assert [s for s, _ in result.valid_f1] == [1, 2, 3]
        assert result.best_f1 == 0.0
        assert result.best_step == 1
        assert set(result.checkpoint_dirs) == {"best", "final"}

    def test_validated_resume_at_every_step_matches_uninterrupted_run(self, tmp_path):
        # The set-up above stops early at step 3 with best/ from step 1.
        # Split after every step k and resume from final/ into the same
        # directory; a run split at or after its early stop takes no step.
        train, labels, vocab, name_vocab, _ = finetune_setup()
        valid, valid_labels = valid_record(), [["unreachable"]]
        cfg = TrainConfig(batch_size=1, seed=4, eval_every=1, patience=2)
        n = 6

        def finetune(store, directory, max_steps):
            return train_multitask(train, labels, valid, valid_labels, store, TOY, vocab, name_vocab,
                                   cfg, directory, max_steps=max_steps)

        def fresh():
            return build_stores(TOY, len(vocab), len(name_vocab), seed=2)

        whole = finetune(fresh(), str(tmp_path / "whole"), n)
        assert (whole.best_step, whole.stopped_early, len(whole.history)) == (1, True, 3)
        expected = {sub: checkpoint_entries(str(tmp_path / "whole" / sub)) for sub in ("best", "final")}
        for k in range(1, n):
            directory = str(tmp_path / f"split{k}")
            first = finetune(fresh(), directory, k)
            resumed = finetune(load_checkpoint(os.path.join(directory, "final")), directory, n)
            assert (resumed.best_step, resumed.best_f1) == (whole.best_step, whole.best_f1), k
            assert resumed.stopped_early == whole.stopped_early, k
            assert [h["step"] for h in resumed.history] == list(range(k + 1, 4)), k
            assert first.history + resumed.history == whole.history, k
            for sub in ("best", "final"):
                assert checkpoint_entries(os.path.join(directory, sub)) == expected[sub], (k, sub)

    def test_run_without_validation_writes_meta_step_alone(self, tmp_path):
        train, labels, vocab, name_vocab, store = finetune_setup()
        cfg = TrainConfig(batch_size=1, seed=4, eval_every=1)
        result = train_multitask(train, labels, [], [], store, TOY, vocab, name_vocab, cfg,
                                 str(tmp_path / "ck"), max_steps=2)
        assert set(result.checkpoint_dirs) == {"final"} and result.best_step is None
        assert checkpoint_meta(result.checkpoint_dirs["final"]) == {"meta/step": 2.0}

    def test_trained_ids_exclude_validation_set(self, tmp_path):
        train, labels, vocab, name_vocab, store = finetune_setup()
        valid = valid_record()
        cfg = TrainConfig(batch_size=2, seed=4, eval_every=50)
        result = train_multitask(train, labels, valid, [["spare", "fn"]], store, TOY,
                                 vocab, name_vocab, cfg, str(tmp_path / "ck"), max_steps=3)
        assert result.trained_record_ids <= {r.id for r in train}
        assert "vr0" not in result.trained_record_ids
        assert len(result.trained_record_ids) >= 3


class TestOverfitNameDecoder:
    def test_frozen_batch_loss_drops(self, tmp_path):
        records = make_dataset(n_sources=2)[:2]
        labels = labels_for(records)
        vocab = vocab_for(records)
        name_vocab = NameVocabulary.build(labels)
        store = build_stores(TOY, len(vocab), len(name_vocab), seed=3)
        cfg = TrainConfig(batch_size=1, lr=0.02)
        losses = overfit_name_decoder(records, labels, store, TOY, vocab,
                                      name_vocab, cfg, steps=40)
        assert len(losses) == 40
        assert losses[-1] < 0.5 * losses[0]


class TestBuildStoresAndGap:
    def test_build_stores_deterministic_in_seed(self):
        s1 = build_stores(TOY, 30, 12, seed=3)
        s2 = build_stores(TOY, 30, 12, seed=3)
        assert list(s1.values) == list(s2.values)
        assert snapshot(s1) == snapshot(s2)
        s3 = build_stores(TOY, 30, 12, seed=4)
        assert snapshot(s3)["tok_emb"] != snapshot(s1)["tok_emb"]

    def test_build_stores_contains_both_param_families(self):
        store = build_stores(TOY, 30, 12, seed=0)
        names = set(store.values)
        assert {"tok_emb", "in_proj.w", "enc0.attn.wq", "g_proj.w"} <= names
        assert {"name_emb", "out_proj.w", "sim.w1", "sim.w2"} <= names
        assert store.values["tok_emb"].shape == (30, TOY.d_token)
        assert store.values["out_proj.w"].shape == (TOY.d_hidden, 12)

    def test_similarity_gap_deterministic_and_bounded(self):
        records = make_dataset(n_sources=5)
        labels = labels_for(records)
        vocab = vocab_for(records)
        store = build_stores(TOY, len(vocab), 10, seed=1)
        gap1 = similarity_gap(records, labels, store, TOY, vocab, n_triplets=5, seed=2)
        gap2 = similarity_gap(records, labels, store, TOY, vocab, n_triplets=5, seed=2)
        assert gap1 == gap2
        assert all(-1.0 <= v <= 1.0 for v in gap1)
