"""Tests for the function encoder: conv summaries, K-hop passing, transformer."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import make_dataset, make_record
from fnpred.encoder import (
    EncoderConfig,
    PAD_ID,
    PAD_TOKEN,
    TokenVocab,
    UNK_ID,
    alm_losses,
    conv_kernels_from_store,
    conv_node_vector,
    encode_function,
    init_encoder_params,
    khop_message_pass,
    transformer_encode,
    _conv_node_vector_tensor,
)
from fnpred.ingest import build_fine_grained_cfg, khop_neighborhood
from fnpred.params import ParamStore, ParamTape
from fnpred.pretrain import MASK_TOKEN, InfillingSample, InstructionPairSample

TOY = EncoderConfig.toy()


def toy_store(vocab_size: int, seed: int = 0, config: EncoderConfig = TOY) -> ParamStore:
    store = ParamStore(seed=seed)
    init_encoder_params(store, config, vocab_size)
    return store


def small_vocab() -> TokenVocab:
    corpus = [["mov", "eax", "<imm>"], ["add", "ebx", "eax"], ["sub", "ecx", "<loc>"],
              ["push", "esi"], ["pop", "edi"], ["cmp", "edx", "<imm>"]]
    return TokenVocab.build(corpus)


# -- independent oracles ------------------------------------------------------

def ln_oracle(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return g * (centered / np.sqrt(var + 1e-5)) + b


def softmax_oracle(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def transformer_oracle(ids, store: ParamStore, config: EncoderConfig) -> np.ndarray:
    v = store.values
    ids = np.asarray(ids, dtype=np.int64)[: config.seq_cap]
    T = ids.size
    key_bias = np.where(ids == PAD_ID, -1e30, 0.0)[None, :]
    d_head = config.d_hidden // config.n_heads
    scale = 1.0 / math.sqrt(d_head)
    x = v["tok_emb"][ids] @ v["in_proj.w"] + v["in_proj.b"]
    x = x + v["pos_emb"][:T]
    for i in range(config.n_layers):
        p = f"enc{i}"
        n1 = ln_oracle(x, v[f"{p}.ln1.g"], v[f"{p}.ln1.b"])
        q = n1 @ v[f"{p}.attn.wq"] + v[f"{p}.attn.bq"]
        k = n1 @ v[f"{p}.attn.wk"]
        val = n1 @ v[f"{p}.attn.wv"] + v[f"{p}.attn.bv"]
        heads = []
        for h in range(config.n_heads):
            sl = slice(h * d_head, (h + 1) * d_head)
            scores = q[:, sl] @ k[:, sl].T * scale + key_bias
            heads.append(softmax_oracle(scores) @ val[:, sl])
        x = x + (np.hstack(heads) @ v[f"{p}.attn.wo"] + v[f"{p}.attn.bo"])
        n2 = ln_oracle(x, v[f"{p}.ln2.g"], v[f"{p}.ln2.b"])
        hidden = np.maximum(n2 @ v[f"{p}.ffn.w1"] + v[f"{p}.ffn.b1"], 0.0)
        x = x + (hidden @ v[f"{p}.ffn.w2"] + v[f"{p}.ffn.b2"])
    return ln_oracle(x, v["enc_final_ln.g"], v["enc_final_ln.b"])


def conv_oracle(E: np.ndarray, kernels, pad_vector=None) -> np.ndarray:
    """Sliding-window conv by explicit element loops."""
    d, m = E.shape
    w_max = max(kern.shape[1] for kern, _ in kernels)
    if m < w_max:
        pad = np.zeros(d) if pad_vector is None else np.asarray(pad_vector, dtype=float)
        E = np.hstack([E] + [pad[:, None]] * (w_max - m))
    out = []
    for kern, bias in kernels:
        w = kern.shape[1]
        n_valid = m - w + 1 if m >= w else 1
        feats = []
        for j in range(n_valid):
            acc = float(bias)
            for a in range(d):
                for b in range(w):
                    acc += kern[a, b] * E[a, j + b]
            feats.append(acc if acc > 0.0 else 0.0)
        out.append(sum(feats) / len(feats))
    return np.array(out)


def one_hop_oracle(cfg, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Single-layer single-hop update computed node by node."""
    n, d = x.shape
    out = np.zeros((n, w.shape[1]))
    for v in range(n):
        nbrs = khop_neighborhood(cfg, v, 1)
        message = x[nbrs].mean(axis=0) if len(nbrs) else np.zeros(d)
        out[v] = np.maximum(np.concatenate([message, x[v]]) @ w + b, 0.0)
    return out


# -- vocabulary ---------------------------------------------------------------

class TestTokenVocab:
    def test_specials_lead_and_frequency_orders_the_rest(self):
        vocab = TokenVocab.build([["mov", "eax"], ["mov", "ebx"], ["add", "eax"]])
        assert vocab.id_to_token[:4] == [PAD_TOKEN, MASK_TOKEN, "[SEP]", "[UNK]"]
        # eax and mov tie at count 2 (alphabetical), then the rest.
        assert vocab.id_to_token[4:] == ["eax", "mov", "add", "ebx"]

    def test_unknown_token_maps_to_unk(self):
        vocab = small_vocab()
        assert vocab.id("no_such_token") == UNK_ID
        assert vocab.encode(["mov", "no_such_token"])[1] == UNK_ID

    def test_min_count_filters_rare_tokens(self):
        vocab = TokenVocab.build([["mov", "eax"], ["mov", "ebx"]], min_count=2)
        assert "mov" in vocab.token_to_id
        assert "ebx" not in vocab.token_to_id

    def test_save_load_round_trip(self, tmp_path):
        vocab = small_vocab()
        path = str(tmp_path / "vocab.txt")
        vocab.save(path)
        again = TokenVocab.load(path)
        assert again.id_to_token == vocab.id_to_token

    def test_rejects_missing_specials_and_duplicates(self):
        with pytest.raises(ValueError, match="special sentinels"):
            TokenVocab(["mov", "eax"])
        specials = [PAD_TOKEN, MASK_TOKEN, "[SEP]", "[UNK]"]
        with pytest.raises(ValueError, match="duplicate"):
            TokenVocab(specials + ["mov", "mov"])

    def test_from_records_normalizes_operands(self):
        rec = make_record("f0", "demo", "s0", n_instructions=4)
        rec.instructions[0].operands[0] = "0x4005d0"
        vocab = TokenVocab.from_records([rec])
        assert "<imm>" in vocab.token_to_id
        assert "0x4005d0" not in vocab.token_to_id


# -- configuration ------------------------------------------------------------

class TestEncoderConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(d_hidden=10, n_heads=3)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"conv_kernel_widths": [0]}, "widths"),
            ({"gnn_layers": 0}, "gnn_layers"),
            ({"gnn_hops": 0}, "gnn_layers"),
            ({"dropout": 1.0}, "dropout"),
            ({"dropout": -0.1}, "dropout"),
        ],
    )
    def test_invalid_settings_rejected(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            EncoderConfig(**kwargs)

    def test_conv_output_dim(self):
        cfg = EncoderConfig(conv_kernel_widths=[2, 3, 4], kernels_per_width=4)
        assert cfg.conv_output_dim == 12
        assert TOY.conv_output_dim == 4

    def test_toy_overrides(self):
        cfg = EncoderConfig.toy(seq_cap=8)
        assert cfg.seq_cap == 8 and cfg.d_token == 8


# -- convolutional node vectors -------------------------------------------------

class TestConvNodeVector:
    def _random_kernels(self, rng, d):
        kernels = []
        for w in (1, 2, 3):
            for _ in range(2):
                kernels.append((rng.normal(size=(d, w)), float(rng.normal())))
        return kernels

    def test_matches_sliding_window_oracle_50_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            m = int(rng.integers(1, 13))
            E = rng.normal(size=(d, m))
            kernels = self._random_kernels(rng, d)
            got = conv_node_vector(E, kernels)
            want = conv_oracle(E, kernels)
            assert np.allclose(got, want, atol=1e-10, rtol=0.0)

    def test_output_length_independent_of_sequence_length(self):
        rng = np.random.default_rng(0)
        kernels = self._random_kernels(rng, 3)
        for m in range(1, 13):
            out = conv_node_vector(rng.normal(size=(3, m)), kernels)
            assert out.shape == (len(kernels),)

    def test_short_sequence_pads_to_widest_kernel(self):
        # m=1 < w=3: the single window is [E[:,0], pad, pad].
        E = np.array([[2.0], [1.0]])
        kern = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        got = conv_node_vector(E, [(kern, 0.0)])
        assert got == pytest.approx([3.0])
        pad = np.array([10.0, 0.0])
        got_pad = conv_node_vector(E, [(kern, 0.0)], pad_vector=pad)
        assert got_pad == pytest.approx([23.0])

    def test_feature_map_averages_m_minus_w_plus_1_windows(self):
        # Column j holds constant j; an all-ones width-2 kernel sums adjacent
        # columns, so window j yields d*(2j+1) and the mean encodes n_valid.
        d, m, w = 2, 5, 2
        E = np.tile(np.arange(m, dtype=float), (d, 1))
        kern = np.ones((d, w))
        n_valid = m - w + 1
        expected = np.mean([d * (2 * j + 1) for j in range(n_valid)])
        assert conv_node_vector(E, [(kern, 0.0)]) == pytest.approx([expected])

    def test_kernel_layout_from_store(self):
        config = EncoderConfig.toy()
        store = toy_store(10, config=config)
        mat = store.values["conv.w2"]
        kernels = conv_kernels_from_store(store, config)
        # First kernel of width 2: element [a, b] comes from mat[b*d_token+a, 0].
        kern, bias = kernels[0]
        assert kern.shape == (config.d_token, 2)
        for a in range(config.d_token):
            for b in range(2):
                assert kern[a, b] == mat[b * config.d_token + a, 0]
        assert bias == float(store.values["conv.b2"][0])

    def test_tensor_path_matches_numpy_path(self):
        config = EncoderConfig.toy()
        vocab = small_vocab()
        store = toy_store(len(vocab), seed=3, config=config)
        tape = ParamTape(store, trainable=False)
        kernels = conv_kernels_from_store(store, config)
        pad_vec = store.values["tok_emb"][PAD_ID]
        for tokens in (["mov", "eax", "<imm>"], ["push", "esi"], ["pop"],
                       ["add", "ebx", "eax", "mov", "ecx"]):
            ids = vocab.encode(tokens)
            got = _conv_node_vector_tensor(tape, ids, config).data[0]
            E = store.values["tok_emb"][np.asarray(ids)].T
            want = conv_node_vector(E, kernels, pad_vector=pad_vec)
            assert np.allclose(got, want, atol=1e-12, rtol=0.0)


# -- K-hop message passing ------------------------------------------------------

def identity_stack(d: int) -> np.ndarray:
    return np.vstack([np.eye(d), np.eye(d)])


class TestKhopMessagePassing:
    def _path_cfg(self, n: int):
        return build_fine_grained_cfg(make_record("f", "demo", "s", n_instructions=n))

    def test_k1_matches_standalone_one_hop_oracle_20_cases(self):
        rng = np.random.default_rng(1)
        for case in range(20):
            n = int(rng.integers(2, 11))
            cfg = build_fine_grained_cfg(
                make_record("f", "demo", "s", n_instructions=n, salt=case)
            )
            d_in, d_out = 4, 5
            x = rng.normal(size=(n, d_in))
            store = ParamStore(seed=case)
            w = store.add("gnn0.k1.w", rng.normal(size=(2 * d_in, d_out)))
            b = store.add("gnn0.k1.b", rng.normal(size=(d_out,)))
            got = khop_message_pass(cfg, x, store, layers=1, hops=1)
            want = one_hop_oracle(cfg, x, w, b)
            assert np.allclose(got, want, atol=1e-10, rtol=0.0)

    def test_path_graph_hand_arithmetic(self):
        # Path 0-1-2-3; identity-stack weights make z_k = M_k @ x + x.
        cfg = self._path_cfg(4)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
        store = ParamStore()
        for k in (1, 2):
            store.add(f"gnn0.k{k}.w", identity_stack(2))
            store.add(f"gnn0.k{k}.b", np.zeros(2))
        got = khop_message_pass(cfg, x, store, layers=1, hops=2)
        want = np.array([
            [1.0 + 1.5, 1.0 + 1.0],
            [1.0 + 4 / 3, 1.5 + 4 / 3],
            [2.0 + 2.0, 1.5 + 4 / 3],
            [3.0 + 2.5, 1.0 + 1.0],
        ])
        assert np.allclose(got, want, atol=1e-12, rtol=0.0)

    def test_path_graph_hand_arithmetic_with_relu_clipping(self):
        cfg = self._path_cfg(4)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
        store = ParamStore()
        for k in (1, 2):
            store.add(f"gnn0.k{k}.w", identity_stack(2))
            store.add(f"gnn0.k{k}.b", np.array([-2.0, 0.0]))
        got = khop_message_pass(cfg, x, store, layers=1, hops=2)
        want = np.array([
            [0.0, 2.0],
            [0.0, 1.5 + 4 / 3],
            [0.0, 1.5 + 4 / 3],
            [1.0 + 0.5, 2.0],
        ])
        assert np.allclose(got, want, atol=1e-12, rtol=0.0)

    def test_isolated_node_receives_zero_message(self):
        cfg = self._path_cfg(1)
        x = np.array([[-1.0, 3.0]])
        store = ParamStore()
        store.add("gnn0.k1.w", identity_stack(2))
        store.add("gnn0.k1.b", np.zeros(2))
        got = khop_message_pass(cfg, x, store, layers=1, hops=1)
        assert np.allclose(got, [[0.0, 3.0]])

    def test_all_zero_weights_give_all_zero_states(self):
        config = EncoderConfig.toy()
        store = toy_store(12, config=config)
        for layer in range(config.gnn_layers):
            for k in range(1, config.gnn_hops + 1):
                store.values[f"gnn{layer}.k{k}.w"][:] = 0.0
                store.values[f"gnn{layer}.k{k}.b"][:] = 0.0
        rec = make_record("f", "demo", "s", n_instructions=6)
        cfg = build_fine_grained_cfg(rec)
        x = np.random.default_rng(5).normal(size=(6, config.conv_output_dim))
        out = khop_message_pass(cfg, x, store, config.gnn_layers, config.gnn_hops)
        assert np.array_equal(out, np.zeros((6, config.d_hidden)))

    def test_row_count_mismatch_rejected(self):
        cfg = self._path_cfg(4)
        store = ParamStore()
        store.add("gnn0.k1.w", identity_stack(2))
        store.add("gnn0.k1.b", np.zeros(2))
        with pytest.raises(ValueError, match="row count"):
            khop_message_pass(cfg, np.zeros((3, 2)), store, layers=1, hops=1)

    def test_stacked_layers_change_dimensionality(self):
        config = EncoderConfig.toy()
        store = toy_store(12, config=config)
        rec = make_record("f", "demo", "s", n_instructions=5)
        cfg = build_fine_grained_cfg(rec)
        x = np.random.default_rng(2).normal(size=(5, config.conv_output_dim))
        out = khop_message_pass(cfg, x, store, config.gnn_layers, config.gnn_hops)
        assert out.shape == (5, config.d_hidden)
        assert np.isfinite(out).all()


# -- transformer ----------------------------------------------------------------

class TestTransformer:
    def test_matches_naive_oracle(self):
        vocab = small_vocab()
        for seed in range(4):
            store = toy_store(len(vocab), seed=seed)
            rng = np.random.default_rng(seed + 100)
            length = int(rng.integers(2, 12))
            ids = rng.integers(4, len(vocab), size=length).tolist()
            if seed % 2:
                ids[-1] = PAD_ID  # exercise key masking
            states, pooled = transformer_encode(ids, store, TOY)
            want = transformer_oracle(ids, store, TOY)
            assert np.allclose(states, want, atol=1e-8, rtol=1e-8)
            valid = [i for i, t in enumerate(ids) if t != PAD_ID]
            assert np.allclose(pooled, want[valid].mean(axis=0), atol=1e-8, rtol=1e-8)

    def test_pad_keys_get_no_attention(self):
        vocab = small_vocab()
        store = toy_store(len(vocab), seed=9)
        ids = vocab.encode(["mov", "eax", "<imm>"]) + [PAD_ID, PAD_ID]
        sink: list = []
        transformer_encode(ids, store, TOY, attn_sink=sink)
        assert len(sink) == TOY.n_layers * TOY.n_heads
        for attn in sink:
            assert attn.shape == (5, 5)
            assert np.allclose(attn[:, 3:], 0.0, atol=1e-12)
            assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-12)

    def test_truncated_to_seq_cap(self):
        config = EncoderConfig.toy(seq_cap=8)
        vocab = small_vocab()
        store = toy_store(len(vocab), config=config)
        states, _ = transformer_encode([5] * 12, store, config)
        assert states.shape[0] == 8

    def test_empty_sequence_rejected(self):
        store = toy_store(8)
        with pytest.raises(ValueError, match="empty token sequence"):
            transformer_encode([], store, TOY)

    def test_all_pad_pooling_rejected(self):
        store = toy_store(8)
        with pytest.raises(ValueError, match="only padding"):
            transformer_encode([PAD_ID, PAD_ID], store, TOY)

    def test_dropout_training_differs_but_is_seeded(self):
        config = EncoderConfig.toy(dropout=0.5)
        store = toy_store(8, seed=4, config=config)
        ids = [4, 5, 6, 7]
        eval_states, _ = transformer_encode(ids, store, config, training=False)
        t1, _ = transformer_encode(ids, store, config, training=True,
                                   rng=np.random.default_rng(0))
        t2, _ = transformer_encode(ids, store, config, training=True,
                                   rng=np.random.default_rng(0))
        assert not np.allclose(eval_states, t1)
        assert np.array_equal(t1, t2)


# -- full function encoding -------------------------------------------------------

class TestEncodeFunction:
    def test_renaming_never_changes_encoding(self):
        vocab_records = make_dataset(n_sources=4)
        vocab = TokenVocab.from_records(vocab_records)
        store = toy_store(len(vocab), seed=6)
        rec = vocab_records[0]
        renamed = dataclasses.replace(rec, name="totally_different_name")
        a = encode_function(rec, store, TOY, vocab)
        b = encode_function(renamed, store, TOY, vocab)
        assert np.array_equal(a.emb.data, b.emb.data)
        assert np.array_equal(a.node_states.data, b.node_states.data)

    def test_encoding_shapes_and_composition(self):
        records = make_dataset(n_sources=4)
        vocab = TokenVocab.from_records(records)
        store = toy_store(len(vocab), seed=7)
        rec = records[1]
        enc = encode_function(rec, store, TOY, vocab)
        token_count = enc.emb.shape[0] - 1
        assert enc.node_states.shape == (len(rec.instructions), TOY.d_hidden)
        assert enc.h_G.shape == (TOY.d_hidden,)
        assert enc.h_inst.shape == (TOY.d_hidden,)
        assert np.array_equal(enc.emb.data[0], enc.h_G.data)
        states, pooled = transformer_encode(
            [int(i) for i in _flat_ids(rec, vocab)], store, TOY
        )
        assert token_count == states.shape[0]
        assert np.allclose(enc.emb.data[1:], states, atol=1e-12)
        assert np.allclose(enc.h_inst.data, pooled, atol=1e-12)

    def test_readout_projection_feeds_h_g(self):
        records = make_dataset(n_sources=3)
        vocab = TokenVocab.from_records(records)
        store = toy_store(len(vocab), seed=8)
        enc = encode_function(records[0], store, TOY, vocab)
        want = (
            enc.node_states.data.mean(axis=0) @ store.values["g_proj.w"]
            + store.values["g_proj.b"]
        )
        assert np.allclose(enc.h_G.data, want, atol=1e-12)

    def test_fifty_functions_encode_finite(self):
        records = make_dataset(n_sources=25)
        vocab = TokenVocab.from_records(records)
        store = toy_store(len(vocab), seed=9)
        assert len(records) == 50
        for rec in records:
            enc = encode_function(rec, store, TOY, vocab)
            assert np.isfinite(enc.emb.data).all()


def _flat_ids(rec, vocab):
    from fnpred.ingest import instruction_tokens, normalize_record

    norm = normalize_record(rec)
    return vocab.encode([t for ins in norm.instructions for t in instruction_tokens(ins)])


# -- pretraining losses ------------------------------------------------------------

class TestAlmLosses:
    def _vocab_store(self, seed=0):
        vocab = small_vocab()
        store = toy_store(len(vocab), seed=seed)
        return vocab, store

    def test_zeroed_mlm_head_gives_log_vocab_size(self):
        vocab, store = self._vocab_store()
        store.values["mlm.w"][:] = 0.0
        store.values["mlm.b"][:] = 0.0
        sample = InfillingSample(
            noised=["mov", MASK_TOKEN, "eax"], targets=[(0, ["add", "ebx"])]
        )
        loss = alm_losses([sample], store, TOY, vocab)
        assert loss.data == pytest.approx(math.log(len(vocab)), abs=1e-12)

    def test_zeroed_pair_head_gives_log_two(self):
        vocab, store = self._vocab_store()
        for head in ("cdi", "dui"):
            store.values[f"pair.{head}.w"][:] = 0.0
            store.values[f"pair.{head}.b"][:] = 0.0
        for task, label in (("CDI", "positive"), ("CDI", "negative"),
                            ("DUI", "positive"), ("DUI", "negative")):
            sample = InstructionPairSample(
                tokens_a=["mov", "eax"], tokens_b=["add", "ebx"], label=label, task=task
            )
            loss = alm_losses([sample], store, TOY, vocab)
            assert loss.data == pytest.approx(math.log(2.0), abs=1e-12)

    def test_mixed_batch_sums_per_task_means(self):
        vocab, store = self._vocab_store(seed=5)
        infill = [
            InfillingSample(noised=["mov", MASK_TOKEN], targets=[(0, ["eax"])]),
            InfillingSample(noised=[MASK_TOKEN, "ebx", "add"], targets=[(0, ["sub", "ecx"])]),
        ]
        cdi = [
            InstructionPairSample(["mov", "eax"], ["add", "ebx"], "positive", "CDI"),
            InstructionPairSample(["push", "esi"], ["pop", "edi"], "negative", "CDI"),
        ]
        dui = [InstructionPairSample(["mov", "eax"], ["sub", "ecx"], "positive", "DUI")]
        total = alm_losses(infill + cdi + dui, store, TOY, vocab).data
        parts = (
            alm_losses(infill, store, TOY, vocab).data
            + alm_losses(cdi, store, TOY, vocab).data
            + alm_losses(dui, store, TOY, vocab).data
        )
        assert total == pytest.approx(parts, abs=1e-12)

    def test_infilling_batch_without_targets_rejected(self):
        vocab, store = self._vocab_store()
        empty = InfillingSample(noised=["mov", MASK_TOKEN, "eax"], targets=[(0, [])])
        with pytest.raises(ValueError, match="zero prediction targets"):
            alm_losses([empty], store, TOY, vocab)

    def test_empty_batch_rejected(self):
        vocab, store = self._vocab_store()
        with pytest.raises(ValueError, match="empty pretraining batch"):
            alm_losses([], store, TOY, vocab)

    def test_unsupported_sample_type_rejected(self):
        vocab, store = self._vocab_store()
        with pytest.raises(TypeError, match="unsupported sample type"):
            alm_losses([object()], store, TOY, vocab)

    def test_gradients_reach_heads_and_embeddings(self):
        vocab, store = self._vocab_store(seed=2)
        tape = ParamTape(store, trainable=True)
        samples = [
            InfillingSample(noised=["mov", MASK_TOKEN], targets=[(0, ["eax"])]),
            InstructionPairSample(["mov", "eax"], ["add", "ebx"], "positive", "CDI"),
        ]
        loss = alm_losses(samples, tape, TOY, vocab)
        loss.backward()
        tape.flush_grads()
        assert np.abs(store.grads["mlm.w"]).max() > 0.0
        assert np.abs(store.grads["pair.cdi.w"]).max() > 0.0
        assert np.abs(store.grads["tok_emb"]).max() > 0.0
