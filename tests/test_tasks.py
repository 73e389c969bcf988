"""Tests for the task heads: name generation, similarity scoring, triplets."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import make_dataset, make_record
from fnpred.autograd import Tensor
from fnpred.encoder import EncoderConfig
from fnpred.params import ParamStore, ParamTape
from fnpred.tasks import (
    NAME_BOS,
    NAME_EOS,
    NAME_PAD,
    NAME_UNK,
    NameVocabulary,
    TrainTriplet,
    decode_step_probs,
    init_task_params,
    joint_loss,
    name_loss,
    predict_name,
    ranking_loss,
    sample_triplet,
    score_tensor,
    similarity_h_tensor,
)

TOY = EncoderConfig.toy()


def vocab10() -> NameVocabulary:
    # 4 control labels + 6 regular ones = |V| = 10
    return NameVocabulary.build([["set", "time"], ["get", "time"], ["msg", "send"],
                                 ["init"]])


def task_store(vocab_size: int, seed: int = 0, config: EncoderConfig = TOY) -> ParamStore:
    store = ParamStore(seed=seed)
    init_task_params(store, config, vocab_size)
    return store


def random_emb(rows: int = 4, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(rows, TOY.d_hidden))


# -- independent oracles ------------------------------------------------------

def ln_oracle(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return g * (centered / np.sqrt(var + 1e-5)) + b


def softmax_oracle(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def attention_oracle(v, prefix, queries, keys_values, n_heads, bias):
    d = queries.shape[1]
    d_head = d // n_heads
    scale = 1.0 / math.sqrt(d_head)
    q = queries @ v[f"{prefix}.wq"] + v[f"{prefix}.bq"]
    k = keys_values @ v[f"{prefix}.wk"]
    val = keys_values @ v[f"{prefix}.wv"] + v[f"{prefix}.bv"]
    heads = []
    for h in range(n_heads):
        sl = slice(h * d_head, (h + 1) * d_head)
        scores = q[:, sl] @ k[:, sl].T * scale
        if bias is not None:
            scores = scores + bias
        heads.append(softmax_oracle(scores) @ val[:, sl])
    return np.hstack(heads) @ v[f"{prefix}.wo"] + v[f"{prefix}.bo"]


def decoder_oracle(emb, prefix_ids, store, config):
    v = store.values
    ids = np.asarray(prefix_ids, dtype=np.int64)
    T = ids.size
    causal = np.where(np.triu(np.ones((T, T)), k=1) > 0, -1e30, 0.0)
    x = v["name_emb"][ids] + v["dec_pos_emb"][:T]
    for i in range(config.n_layers):
        p = f"dec{i}"
        n1 = ln_oracle(x, v[f"{p}.ln1.g"], v[f"{p}.ln1.b"])
        x = x + attention_oracle(v, f"{p}.self", n1, n1, config.n_heads, causal)
        n2 = ln_oracle(x, v[f"{p}.ln2.g"], v[f"{p}.ln2.b"])
        x = x + attention_oracle(v, f"{p}.cross", n2, emb, config.n_heads, None)
        n3 = ln_oracle(x, v[f"{p}.ln3.g"], v[f"{p}.ln3.b"])
        hidden = np.maximum(n3 @ v[f"{p}.ffn.w1"] + v[f"{p}.ffn.b1"], 0.0)
        x = x + (hidden @ v[f"{p}.ffn.w2"] + v[f"{p}.ffn.b2"])
    return ln_oracle(x, v["dec_final_ln.g"], v["dec_final_ln.b"])


def head_tape(w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> ParamTape:
    """A frozen tape holding only the similarity head's projections."""
    store = ParamStore()
    for name, value in (("sim.w1", w1), ("sim.b1", b1), ("sim.w2", w2), ("sim.b2", b2)):
        store.add(name, value)
    return ParamTape(store, trainable=False)


def identity_head(d: int) -> ParamTape:
    return head_tape(np.eye(d), np.zeros(d), np.eye(d), np.zeros(d))


def head_score(h1: np.ndarray, h2: np.ndarray, tape: ParamTape) -> float:
    return score_tensor(Tensor(np.asarray(h1, dtype=np.float64)),
                        Tensor(np.asarray(h2, dtype=np.float64)), tape).item()


# -- vocabulary ----------------------------------------------------------------

class TestNameVocabulary:
    def test_specials_lead_then_frequency_then_alpha(self):
        vocab = vocab10()
        assert vocab.id_to_label[:4] == ["[PAD]", "[BOS]", "[EOS]", "[UNK]"]
        assert vocab.id_to_label[4] == "time"  # count 2 beats the count-1 ties
        assert vocab.id_to_label[5:] == sorted(vocab.id_to_label[5:])
        assert len(vocab) == 10

    def test_encode_and_unknown(self):
        vocab = vocab10()
        assert vocab.encode(["time", "not_there"]) == [vocab.id("time"), NAME_UNK]
        assert vocab.label(vocab.id("time")) == "time"

    def test_min_count(self):
        vocab = NameVocabulary.build([["a", "b"], ["a"]], min_count=2)
        assert "a" in vocab.label_to_id and "b" not in vocab.label_to_id

    def test_save_load_round_trip(self, tmp_path):
        vocab = vocab10()
        path = str(tmp_path / "names.tsv")
        vocab.save(path)
        again = NameVocabulary.load(path)
        assert again.id_to_label == vocab.id_to_label
        assert again.counts == {l: vocab.counts.get(l, 0) for l in again.counts}

    def test_load_rejects_malformed_rows(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("[PAD]\t0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="label<TAB>id<TAB>count"):
            NameVocabulary.load(str(bad))
        skewed = tmp_path / "skewed.tsv"
        skewed.write_text("[PAD]\t0\t0\n[BOS]\t2\t0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="consecutive"):
            NameVocabulary.load(str(skewed))

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="control labels"):
            NameVocabulary(["set", "time"])
        with pytest.raises(ValueError, match="duplicate"):
            NameVocabulary(["[PAD]", "[BOS]", "[EOS]", "[UNK]", "x", "x"])


# -- decoding -------------------------------------------------------------------

class TestDecodeStepProbs:
    def test_probabilities_sum_to_one(self):
        vocab = vocab10()
        store = task_store(len(vocab), seed=1)
        probs = decode_step_probs(random_emb(seed=1), [NAME_BOS, 5], store, TOY)
        assert probs.shape == (len(vocab),)
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_zeroed_projection_gives_uniform(self):
        vocab = vocab10()
        store = task_store(len(vocab), seed=2)
        store.values["out_proj.w"][:] = 0.0
        store.values["out_proj.b"][:] = 0.0
        probs = decode_step_probs(random_emb(seed=2), [NAME_BOS], store, TOY)
        assert np.allclose(probs, 1.0 / len(vocab), atol=1e-15)

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_matches_naive_decoder_oracle(self, n_layers):
        config = EncoderConfig.toy(n_layers=n_layers)
        vocab = vocab10()
        for seed in range(3):
            store = task_store(len(vocab), seed=seed, config=config)
            emb = random_emb(rows=5, seed=seed + 10)
            prefix = [NAME_BOS, 4, 7]
            got = decode_step_probs(emb, prefix, store, config)
            states = decoder_oracle(emb, prefix, store, config)
            logits = states[-1] @ store.values["out_proj.w"] + store.values["out_proj.b"]
            assert np.allclose(got, softmax_oracle(logits[None, :])[0], atol=1e-8, rtol=1e-8)

    def test_prefix_validation(self):
        vocab = vocab10()
        store = task_store(len(vocab))
        emb = random_emb()
        with pytest.raises(ValueError, match="BOS"):
            decode_step_probs(emb, [], store, TOY)
        with pytest.raises(ValueError, match="BOS"):
            decode_step_probs(emb, [5, NAME_BOS], store, TOY)
        with pytest.raises(ValueError, match="sequence cap"):
            decode_step_probs(emb, [NAME_BOS] + [4] * TOY.seq_cap, store, TOY)

    def test_emb_validation(self):
        vocab = vocab10()
        store = task_store(len(vocab))
        with pytest.raises(ValueError, match="non-empty 2-D"):
            decode_step_probs(np.zeros((0, 16)), [NAME_BOS], store, TOY)
        with pytest.raises(ValueError, match="non-empty 2-D"):
            decode_step_probs(np.zeros(16), [NAME_BOS], store, TOY)


class TestNameLoss:
    def test_uniform_model_two_rows_gives_two_ln_ten(self):
        vocab = vocab10()
        store = task_store(len(vocab), seed=3)
        store.values["out_proj.w"][:] = 0.0
        store.values["out_proj.b"][:] = 0.0
        # one real label plus the appended EOS = two uniform predictions
        loss = name_loss(random_emb(seed=3), [5], store, TOY)
        assert loss.data == pytest.approx(2.0 * math.log(10.0), abs=1e-10)

    def test_pad_positions_contribute_nothing(self):
        vocab = vocab10()
        store = task_store(len(vocab), seed=4)
        store.values["out_proj.w"][:] = 0.0
        store.values["out_proj.b"][:] = 0.0
        emb = random_emb(seed=4)
        with_pad = name_loss(emb, [5, NAME_PAD], store, TOY)
        assert with_pad.data == pytest.approx(2.0 * math.log(10.0), abs=1e-10)

    def test_matches_naive_oracle(self):
        vocab = vocab10()
        for seed in range(3):
            store = task_store(len(vocab), seed=seed + 20)
            emb = random_emb(rows=3, seed=seed + 20)
            targets = [5, 8, 4]
            got = name_loss(emb, targets, store, TOY).data
            states = decoder_oracle(emb, [NAME_BOS] + targets, store, TOY)
            logits = states @ store.values["out_proj.w"] + store.values["out_proj.b"]
            logp = np.log(softmax_oracle(logits))
            full = targets + [NAME_EOS]
            want = -sum(logp[t, full[t]] for t in range(len(full)))
            assert got == pytest.approx(want, abs=1e-8)

    def test_nonnegative_and_positive_under_finite_logits(self):
        vocab = vocab10()
        for seed in range(5):
            store = task_store(len(vocab), seed=seed + 30)
            loss = name_loss(random_emb(seed=seed), [4, 6], store, TOY).data
            assert loss > 0.0

    def test_approaches_zero_as_gold_probability_approaches_one(self):
        vocab = vocab10()
        store = task_store(len(vocab), seed=5)
        store.values["out_proj.w"][:] = 0.0
        emb = random_emb(seed=5)
        losses = []
        for boost in (10.0, 20.0, 40.0):
            store.values["out_proj.b"][:] = 0.0
            store.values["out_proj.b"][5] = boost
            store.values["out_proj.b"][NAME_EOS] = boost
            # both rows now favor ids 5 and EOS equally; gold is 5 then EOS...
            losses.append(name_loss(emb, [5], store, TOY).data)
        assert losses[0] > losses[1] > losses[2] >= 0.0

    def test_empty_targets_rejected(self):
        vocab = vocab10()
        store = task_store(len(vocab))
        with pytest.raises(ValueError, match="empty"):
            name_loss(random_emb(), [], store, TOY)


class TestPredictName:
    def test_model_emitting_eos_first_returns_empty(self):
        vocab = vocab10()
        store = task_store(len(vocab), seed=6)
        store.values["out_proj.w"][:] = 0.0
        store.values["out_proj.b"][:] = 0.0
        store.values["out_proj.b"][NAME_EOS] = 5.0
        assert predict_name(random_emb(seed=6), store, TOY, vocab) == []

    def test_output_length_bounded_by_max_len(self):
        vocab = vocab10()
        store = task_store(len(vocab), seed=7)
        store.values["out_proj.w"][:] = 0.0
        store.values["out_proj.b"][:] = 0.0
        store.values["out_proj.b"][5] = 5.0  # argmax is always label id 5
        out = predict_name(random_emb(seed=7), store, TOY, vocab, max_len=4)
        assert out == [vocab.label(5)] * 4
        out8 = predict_name(random_emb(seed=7), store, TOY, vocab)
        assert len(out8) == 8

    def test_pad_argmax_stops_at_sequence_cap(self):
        vocab = vocab10()
        store = task_store(len(vocab), seed=9)
        store.values["out_proj.b"][NAME_PAD] = 100.0
        assert predict_name(random_emb(seed=9), store, TOY, vocab) == []

    def test_ties_take_lowest_id(self):
        vocab = vocab10()
        store = task_store(len(vocab), seed=8)
        store.values["out_proj.w"][:] = 0.0
        store.values["out_proj.b"][:] = 0.0
        store.values["out_proj.b"][5] = 5.0
        store.values["out_proj.b"][6] = 5.0
        out = predict_name(random_emb(seed=8), store, TOY, vocab, max_len=1)
        assert out == [vocab.label(5)]


# -- similarity -------------------------------------------------------------------

class TestSimilarityH:
    def test_single_position_is_tanh(self):
        v = np.array([[0.0, 1.0, -2.0, 0.5]])
        assert np.allclose(similarity_h_tensor(v).data, np.tanh(v[0]), atol=1e-15)

    def test_components_stay_inside_open_interval(self):
        emb = np.random.default_rng(1).normal(scale=5.0, size=(6, 8))
        h = similarity_h_tensor(emb).data
        assert np.all(np.abs(h) < 1.0)

    def test_matches_per_dimension_max_oracle_on_5x8(self):
        emb = np.random.default_rng(2).normal(size=(5, 8))
        want = np.empty(8)
        for dim in range(8):
            best = emb[0, dim]
            for row in range(1, 5):
                if emb[row, dim] > best:
                    best = emb[row, dim]
            want[dim] = math.tanh(best)
        assert np.allclose(similarity_h_tensor(emb).data, want, atol=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="non-empty 2-D"):
            similarity_h_tensor(np.zeros((0, 4)))


class TestScore:
    def test_identity_head_identical_vectors(self):
        h = np.array([0.3, -1.2, 0.8])
        head = identity_head(3)
        assert head_score(h, h, head) == pytest.approx(1.0, abs=1e-12)

    def test_identity_head_negated_vector(self):
        h = np.array([0.3, -1.2, 0.8])
        head = identity_head(3)
        assert head_score(h, -h, head) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_cosine_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            w1, b1 = rng.normal(size=(d, d)), rng.normal(size=d)
            w2, b2 = rng.normal(size=(d, d)), rng.normal(size=d)
            head = head_tape(w1, b1, w2, b2)
            h1, h2 = rng.normal(size=d), rng.normal(size=d)
            p1 = h1 @ w1 + b1
            p2 = h2 @ w2 + b2
            want = float(np.dot(p1, p2) / (np.linalg.norm(p1) * np.linalg.norm(p2)))
            got = head_score(h1, h2, head)
            assert got == pytest.approx(want, abs=1e-12)
            assert -1.0 <= got <= 1.0

    def test_invariant_to_positive_rescaling_of_projections(self):
        rng = np.random.default_rng(4)
        d = 5
        w1, w2 = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        h1, h2 = rng.normal(size=d), rng.normal(size=d)
        base = head_tape(w1, np.zeros(d), w2, np.zeros(d))
        scaled = head_tape(3.7 * w1, np.zeros(d), 0.2 * w2, np.zeros(d))
        assert head_score(h1, h2, base) == pytest.approx(head_score(h1, h2, scaled), abs=1e-12)

    def test_degenerate_projection_rejected(self):
        d = 4
        head = head_tape(np.zeros((d, d)), np.zeros(d), np.eye(d), np.zeros(d))
        with pytest.raises(ValueError, match="degenerate projection"):
            head_score(np.ones(d), np.ones(d), head)

    def test_score_tensor_matches_plain_score_and_backprops(self):
        vocab = vocab10()
        store = task_store(len(vocab), seed=9)
        v = store.values
        rng = np.random.default_rng(9)
        h1, h2 = rng.normal(size=16), rng.normal(size=16)
        tape = ParamTape(store, trainable=True)
        out = score_tensor(similarity_h_tensor(h1[None, :]),
                           similarity_h_tensor(h2[None, :]), tape)
        p1 = np.tanh(h1) @ v["sim.w1"] + v["sim.b1"]
        p2 = np.tanh(h2) @ v["sim.w2"] + v["sim.b2"]
        want = float(np.dot(p1, p2) / (np.linalg.norm(p1) * np.linalg.norm(p2)))
        assert out.data == pytest.approx(want, abs=1e-12)
        out.backward()
        tape.flush_grads()
        assert np.abs(store.grads["sim.w1"]).max() > 0.0
        assert np.abs(store.grads["sim.w2"]).max() > 0.0


class TestRankingLoss:
    def test_hand_values(self):
        assert ranking_loss(0.9, 0.2, 0.5) == pytest.approx(0.0)
        assert ranking_loss(0.3, 0.2, 0.5) == pytest.approx(0.4)

    def test_equal_scores_cost_the_margin(self):
        assert ranking_loss(0.4, 0.4, 0.5) == pytest.approx(0.5)

    def test_zero_iff_pos_exceeds_neg_by_margin(self):
        # binary-exact operands keep the hinge boundary sharp
        assert ranking_loss(0.875, 0.25, 0.5) == 0.0
        assert ranking_loss(0.75, 0.25, 0.5) == 0.0
        assert ranking_loss(0.625, 0.25, 0.5) > 0.0

    def test_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            f_pos, f_neg = rng.uniform(-1, 1, size=2)
            bump = float(rng.uniform(0, 0.5))
            base = ranking_loss(f_pos, f_neg, 0.5)
            assert ranking_loss(f_pos + bump, f_neg, 0.5) <= base
            assert ranking_loss(f_pos, f_neg + bump, 0.5) >= base
            assert base >= 0.0

    def test_inverted_variant_flips_the_hinge(self):
        assert ranking_loss(0.9, 0.2, 0.5, variant="inverted") == pytest.approx(0.2)
        assert ranking_loss(0.3, 0.2, 0.5, variant="inverted") == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="margin"):
            ranking_loss(0.5, 0.1, 0.0)
        with pytest.raises(ValueError, match="variant"):
            ranking_loss(0.5, 0.1, 0.5, variant="relu")


class TestJointLoss:
    def test_weighted_sum(self):
        assert joint_loss(2.0, 0.5, 1.0, 1.0) == pytest.approx(2.5)

    def test_lambda2_zero_is_generation_only(self):
        assert joint_loss(2.0, 123.0, 0.7, 0.0) == pytest.approx(1.4)

    def test_scaling_both_weights_scales_the_loss(self):
        base = joint_loss(1.5, 0.25, 0.8, 1.2)
        assert joint_loss(1.5, 0.25, 2.4, 3.6) == pytest.approx(3.0 * base)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            joint_loss(1.0, 1.0, -0.1, 1.0)

    def test_gradient_is_weighted_sum_of_task_gradients(self):
        vocab = vocab10()
        store = task_store(len(vocab), seed=11)
        rng = np.random.default_rng(11)
        emb = rng.normal(size=(3, TOY.d_hidden))
        h1, h2, h3 = (rng.normal(size=TOY.d_hidden) for _ in range(3))
        lam1, lam2 = 0.7, 1.3

        def run(build):
            store.zero_grads()
            tape = ParamTape(store, trainable=True)
            build(tape).backward()
            tape.flush_grads()
            return {k: g.copy() for k, g in store.grads.items()}

        def j_cg(tape):
            return name_loss(emb, [5, 8], tape, TOY)

        def j_cs(tape):
            f_pos = score_tensor(similarity_h_tensor(h1[None, :]),
                                 similarity_h_tensor(h2[None, :]), tape)
            f_neg = score_tensor(similarity_h_tensor(h1[None, :]),
                                 similarity_h_tensor(h3[None, :]), tape)
            return ranking_loss(f_pos, f_neg, 0.5)

        g_joint = run(lambda tape: joint_loss(j_cg(tape), j_cs(tape), lam1, lam2))
        g_cg = run(j_cg)
        g_cs = run(j_cs)
        for nm in store.names():
            want = lam1 * g_cg[nm] + lam2 * g_cs[nm]
            assert np.allclose(g_joint[nm], want, atol=1e-10), nm


# -- triplet sampling ---------------------------------------------------------------

class TestSampleTriplet:
    def _abc(self):
        records = [
            make_record("a0", "alpha_one", "src_a", opt="O0"),
            make_record("a2", "alpha_one", "src_a", opt="O2"),
            make_record("b0", "beta_two", "src_b", opt="O0"),
        ]
        labels = [["alpha", "one"], ["alpha", "one"], ["beta", "two"]]
        return records, labels

    def test_three_record_enumeration(self):
        records, labels = self._abc()
        for seed in range(10):
            t = sample_triplet(records, labels, seed)
            assert {t.anchor, t.positive} == {0, 1}
            assert t.negative == 2

    def test_negative_never_shares_anchor_name(self):
        records = make_dataset(n_sources=30)  # names wrap; duplicates exist
        labels = [rec.name.split("_") for rec in records]
        for seed in range(50):
            t = sample_triplet(records, labels, seed)
            assert labels[t.negative] != labels[t.anchor]
            assert records[t.positive].source_id == records[t.anchor].source_id
            assert records[t.positive].opt != records[t.anchor].opt

    def test_same_seed_same_triplets(self):
        records = make_dataset(n_sources=10)
        labels = [rec.name.split("_") for rec in records]
        first = [sample_triplet(records, labels, np.random.default_rng(4)) for _ in range(5)]
        second = [sample_triplet(records, labels, np.random.default_rng(4)) for _ in range(5)]
        assert first == second
        assert all(isinstance(t, TrainTriplet) for t in first)

    def test_no_positive_anywhere_rejected(self):
        records = [
            make_record("a0", "alpha_one", "src_a", opt="O0"),
            make_record("b0", "beta_two", "src_b", opt="O0"),
        ]
        labels = [["alpha", "one"], ["beta", "two"]]
        with pytest.raises(ValueError, match="different-optimization positive"):
            sample_triplet(records, labels, 0)

    def test_no_differently_named_record_rejected(self):
        records = [
            make_record("a0", "alpha_one", "src_a", opt="O0"),
            make_record("a2", "alpha_one", "src_a", opt="O2"),
        ]
        labels = [["alpha", "one"], ["alpha", "one"]]
        with pytest.raises(ValueError, match="different name"):
            sample_triplet(records, labels, 0)

    def test_length_mismatch_rejected(self):
        records, labels = self._abc()
        with pytest.raises(ValueError, match="align"):
            sample_triplet(records, labels[:2], 0)
