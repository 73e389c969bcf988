"""Convention splits, the three tokenizers, voting, and the full pipeline."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnpred.tokenizer import (
    RuleLexicon,
    TokenizerPipeline,
    build_pipeline,
    bundled_corpus,
    bundled_lexicon,
    default_pipeline,
    expand_abbreviations,
    parse_lexicon,
    preprocess_name,
    rule_tokenize,
    split_by_convention,
    tf_tokenize,
    tokenize_name,
    train_tf_model,
    train_unigram,
    unigram_tokenize,
    vote,
)


@pytest.fixture(scope="module")
def pipeline() -> TokenizerPipeline:
    return default_pipeline()


class TestConventionSplit:
    def test_camel_case(self):
        assert split_by_convention("getTableSize") == ["get", "table", "size"]

    def test_snake_case(self):
        assert split_by_convention("set_rand") == ["set", "rand"]

    def test_digit_runs_kept(self):
        assert split_by_convention("x2realloc") == ["x", "2", "realloc"]

    def test_consecutive_capitals_stay_together(self):
        assert split_by_convention("parseCFGNode")[:1] == ["parse"]

    def test_punctuation_dropped(self):
        assert split_by_convention("__init__.part") == ["init", "part"]


class TestTFModel:
    def test_tiny_corpus_counts(self):
        model = train_tf_model(["ab"], max_n=2)
        assert model.ngram_counts == {"a": 1, "b": 1, "ab": 1}
        assert model.forward_tf == {"a": {"b": 1}}
        assert model.backward_tf == {"b": {"a": 1}}

    def test_empty_string_corpus_empty_model(self):
        model = train_tf_model([""], max_n=3)
        assert model.ngram_counts == {}

    def test_repeated_char_counts(self):
        model = train_tf_model(["aa"], max_n=2)
        assert model.ngram_counts == {"a": 2, "aa": 1}

    def test_bad_max_n_rejected(self):
        with pytest.raises(ValueError):
            train_tf_model(["ab"], max_n=0)

    def test_boundary_found_in_pairwise_corpus(self):
        words = ["set", "get", "put"]
        pairs = [a + b for a, b in itertools.product(words, words)]
        corpus = list(itertools.islice(itertools.cycle(pairs), 50))
        model = train_tf_model(corpus, max_n=5)
        assert 3 in tf_tokenize(model, "setget")

    def test_unknown_alphabet_no_peaks(self):
        words = ["set", "get", "put"]
        corpus = [a + b for a, b in itertools.product(words, words)]
        model = train_tf_model(corpus, max_n=5)
        assert tf_tokenize(model, "zxqw") == set()

    def test_short_names_have_no_cuts(self):
        model = train_tf_model(["ab"], max_n=2)
        assert tf_tokenize(model, "a") == set()


class TestUnigramModel:
    def test_add_one_smoothing(self):
        model = train_unigram([["set", "time"], ["set"]])
        assert model.label_probs["set"] == pytest.approx(0.6)
        assert model.label_probs["time"] == pytest.approx(0.4)

    def test_single_label_probability_one(self):
        model = train_unigram([["x"]])
        assert model.label_probs["x"] == pytest.approx(1.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_unigram([])

    def test_forward_max_match(self):
        model = train_unigram([["set"], ["time"]])
        assert unigram_tokenize(model, "settime") == {3}

    def test_longest_prefix_failure_mode(self):
        model = train_unigram([["times"], ["set"]])
        assert unigram_tokenize(model, "timeset") == {5, 6}

    def test_name_fully_in_vocab(self):
        model = train_unigram([["set"], ["time"]])
        assert unigram_tokenize(model, "set") == set()


class TestRuleTokenize:
    def test_covered_length_beats_longest_prefix(self):
        lexicon = RuleLexicon(words={"time", "times", "set"}, abbreviations={})
        assert rule_tokenize(lexicon, "timeset") == {4}

    def test_resolve_builtin(self):
        lexicon = RuleLexicon(words={"resolve", "builtin"}, abbreviations={})
        assert rule_tokenize(lexicon, "resolvebuiltin") == {7}

    def test_single_lexicon_word_no_cuts(self):
        lexicon = RuleLexicon(words={"resolve"}, abbreviations={})
        assert rule_tokenize(lexicon, "resolve") == set()

    def test_empty_name(self):
        assert rule_tokenize(RuleLexicon(words=set(), abbreviations={}), "") == set()

    def test_abbreviations_count_as_coverage(self):
        lexicon = RuleLexicon(words={"send"}, abbreviations={"msg": "message"})
        assert rule_tokenize(lexicon, "msgsend") == {3}


def exhaustive_rule_oracle(lexicon: RuleLexicon, name: str) -> set[int]:
    """Enumerate every cut subset; multi-char segments must be lexicon entries."""
    entries = set(lexicon.words) | set(lexicon.abbreviations)
    n = len(name)
    best_key = None
    best_cuts: set[int] = set()
    for mask in range(1 << max(n - 1, 0)):
        cuts = tuple(p for p in range(1, n) if mask & (1 << (p - 1)))
        bounds = [0, *cuts, n]
        segments = [name[a:b] for a, b in zip(bounds, bounds[1:])]
        if any(len(s) > 1 and s not in entries for s in segments):
            continue
        covered = sum(len(s) for s in segments if s in entries)
        key = (-covered, len(segments), cuts)
        if best_key is None or key < best_key:
            best_key = key
            best_cuts = set(cuts)
    return best_cuts


class TestRuleOracle:
    def test_matches_exhaustive_enumeration(self):
        import numpy as np

        words = [
            "set", "get", "put", "time", "times", "zip", "file", "next", "no",
            "more", "args", "type", "name", "mod", "resolve", "built", "in",
            "at", "exit", "read",
        ]
        lexicon = RuleLexicon(words=set(words), abbreviations={})
        rng = np.random.default_rng(17)
        alphabet = list("setgpuimznofargdxtlbv")
        for _ in range(100):
            if rng.random() < 0.5:
                k = int(rng.integers(1, 4))
                name = "".join(words[int(rng.integers(len(words)))] for _ in range(k))[:10]
            else:
                name = "".join(rng.choice(alphabet, size=rng.integers(1, 11)))
            assert rule_tokenize(lexicon, name) == exhaustive_rule_oracle(lexicon, name), name


class TestVote:
    def test_majority_plus_pending(self):
        assert vote({3}, {3}, {3, 7}) == {3, 7}

    def test_all_empty(self):
        assert vote(set(), set(), set()) == set()

    def test_tie_break_prefers_rule(self):
        assert vote({2}, {5}, {7}) == {7}

    def test_output_within_union(self):
        got = vote({1, 2}, {2, 3}, {3, 4})
        assert got <= {1, 2, 3, 4}

    def test_overlap_resolution_drops_word_chopping_cut(self):
        lexicon = RuleLexicon(words={"set", "time"}, abbreviations={})
        assert vote({3}, {3}, {3, 4}, name="settime", lexicon=lexicon) == {3}
        assert vote({3}, {3}, {3, 4}) == {3, 4}  # no lexicon: cut survives


class TestFullPipeline:
    def test_zipfile_next(self, pipeline):
        assert tokenize_name(pipeline, "zipfileNext") == ["zip", "file", "next"]

    def test_typename_type_mod(self, pipeline):
        assert tokenize_name(pipeline, "typenameTypeMod") == ["type", "name", "type", "mod"]

    def test_atexit(self, pipeline):
        assert tokenize_name(pipeline, "atexit") == ["at", "exit"]

    def test_timeset(self, pipeline):
        assert tokenize_name(pipeline, "timeset") == ["time", "set"]

    def test_empty_name_rejected(self, pipeline):
        with pytest.raises(ValueError):
            tokenize_name(pipeline, "")

    def test_no_alnum_rejected(self, pipeline):
        with pytest.raises(ValueError):
            tokenize_name(pipeline, "___")

    def test_digit_segments_pass_through(self, pipeline):
        assert "2" in tokenize_name(pipeline, "x2realloc")

    def test_expand_abbreviations(self, pipeline):
        assert expand_abbreviations(["msg", "send"], pipeline.lexicon) == ["message", "send"]
        assert expand_abbreviations(["lst"], pipeline.lexicon) == ["list"]

    def test_preprocess_combines_both_steps(self, pipeline):
        assert preprocess_name(pipeline, "msgSend") == ["message", "send"]
        assert preprocess_name(pipeline, "msgSend", expand=False) == ["msg", "send"]

    @given(
        parts=st.lists(
            st.sampled_from(["set", "get", "time", "zip", "file", "read", "x", "2", "buf"]),
            min_size=1,
            max_size=4,
        ),
        style=st.sampled_from(["snake", "camel"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_labels_cover_stripped_name(self, pipeline, parts, style):
        if style == "snake":
            name = "_".join(parts)
        else:
            name = parts[0] + "".join(p.capitalize() for p in parts[1:])
        labels = tokenize_name(pipeline, name)
        assert "".join(labels) == "".join(split_by_convention(name))
        assert all(labels), "no empty labels"


class TestLexiconParsing:
    def test_words_and_abbreviations(self):
        lexicon = parse_lexicon(["time", "set", "msg\tmessage", "# comment", ""])
        assert {"time", "set"} <= lexicon.words
        assert lexicon.abbreviations["msg"] == "message"

    def test_short_form_longer_than_expansion_rejected(self):
        with pytest.raises(ValueError):
            parse_lexicon(["messages\tmsg"])

    def test_bundled_data_loads(self):
        lexicon = bundled_lexicon()
        corpus = bundled_corpus()
        assert "time" in lexicon.words and "set" in lexicon.words
        assert corpus and all(isinstance(row, list) for row in corpus)

    def test_build_pipeline_deterministic(self):
        corpus, lexicon = bundled_corpus(), bundled_lexicon()
        a, b = build_pipeline(corpus, lexicon), build_pipeline(corpus, lexicon)
        assert a.tf.ngram_counts == b.tf.ngram_counts
        assert a.unigram.label_probs == b.unigram.label_probs
