"""Tests for the pretraining sample generators (infilling, CDI, DUI)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import defuse_chain_record, make_dataset, make_record
from fnpred.encoder import TokenVocab
from fnpred.ingest import FunctionRecord, Instruction, compute_defuse_pairs, normalize_record, record_tokens
from fnpred.pretrain import (
    MASK_TOKEN,
    InfillingSample,
    cdi_pairs,
    derive_function_seed,
    dui_pairs,
    generate_pretrain_lines,
    infilling_sample_to_json,
    pair_sample_to_json,
    reconstruct_infilling,
    text_infilling,
)

# Distinct mnemonics so a sample's token lists identify instruction indices.
_PAIR_MNEMONICS = ["mov", "add", "sub", "xor", "push", "pop", "lea", "cmp", "inc", "dec"]


def one_block_record(n: int, rec_id: str = "f0") -> FunctionRecord:
    instructions = [
        Instruction(index=j, mnemonic=_PAIR_MNEMONICS[j], operands=["eax"], block_id=0)
        for j in range(n)
    ]
    edges = [(j, j + 1, "fallthrough") for j in range(n - 1)]
    return FunctionRecord(
        id=rec_id, name="demo", source_id="s0", arch="x86", opt="O0",
        instructions=instructions, edges=edges,
    )


def recover_pair_indices(samples, rec: FunctionRecord) -> list[tuple[int, int, str]]:
    """Map each sample back to (i, j, label) via its distinct mnemonics."""
    by_mnemonic = {ins.mnemonic: ins.index for ins in rec.instructions}
    assert len(by_mnemonic) == len(rec.instructions), "fixture mnemonics must be unique"
    return [(by_mnemonic[s.tokens_a[0]], by_mnemonic[s.tokens_b[0]], s.label) for s in samples]


def block_local_positions(rec: FunctionRecord) -> dict[int, tuple[object, int]]:
    positions: dict[int, tuple[object, int]] = {}
    seen: dict[object, int] = {}
    for i, ins in enumerate(rec.instructions):
        pos = seen.get(ins.block_id, 0)
        positions[i] = (ins.block_id, pos)
        seen[ins.block_id] = pos + 1
    return positions


def cdi_predicate(rec: FunctionRecord, i: int, j: int, w: int) -> bool:
    positions = block_local_positions(rec)
    (bi, pi), (bj, pj) = positions[i], positions[j]
    return bi == bj and 1 <= abs(pi - pj) <= w


class TestTextInfilling:
    def test_forced_span_example(self):
        sample = text_infilling(["mov", "eax", "<imm>"], 2 / 3, rng_seed=1)
        assert sample.noised == ["mov", MASK_TOKEN]
        assert sample.targets == [(0, ["eax", "<imm>"])]
        assert reconstruct_infilling(sample) == ["mov", "eax", "<imm>"]

    def test_zero_budget_returns_input_unchanged(self):
        tokens = ["mov", "eax", "<imm>"]
        sample = text_infilling(tokens, 0.05, rng_seed=3)
        assert sample.noised == tokens
        assert sample.targets == []

    def test_single_token_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            text_infilling(["ret"], 0.5, rng_seed=0)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.2, 1.7])
    def test_mask_ratio_bounds_rejected(self, ratio):
        with pytest.raises(ValueError, match="mask_ratio"):
            text_infilling(["mov", "eax"], ratio, rng_seed=0)

    def test_zero_length_span_inserts_bare_sentinel(self):
        tokens = ["mov", "eax", "<imm>", "add", "ebx", "eax",
                  "sub", "ecx", "edx", "push", "esi", "pop"]
        sample = text_infilling(tokens, 0.25, rng_seed=29)
        assert any(span == [] for _, span in sample.targets)
        assert sample.mask_count() == len(sample.targets)
        assert reconstruct_infilling(sample) == tokens

    def test_multiple_spans_keep_slot_order(self):
        tokens = ["mov", "eax", "<imm>", "add", "ebx", "eax",
                  "sub", "ecx", "edx", "push", "esi", "pop"]
        sample = text_infilling(tokens, 0.4, rng_seed=0)
        assert sum(1 for _, span in sample.targets if span) >= 2
        assert [slot for slot, _ in sample.targets] == list(range(len(sample.targets)))
        assert reconstruct_infilling(sample) == tokens

    def test_deterministic_given_seed(self):
        tokens = ["mov", "eax", "add", "ebx", "sub", "ecx", "push", "pop"]
        a = text_infilling(tokens, 0.3, rng_seed=11)
        b = text_infilling(tokens, 0.3, rng_seed=11)
        assert a.noised == b.noised and a.targets == b.targets

    def test_reconstruction_round_trip_1000_random_cases(self):
        alphabet = ["mov", "add", "sub", "eax", "ebx", "<imm>", "<loc>", "push"]
        rng = np.random.default_rng(7)
        for case in range(1000):
            n = int(rng.integers(2, 40))
            tokens = [alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(n)]
            ratio = float(rng.uniform(0.05, 0.9))
            sample = text_infilling(tokens, ratio, rng_seed=case)
            assert sample.mask_count() == len(sample.targets)
            masked_total = sum(len(span) for _, span in sample.targets)
            assert masked_total <= round(ratio * n)
            assert reconstruct_infilling(sample) == tokens

    def test_reconstruct_rejects_mismatched_sentinels(self):
        broken = InfillingSample(noised=["mov", MASK_TOKEN], targets=[])
        with pytest.raises(KeyError):
            reconstruct_infilling(broken)
        extra = InfillingSample(noised=["mov"], targets=[(0, ["eax"])])
        with pytest.raises(ValueError, match="sentinel count"):
            reconstruct_infilling(extra)


class TestCdiPairs:
    def test_window_positive_example(self):
        rec = one_block_record(5)
        pairs = recover_pair_indices(cdi_pairs(rec, w=2, rng_seed=0), rec)
        assert (0, 2, "positive") in pairs

    def test_beyond_window_is_negative(self):
        rec = one_block_record(5)
        pairs = recover_pair_indices(cdi_pairs(rec, w=2, rng_seed=0), rec)
        positives = {(i, j) for i, j, label in pairs if label == "positive"}
        assert (0, 3) not in positives
        # 7 positives vs 3 window violators: sampling exhausts the violators.
        negatives = {(i, j) for i, j, label in pairs if label == "negative"}
        assert negatives == {(0, 3), (0, 4), (1, 4)}

    def test_single_instruction_no_samples(self):
        assert cdi_pairs(one_block_record(1), w=2, rng_seed=0) == []

    def test_w_validation(self):
        with pytest.raises(ValueError, match="w must be"):
            cdi_pairs(one_block_record(3), w=0, rng_seed=0)

    @pytest.mark.parametrize("salt", range(6))
    def test_predicate_invariant_on_multiblock_records(self, salt):
        rec = make_record("f", "demo_name", "s", n_instructions=6 + salt % 4, salt=salt)
        w = 1 + salt % 3
        samples = cdi_pairs(rec, w=w, negatives_per_positive=2, rng_seed=salt)
        # make_record mnemonics are distinct for <= 10 instructions
        pairs = recover_pair_indices(samples, rec)
        for i, j, label in pairs:
            assert cdi_predicate(rec, i, j, w) == (label == "positive")

    def test_negative_count_balance(self):
        rec = one_block_record(8)
        n_all = 8 * 7 // 2
        n_pos = sum(1 for i in range(8) for j in range(i + 1, 8) if 1 <= j - i <= 2)
        n_violators = n_all - n_pos
        for npp in (1, 2, 3):
            samples = cdi_pairs(rec, w=2, negatives_per_positive=npp, rng_seed=4)
            n_neg = sum(1 for s in samples if s.label == "negative")
            assert n_neg == min(npp * n_pos, n_violators)

    def test_deterministic_given_seed(self):
        rec = make_record("f", "demo_name", "s", n_instructions=9, salt=2)
        a = cdi_pairs(rec, w=2, negatives_per_positive=3, rng_seed=5)
        b = cdi_pairs(rec, w=2, negatives_per_positive=3, rng_seed=5)
        assert [(s.tokens_a, s.tokens_b, s.label) for s in a] == [
            (s.tokens_a, s.tokens_b, s.label) for s in b
        ]

    def test_sample_fields(self):
        for s in cdi_pairs(one_block_record(5), w=2, rng_seed=0):
            assert s.task == "CDI"
            assert s.label in ("positive", "negative")
            assert s.tokens_a and s.tokens_b


class TestDuiPairs:
    def _defuse_record(self) -> FunctionRecord:
        instructions = [
            Instruction(index=0, mnemonic="mov", operands=["eax", "0x1"], block_id=0),
            Instruction(index=1, mnemonic="add", operands=["ebx", "eax"], block_id=0),
        ]
        return FunctionRecord(
            id="f0", name="demo", source_id="s0", arch="x86", opt="O0",
            instructions=instructions, edges=[(0, 1, "fallthrough")],
        )

    def test_defuse_positive_example(self):
        rec = self._defuse_record()
        pairs = recover_pair_indices(dui_pairs(rec, rng_seed=0), rec)
        assert (0, 1, "positive") in pairs

    def test_reversed_pair_never_positive(self):
        rec = self._defuse_record()
        pairs = recover_pair_indices(dui_pairs(rec, rng_seed=0), rec)
        assert all(not (i == 1 and j == 0) for i, j, label in pairs if label == "positive")

    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    def test_positives_match_defuse_exactly(self, n):
        rec = defuse_chain_record(n)
        samples = dui_pairs(rec, negatives_per_positive=2, rng_seed=n)
        positives = {
            (i, j) for i, j, label in recover_pair_indices(samples, rec) if label == "positive"
        }
        assert positives == set(compute_defuse_pairs(rec))
        assert positives, "chain record must produce def-use flow"

    def test_negatives_avoid_defuse_pairs(self):
        rec = defuse_chain_record(8)
        samples = dui_pairs(rec, negatives_per_positive=3, rng_seed=9)
        defuse = set(compute_defuse_pairs(rec))
        for i, j, label in recover_pair_indices(samples, rec):
            if label == "negative":
                assert (i, j) not in defuse
                assert i != j

    def test_empty_defuse_emits_nothing(self):
        instructions = [
            Instruction(index=0, mnemonic="mov", operands=["eax", "0x1"], block_id=0),
            Instruction(index=1, mnemonic="mov", operands=["ebx", "0x2"], block_id=0),
        ]
        rec = FunctionRecord(
            id="f0", name="demo", source_id="s0", arch="x86", opt="O0",
            instructions=instructions, edges=[(0, 1, "fallthrough")],
        )
        assert compute_defuse_pairs(rec) == []
        assert dui_pairs(rec, rng_seed=0) == []

    def test_deterministic_given_seed(self):
        rec = defuse_chain_record(9)
        a = dui_pairs(rec, negatives_per_positive=2, rng_seed=6)
        b = dui_pairs(rec, negatives_per_positive=2, rng_seed=6)
        assert [(s.tokens_a, s.tokens_b, s.label) for s in a] == [
            (s.tokens_a, s.tokens_b, s.label) for s in b
        ]


class TestSeedsAndLines:
    def test_function_seed_stable_and_sensitive(self):
        assert derive_function_seed(7, "fn001") == derive_function_seed(7, "fn001")
        assert derive_function_seed(7, "fn001") != derive_function_seed(7, "fn002")
        assert derive_function_seed(7, "fn001") != derive_function_seed(8, "fn001")
        assert derive_function_seed(0, "fn001") >= 0

    @pytest.mark.parametrize("task", ["infill", "cdi", "dui"])
    def test_lines_byte_identical_across_runs(self, task):
        records = make_dataset(n_sources=6) + [
            defuse_chain_record(5, rec_id="chain0"), defuse_chain_record(8, rec_id="chain1")
        ]
        first = generate_pretrain_lines(records, task, seed=3)
        second = generate_pretrain_lines(records, task, seed=3)
        assert first == second
        assert first, "expected at least one sample line"
        for line in first:
            payload = json.loads(line)
            assert payload["task"] == {"infill": "infill", "cdi": "CDI", "dui": "DUI"}[task]

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown pretraining task"):
            generate_pretrain_lines([], "masking", seed=0)

    def test_infill_skips_functions_with_fewer_than_two_tokens(self):
        tiny = FunctionRecord(
            id="tiny", name="t", source_id="s0", arch="x86", opt="O0",
            instructions=[Instruction(index=0, mnemonic="ret", operands=[], block_id=0)],
            edges=[],
        )
        normal = make_record("big", "demo_name", "s1", n_instructions=6)
        lines = generate_pretrain_lines([tiny, normal], "infill", seed=0)
        assert {json.loads(line)["function"] for line in lines} == {"big"}

    def test_per_function_samples_independent_of_record_order(self):
        records = make_dataset(n_sources=4)
        forward = generate_pretrain_lines(records, "cdi", seed=5)
        backward = generate_pretrain_lines(list(reversed(records)), "cdi", seed=5)
        assert sorted(forward) == sorted(backward)

    def test_seed_changes_infill_output(self):
        records = make_dataset(n_sources=4)
        assert generate_pretrain_lines(records, "infill", seed=0) != generate_pretrain_lines(
            records, "infill", seed=1
        )

    def test_sample_json_round_trips(self):
        rec = one_block_record(5)
        infill = text_infilling(["mov", "eax", "<imm>", "add"], 0.5, rng_seed=2)
        payload = json.loads(infilling_sample_to_json("f9", infill))
        assert payload["function"] == "f9"
        assert payload["noised"] == infill.noised
        assert payload["targets"] == [[slot, span] for slot, span in infill.targets]
        pair = cdi_pairs(rec, w=2, rng_seed=0)[0]
        payload = json.loads(pair_sample_to_json("f9", pair))
        assert payload == {
            "function": "f9",
            "task": "CDI",
            "tokens_a": pair.tokens_a,
            "tokens_b": pair.tokens_b,
            "label": pair.label,
        }


# -- one token path --------------------------------------------------------------

def raw_mixed_record() -> FunctionRecord:
    """Unnormalized input: mixed-case mnemonics and registers, a large
    immediate, a branch target and a quoted literal."""
    rows = [
        ("MOV", ["EAX", "0x4005d0"], 0),
        ("Cmp", ["eax", "0x10"], 0),
        ("JNE", ["0x401a2c"], 0),
        ("Push", ['"fmt"'], 1),
        ("CALL", ["printf"], 1),
        ("Xor", ["eax", "EAX"], 1),
        ("RET", [], 1),
    ]
    instructions = [
        Instruction(index=j, mnemonic=m, operands=ops, block_id=b) for j, (m, ops, b) in enumerate(rows)
    ]
    return FunctionRecord(
        id="raw0", name="emit_fmt", source_id="s0", arch="x86", opt="O0",
        instructions=instructions, edges=[(2, 4, "jump")],
    )


class TestRecordTokens:
    def test_every_consumer_sees_record_tokens(self):
        rec = raw_mixed_record()
        rows = record_tokens(rec)
        assert rows == [
            ["mov", "eax", "<imm>"],
            ["cmp", "eax", "0x10"],
            ["jne", "<loc>"],
            ["push", "<str>"],
            ["call", "printf"],
            ["xor", "eax", "eax"],
            ["ret"],
        ]
        assert record_tokens(rec) == record_tokens(normalize_record(rec))

        vocab = TokenVocab.from_records([rec])
        assert set(vocab.id_to_label[4:]) == {tok for row in rows for tok in row}

        cdi, dui = cdi_pairs(rec, rng_seed=1), dui_pairs(rec, rng_seed=1)
        assert cdi and dui
        for sample in cdi + dui:
            assert sample.tokens_a in rows and sample.tokens_b in rows
        for task in ("cdi", "dui"):
            for line in generate_pretrain_lines([rec], task, seed=3):
                obj = json.loads(line)
                assert obj["tokens_a"] in rows and obj["tokens_b"] in rows

        (line,) = generate_pretrain_lines([rec], "infill", seed=3)
        obj = json.loads(line)
        sample = InfillingSample(noised=obj["noised"], targets=[(s, span) for s, span in obj["targets"]])
        assert reconstruct_infilling(sample) == [tok for row in rows for tok in row]
