"""Record parsing, normalization, CFG construction, def-use, and splits."""

from __future__ import annotations

import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, make_record, record_json_dict, write_jsonl
from fnpred.ingest import (
    FunctionRecord,
    Instruction,
    build_fine_grained_cfg,
    compute_defuse_pairs,
    instruction_tokens,
    khop_neighborhood,
    normalize_instruction,
    normalize_record,
    parse_function_records,
    record_to_json,
    split_by_source,
)


def ins(index, mnemonic, operands, block_id=0):
    return Instruction(index=index, mnemonic=mnemonic, operands=operands, block_id=block_id)


def straight_line(mnemonics_operands, edges=(), rec_id="f", defuse=None):
    instructions = [ins(i, m, list(ops)) for i, (m, ops) in enumerate(mnemonics_operands)]
    return FunctionRecord(
        id=rec_id, name="fn", source_id="s0", arch="x86", opt="O0",
        instructions=instructions, edges=list(edges), defuse=defuse,
    )


class TestParsing:
    def test_three_instruction_record_round_trips(self, tmp_path):
        rec = straight_line(
            [("mov", ["eax", "0x1"]), ("add", ["ebx", "eax"]), ("ret", [])],
            edges=[(0, 1, "fallthrough"), (1, 2, "fallthrough")],
        )
        path = tmp_path / "one.jsonl"
        write_jsonl([rec], path)
        parsed = parse_function_records(str(path))
        assert len(parsed) == 1
        assert parsed[0] == rec
        assert build_fine_grained_cfg(parsed[0]).node_count == 3

    def test_serialization_is_stable(self, tmp_path):
        records = make_dataset(n_sources=3)
        path = tmp_path / "ds.jsonl"
        write_jsonl(records, path)
        parsed = parse_function_records(str(path))
        text1 = "\n".join(record_to_json(r) for r in parsed)
        reparsed = parse_function_records(str(path))
        text2 = "\n".join(record_to_json(r) for r in reparsed)
        assert text1 == text2
        assert parsed == reparsed

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d.pop("name"), "missing field 'name'"),
            (lambda d: d.update(name=""), "'name' is empty"),
            (lambda d: d.update(arch="vax"), "unknown value 'vax'"),
            (lambda d: d.update(opt="O9"), "unknown value 'O9'"),
            (lambda d: d["edges"].append([0, 1, "teleport"]), "edges"),
            (lambda d: d["edges"].append([0, 99, "jump"]), "out of range"),
            (lambda d: d["instructions"][0].pop("mnemonic"), "mnemonic"),
            (lambda d: d.update(instructions=[]), "line 1: field 'instructions' is empty"),
            (lambda d: d.update(defuse=[[0, 99]]), "defuse"),
        ],
    )
    def test_validation_errors(self, tmp_path, mutate, fragment):
        rec = make_record("r0", "load_config", "s0")
        obj = record_json_dict(rec)
        mutate(obj)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match=fragment):
            parse_function_records(str(path))

    def test_duplicate_id_rejected(self, tmp_path):
        rec = make_record("dup", "load_config", "s0")
        path = tmp_path / "dup.jsonl"
        write_jsonl([rec, rec], path)
        with pytest.raises(ValueError, match="duplicate record id"):
            parse_function_records(str(path))

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"id": "a"}\nnot json\n')
        with pytest.raises(ValueError, match="line 1"):
            parse_function_records(str(path))


class TestNormalization:
    def test_large_immediate_becomes_imm(self):
        out = normalize_instruction(ins(0, "mov", ["eax", "0x4005d0"]))
        assert (out.mnemonic, out.operands) == ("mov", ["eax", "<imm>"])

    def test_branch_target_becomes_loc(self):
        out = normalize_instruction(ins(0, "call", ["0x401000"]))
        assert (out.mnemonic, out.operands) == ("call", ["<loc>"])

    def test_small_immediate_survives(self):
        out = normalize_instruction(ins(0, "add", ["eax", "0x4"]))
        assert out.operands == ["eax", "0x4"]

    def test_memory_operand_constant_collapses(self):
        out = normalize_instruction(ins(0, "mov", ["eax", "[rbp-0x8]"]))
        assert out.operands == ["eax", "[rbp-<imm>]"]

    def test_string_literal_collapses(self):
        out = normalize_instruction(ins(0, "push", ['"fmt"']))
        assert out.operands == ["<str>"]

    def test_mnemonic_lowercased(self):
        out = normalize_instruction(ins(0, "MOV", ["EAX"]))
        assert (out.mnemonic, out.operands) == ("mov", ["eax"])

    @given(
        mnemonic=st.sampled_from(["mov", "CALL", "add", "jmp", "push"]),
        operands=st.lists(
            st.sampled_from(
                ["eax", "0x4005d0", "0x4", "12", "99999", "[rbp-0x8]", '"s"', "[rax+rbx*2]", "r12"]
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_normalize_idempotent(self, mnemonic, operands):
        first = normalize_instruction(ins(0, mnemonic, operands))
        second = normalize_instruction(first)
        assert first == second

    def test_instruction_tokens_order(self):
        assert instruction_tokens(ins(0, "mov", ["eax", "<imm>"])) == ["mov", "eax", "<imm>"]


class TestFineGrainedCFG:
    def test_single_instruction_one_node_no_edges(self):
        cfg = build_fine_grained_cfg(straight_line([("ret", [])]))
        assert cfg.node_count == 1
        assert cfg.directed == [[]]

    def test_implicit_fallthrough_path(self):
        rec = straight_line([("mov", ["eax"]), ("add", ["eax"]), ("sub", ["eax"]), ("ret", [])])
        cfg = build_fine_grained_cfg(rec)
        assert cfg.directed == [[1], [2], [3], []]

    def test_explicit_jump_with_terminator(self):
        rec = straight_line(
            [("mov", ["eax"]), ("jmp", ["0x40"]), ("add", ["eax"]), ("ret", [])],
            edges=[(1, 3, "jump")],
        )
        cfg = build_fine_grained_cfg(rec)
        assert cfg.directed == [[1], [3], [3], []]
        assert sorted(cfg.undirected[3].tolist()) == [1, 2]

    def test_khop_path_graph(self):
        rec = straight_line([("mov", ["eax"]), ("add", ["eax"]), ("sub", ["eax"]), ("xor", ["eax"])])
        cfg = build_fine_grained_cfg(rec)
        assert khop_neighborhood(cfg, 1, 2).tolist() == [0, 2, 3]

    def test_khop_isolated_node(self):
        cfg = build_fine_grained_cfg(straight_line([("ret", [])]))
        assert khop_neighborhood(cfg, 0, 3).tolist() == []

    def test_khop_rejects_bad_k(self):
        cfg = build_fine_grained_cfg(straight_line([("ret", [])]))
        with pytest.raises(ValueError):
            khop_neighborhood(cfg, 0, 0)

    @given(
        n=st.integers(min_value=1, max_value=20),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_khop_matches_bfs_oracle(self, n, k, seed):
        rng = np.random.default_rng(seed)
        edges = []
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                edges.append((u, v, "jump"))
        rec = straight_line([("ret", [])] * n, edges=edges)  # terminators: no implicit edges
        cfg = build_fine_grained_cfg(rec)
        adj = {u: set() for u in range(n)}
        for u, v, _ in edges:
            adj[u].add(v)
            adj[v].add(u)
        for v in range(n):
            dist = {v: 0}
            queue = deque([v])
            while queue:
                u = queue.popleft()
                if dist[u] >= k:
                    continue
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            expected = sorted(u for u in dist if u != v)
            assert khop_neighborhood(cfg, v, k).tolist() == expected


class TestSequencesAndDefUse:
    def test_simple_def_use(self):
        rec = straight_line([("mov", ["eax", "0x100"]), ("add", ["ebx", "eax"])])
        assert compute_defuse_pairs(rec) == [(0, 1)]

    def test_redefinition_kills(self):
        rec = straight_line(
            [("mov", ["eax", "0x1"]), ("mov", ["eax", "0x2"]), ("add", ["ebx", "eax"])]
        )
        assert compute_defuse_pairs(rec) == [(1, 2)]

    def test_no_register_reuse(self):
        rec = straight_line([("mov", ["eax", "0x1"]), ("mov", ["ebx", "0x2"])])
        assert compute_defuse_pairs(rec) == []

    def test_explicit_defuse_trusted_verbatim(self):
        rec = straight_line(
            [("mov", ["eax", "0x1"]), ("mov", ["ebx", "0x2"])], defuse=[(1, 0)]
        )
        assert compute_defuse_pairs(rec) == [(1, 0)]

    def test_pairs_respect_reachability(self):
        for salt in range(10):
            rec = make_record(f"r{salt}", "load_config", "s0", salt=salt, n_instructions=8)
            cfg = build_fine_grained_cfg(rec)
            reach_cache: dict[int, set[int]] = {}

            def reachable(src: int) -> set[int]:
                if src not in reach_cache:
                    seen = {src}
                    queue = deque([src])
                    while queue:
                        u = queue.popleft()
                        for v in cfg.directed[u]:
                            if v not in seen:
                                seen.add(v)
                                queue.append(v)
                    reach_cache[src] = seen
                return reach_cache[src]

            for a, b in compute_defuse_pairs(rec):
                assert a != b
                assert a < b or b in reachable(a)


class TestSplits:
    def test_hundred_sources_partition_sizes(self):
        records = [
            make_record(f"r{i:03d}", "load_config", f"s{i:03d}") for i in range(100)
        ]
        for split in split_by_source(records, folds=5, seed=0):
            assert len(split.test) == 10
            assert len(split.valid) == 10
            assert len(split.train) == 80

    def test_zero_leakage_and_coverage(self):
        records = make_dataset(n_sources=25)
        by_id = {r.id: r.source_id for r in records}
        for split in split_by_source(records, folds=5, seed=3):
            train = {by_id[i] for i in split.train}
            valid = {by_id[i] for i in split.valid}
            test = {by_id[i] for i in split.test}
            assert not (train & valid) and not (train & test) and not (valid & test)
            assert set(split.train) | set(split.valid) | set(split.test) == set(by_id)

    def test_deterministic_in_seed(self):
        records = make_dataset(n_sources=12)
        a = split_by_source(records, folds=3, seed=9)
        b = split_by_source(records, folds=3, seed=9)
        assert [(s.train, s.valid, s.test) for s in a] == [(s.train, s.valid, s.test) for s in b]

    def test_too_few_sources_rejected(self):
        records = make_dataset(n_sources=3)
        with pytest.raises(ValueError):
            split_by_source(records, folds=5)
