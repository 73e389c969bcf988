"""Shared fixture builders for the test suite."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from fnpred.ingest import FunctionRecord, Instruction, parse_function_records

MNEMONICS = ["mov", "add", "sub", "cmp", "jmp", "call", "push", "pop", "xor", "lea"]
REGISTERS = ["eax", "ebx", "ecx", "edx", "esi", "edi"]


def make_instruction(index: int, mnemonic: str, operands: list[str], block_id: int) -> Instruction:
    return Instruction(index=index, mnemonic=mnemonic, operands=operands, block_id=block_id)


def make_record(
    rec_id: str,
    name: str,
    source_id: str,
    opt: str = "O0",
    arch: str = "x86",
    n_instructions: int = 6,
    salt: int = 0,
) -> FunctionRecord:
    """Deterministic synthetic record; ``salt`` varies the instruction mix."""
    instructions = []
    n_blocks = max(1, n_instructions // 3)
    for j in range(n_instructions):
        mnem = MNEMONICS[(salt + j) % len(MNEMONICS)]
        if j % 2 == 0:
            operands = [REGISTERS[(salt + j) % len(REGISTERS)]]
        else:
            operands = [REGISTERS[(salt + j) % len(REGISTERS)], f"0x{(salt * 7 + j) % 64:x}"]
        instructions.append(make_instruction(j, mnem, operands, min(j // 3, n_blocks - 1)))
    edges = [(k, k + 1, "fallthrough") for k in range(n_instructions - 1)]
    if n_instructions >= 5:
        edges.append((1, n_instructions - 1, "jump"))
    return FunctionRecord(
        id=rec_id, name=name, source_id=source_id, arch=arch, opt=opt,
        instructions=instructions, edges=edges,
    )


def make_dataset(n_sources: int = 20, opts: tuple[str, ...] = ("O0", "O2")) -> list[FunctionRecord]:
    """``n_sources`` distinct names, one record per (source, opt) pair."""
    names = [
        "load_config", "store_value", "free_buffer", "init_table", "parse_header",
        "read_input", "write_output", "check_state", "update_index", "reset_flags",
        "open_file", "close_file", "alloc_page", "send_packet", "recv_packet",
        "hash_key", "find_entry", "copy_block", "set_limit", "get_limit",
        "push_frame", "pop_frame", "sort_list", "scan_token", "emit_code",
    ]
    records = []
    for i in range(n_sources):
        name = names[i % len(names)]
        for opt in opts:
            records.append(
                make_record(
                    rec_id=f"fn{i:03d}_{opt}", name=name, source_id=f"src{i:03d}",
                    opt=opt, arch="x86" if i % 2 == 0 else "arm", salt=i,
                )
            )
    return records


DEF_MNEMONICS = ["mov", "add", "sub", "xor", "lea", "inc", "dec", "or", "and", "not"]


def defuse_chain_record(
    n: int,
    rec_id: str = "f0",
    name: str = "demo",
    source_id: str = "s0",
    opt: str = "O0",
) -> FunctionRecord:
    """Each instruction defines a register the next instruction reads."""
    assert 2 <= n <= len(DEF_MNEMONICS)
    instructions = [
        Instruction(index=0, mnemonic=DEF_MNEMONICS[0], operands=[REGISTERS[0], "0x1"], block_id=0)
    ]
    for j in range(1, n):
        instructions.append(
            Instruction(
                index=j,
                mnemonic=DEF_MNEMONICS[j],
                operands=[REGISTERS[j % 6], REGISTERS[(j - 1) % 6]],
                block_id=j // 3,
            )
        )
    edges = [(j, j + 1, "fallthrough") for j in range(n - 1)]
    return FunctionRecord(
        id=rec_id, name=name, source_id=source_id, arch="x86", opt=opt,
        instructions=instructions, edges=edges,
    )


def record_json_dict(rec: FunctionRecord) -> dict:
    return {
        "id": rec.id,
        "name": rec.name,
        "source_id": rec.source_id,
        "arch": rec.arch,
        "opt": rec.opt,
        "instructions": [
            {"mnemonic": i.mnemonic, "operands": list(i.operands), "block_id": i.block_id}
            for i in rec.instructions
        ],
        "edges": [[a, b, kind] for a, b, kind in rec.edges],
        **({"defuse": [[a, b] for a, b in rec.defuse]} if rec.defuse else {}),
    }


def write_jsonl(records, path) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(record_json_dict(rec)) + "\n")
    return str(path)


@pytest.fixture
def dataset_small():
    return make_dataset(n_sources=8)


@pytest.fixture
def dataset_jsonl(tmp_path, dataset_small):
    return write_jsonl(dataset_small, tmp_path / "corpus.jsonl")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def checkpoint_entries(directory) -> dict[str, tuple[str, int, bytes]]:
    """Each manifest entry of a checkpoint as (shape text, byte offset, bytes),
    read straight from the payload rather than through ``load_checkpoint``."""
    entries = {}
    with open(os.path.join(directory, "manifest.txt"), encoding="utf-8") as manifest, \
            open(os.path.join(directory, "params.bin"), "rb") as payload:
        for line in manifest.read().splitlines():
            name, shape, _, offset = line.split("\t")
            payload.seek(int(offset))
            data = payload.read(8 * math.prod(int(d) for d in shape.split(",") if d))
            entries[name] = (shape, int(offset), data)
    return entries


def checkpoint_meta(directory) -> dict[str, float]:
    """The value of each ``meta/`` entry of a checkpoint."""
    return {name: float(np.frombuffer(data)[0]) for name, (_, _, data) in checkpoint_entries(directory).items()
            if name.startswith("meta/")}


def roundtrip_jsonl(records, path):
    write_jsonl(records, path)
    return parse_function_records(str(path))
