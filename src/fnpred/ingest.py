"""Function-record parsing, instruction normalization, CFGs, and dataset splits.

Input is a JSONL file with one function per line:

    {"id": str, "name": str, "source_id": str, "arch": str, "opt": str,
     "instructions": [{"mnemonic": str, "operands": [str], "block_id": int}],
     "edges": [[src, dst, "jump"|"fallthrough"]],
     "defuse": [[def_index, use_index]]}   # optional

``defuse`` is trusted verbatim when present; otherwise a register-level
reaching-definitions analysis reconstructs it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

ARCHES = frozenset({"x86", "x64", "arm", "mips", "other"})
OPT_LEVELS = frozenset({"O0", "O1", "O2", "O3", "Os", "unknown"})
EDGE_KINDS = frozenset({"jump", "fallthrough"})

# Mnemonics that never fall through to the next instruction.
TERMINATORS = frozenset({"ret", "jmp", "b", "j"})

# Bare numeric operand of one of these mnemonics is a code location.
_BRANCH_MNEMONICS = frozenset(
    {
        "call", "jmp", "loop",
        "je", "jne", "jz", "jnz", "jg", "jge", "jl", "jle", "ja", "jae", "jb", "jbe", "js", "jns",
        "b", "bl", "bx", "blx", "beq", "bne", "blt", "ble", "bgt", "bge", "cbz", "cbnz",
        "j", "jal", "jalr", "jr", "beqz", "bnez",
    }
)

# Mnemonics whose first operand is written but not read.
_PURE_DEST = frozenset(
    {"mov", "movzx", "movsx", "lea", "li", "lui", "la", "ldr", "ldrb", "ldrh", "lw", "lb", "lh", "mvn", "pop"}
)
# Mnemonics that read every register operand (stores, compares, pushes).
_NO_DEST = frozenset(
    {"str", "strb", "strh", "stp", "sw", "sb", "sh", "sd", "push", "cmp", "test", "cmn", "tst"}
)

_NUMERIC_RE = re.compile(r"^[+-]?(?:0x[0-9a-f]+|\d+)$")
_EMBEDDED_NUM_RE = re.compile(r"\b(?:0x[0-9a-f]+|\d+)\b")
_REGISTER_RE = re.compile(
    r"^(?:"
    r"[er]?(?:ax|bx|cx|dx|si|di|bp|sp|ip)|[abcd][lh]|sil|dil|bpl|spl|"  # x86/x64
    r"r\d+[bwd]?|"  # x64 numbered
    r"[xw]\d+|sb|sl|fp|ip|lr|pc|cpsr|"  # arm
    r"\$?(?:zero|at|gp|ra|k[01]|v[01]|a[0-3]|t\d|s\d)"  # mips
    r")$"
)
_TOKEN_SPLIT_RE = re.compile(r"[^0-9a-z$]+")


@dataclass
class Instruction:
    index: int
    mnemonic: str
    operands: list[str]
    block_id: int


@dataclass
class FunctionRecord:
    id: str
    name: str
    source_id: str
    arch: str
    opt: str
    instructions: list[Instruction]
    edges: list[tuple[int, int, str]]
    defuse: Optional[list[tuple[int, int]]] = None


@dataclass
class FineGrainedCFG:
    """Instruction-level CFG with directed and undirected adjacency views."""

    node_count: int
    directed: list[list[int]]
    undirected: list[np.ndarray]


@dataclass
class DatasetSplit:
    fold_id: int
    train: list[str]
    valid: list[str]
    test: list[str]
    seed: int


def _fail(line_no: int, message: str) -> None:
    raise ValueError(f"line {line_no}: {message}")


def _parse_record(obj: dict, line_no: int) -> FunctionRecord:
    for key in ("id", "name", "source_id", "arch", "opt", "instructions", "edges"):
        if key not in obj:
            _fail(line_no, f"missing field '{key}'")
    for key in ("id", "name", "source_id", "arch", "opt"):
        if not isinstance(obj[key], str):
            _fail(line_no, f"field '{key}' must be a string")
    if not obj["name"]:
        _fail(line_no, "field 'name' is empty")
    if obj["arch"] not in ARCHES:
        _fail(line_no, f"field 'arch' has unknown value {obj['arch']!r}")
    if obj["opt"] not in OPT_LEVELS:
        _fail(line_no, f"field 'opt' has unknown value {obj['opt']!r}")
    instructions = []
    if not isinstance(obj["instructions"], list):
        _fail(line_no, "field 'instructions' must be a list")
    if not obj["instructions"]:
        _fail(line_no, "field 'instructions' is empty")
    for i, inst in enumerate(obj["instructions"]):
        if not isinstance(inst, dict) or not isinstance(inst.get("mnemonic"), str) or not inst["mnemonic"]:
            _fail(line_no, f"field 'instructions[{i}].mnemonic' missing or empty")
        operands = inst.get("operands", [])
        if not isinstance(operands, list) or not all(isinstance(o, str) for o in operands):
            _fail(line_no, f"field 'instructions[{i}].operands' must be a list of strings")
        block_id = inst.get("block_id")
        if not isinstance(block_id, int):
            _fail(line_no, f"field 'instructions[{i}].block_id' must be an integer")
        instructions.append(Instruction(i, inst["mnemonic"], list(operands), block_id))
    n = len(instructions)
    edges = []
    if not isinstance(obj["edges"], list):
        _fail(line_no, "field 'edges' must be a list")
    for i, edge in enumerate(obj["edges"]):
        if (
            not isinstance(edge, (list, tuple))
            or len(edge) != 3
            or not isinstance(edge[0], int)
            or not isinstance(edge[1], int)
            or edge[2] not in EDGE_KINDS
        ):
            _fail(line_no, f"field 'edges[{i}]' must be [src, dst, 'jump'|'fallthrough']")
        if not (0 <= edge[0] < n and 0 <= edge[1] < n):
            _fail(line_no, f"field 'edges[{i}]': edge endpoint out of range")
        edges.append((edge[0], edge[1], edge[2]))
    defuse = None
    if "defuse" in obj and obj["defuse"] is not None:
        defuse = []
        if not isinstance(obj["defuse"], list):
            _fail(line_no, "field 'defuse' must be a list")
        for i, pair in enumerate(obj["defuse"]):
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(x, int) for x in pair)
                or not all(0 <= x < n for x in pair)
            ):
                _fail(line_no, f"field 'defuse[{i}]' must be a pair of instruction indices")
            defuse.append((pair[0], pair[1]))
    return FunctionRecord(
        id=obj["id"],
        name=obj["name"],
        source_id=obj["source_id"],
        arch=obj["arch"],
        opt=obj["opt"],
        instructions=instructions,
        edges=edges,
        defuse=defuse,
    )


def parse_function_records(path: str) -> list[FunctionRecord]:
    """Parse a JSONL file of function records, preserving order."""
    records: list[FunctionRecord] = []
    seen_ids: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                _fail(line_no, f"invalid JSON ({exc.msg})")
            if not isinstance(obj, dict):
                _fail(line_no, "record must be a JSON object")
            rec = _parse_record(obj, line_no)
            if rec.id in seen_ids:
                _fail(line_no, f"duplicate record id {rec.id!r}")
            seen_ids.add(rec.id)
            records.append(rec)
    return records


def record_to_json(rec: FunctionRecord) -> str:
    """Serialize a record back to its one-line JSON form."""
    obj = {
        "id": rec.id,
        "name": rec.name,
        "source_id": rec.source_id,
        "arch": rec.arch,
        "opt": rec.opt,
        "instructions": [
            {"mnemonic": i.mnemonic, "operands": i.operands, "block_id": i.block_id}
            for i in rec.instructions
        ],
        "edges": [[s, d, k] for s, d, k in rec.edges],
    }
    if rec.defuse is not None:
        obj["defuse"] = [[a, b] for a, b in rec.defuse]
    return json.dumps(obj, separators=(",", ":"))


def _numeric_value(token: str) -> Optional[int]:
    if not _NUMERIC_RE.match(token):
        return None
    sign = -1 if token.startswith("-") else 1
    body = token.lstrip("+-")
    base = 16 if body.startswith("0x") else 10
    return sign * int(body, base)


def _normalize_operand(operand: str, is_branch: bool) -> str:
    op = operand.strip().lower()
    if len(op) >= 2 and op[0] == op[-1] and op[0] in "'\"":
        return "<str>"
    value = _numeric_value(op)
    if value is not None:
        if is_branch:
            return "<loc>"
        return "<imm>" if abs(value) > 255 else op
    if "[" in op:
        return _EMBEDDED_NUM_RE.sub("<imm>", op)
    return op


def normalize_instruction(inst: Instruction) -> Instruction:
    """Rewrite operands to collapse address noise; idempotent.

    Bare numerics become ``<loc>`` for call/jump mnemonics and ``<imm>``
    when their magnitude exceeds 255; constants inside memory operands
    become ``<imm>``; quoted literals become ``<str>``.  Registers and
    mnemonics pass through lowercased.
    """
    mnemonic = inst.mnemonic.strip().lower()
    is_branch = mnemonic in _BRANCH_MNEMONICS
    operands = [_normalize_operand(op, is_branch) for op in inst.operands]
    return replace(inst, mnemonic=mnemonic, operands=operands)


def normalize_record(rec: FunctionRecord) -> FunctionRecord:
    return replace(rec, instructions=[normalize_instruction(i) for i in rec.instructions])


def instruction_tokens(inst: Instruction) -> list[str]:
    """Token sequence of an instruction: mnemonic followed by its operands."""
    return [inst.mnemonic, *inst.operands]


def record_tokens(rec: FunctionRecord) -> list[list[str]]:
    """Normalized token list of each instruction, in program order."""
    return [instruction_tokens(inst) for inst in normalize_record(rec).instructions]


def build_fine_grained_cfg(rec: FunctionRecord) -> FineGrainedCFG:
    """One node per instruction; explicit edges plus synthesized fallthroughs.

    A fallthrough edge i -> i+1 is added for every instruction that is not a
    terminator and has no explicit outgoing fallthrough edge.
    """
    n = len(rec.instructions)
    directed: list[set[int]] = [set() for _ in range(n)]
    has_fallthrough = [False] * n
    for src, dst, kind in rec.edges:
        if src != dst:
            directed[src].add(dst)
        if kind == "fallthrough":
            has_fallthrough[src] = True
    for i in range(n - 1):
        if has_fallthrough[i]:
            continue
        if rec.instructions[i].mnemonic.strip().lower() in TERMINATORS:
            continue
        directed[i].add(i + 1)
    undirected: list[set[int]] = [set() for _ in range(n)]
    for src in range(n):
        for dst in directed[src]:
            undirected[src].add(dst)
            undirected[dst].add(src)
    return FineGrainedCFG(
        node_count=n,
        directed=[sorted(d) for d in directed],
        undirected=[np.array(sorted(nbrs), dtype=np.int64) for nbrs in undirected],
    )


def khop_neighborhood(cfg: FineGrainedCFG, v: int, k: int) -> np.ndarray:
    """Nodes within undirected distance ``k`` of ``v``, excluding ``v``, sorted.

    A frontier-by-frontier BFS over ``cfg.undirected`` that stops after
    ``k`` hops, so its cost is linear in the edges it reaches.
    """
    if k < 1:
        raise ValueError("k must be ≥ 1")
    if not 0 <= v < cfg.node_count:
        raise ValueError(f"node {v} out of range")
    seen = {v}
    frontier = [v]
    for _ in range(k):
        reached = []
        for u in frontier:
            for w in cfg.undirected[u].tolist():
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
        frontier = reached
    seen.discard(v)
    return np.array(sorted(seen), dtype=np.int64)


def extract_control_flow_sequences(rec: FunctionRecord) -> list[list[int]]:
    """Per-basic-block instruction index sequences in program order."""
    if not rec.instructions:
        raise ValueError(f"function {rec.id!r} has no instructions")
    sequences: list[list[int]] = []
    block_order: dict[int, int] = {}
    for inst in rec.instructions:
        if inst.block_id not in block_order:
            block_order[inst.block_id] = len(sequences)
            sequences.append([])
        sequences[block_order[inst.block_id]].append(inst.index)
    return sequences


def _register_tokens(text: str) -> list[str]:
    return [t for t in _TOKEN_SPLIT_RE.split(text.lower()) if t and _REGISTER_RE.match(t)]


def _defs_and_uses(inst: Instruction) -> tuple[set[str], set[str]]:
    mnemonic = inst.mnemonic.strip().lower()
    defs: set[str] = set()
    uses: set[str] = set()
    for pos, operand in enumerate(inst.operands):
        op = operand.strip().lower()
        regs = _register_tokens(op)
        if not regs:
            continue
        if pos == 0 and "[" not in op and mnemonic not in _NO_DEST:
            defs.add(regs[0])
            if mnemonic not in _PURE_DEST:
                uses.update(regs)
            else:
                uses.update(regs[1:])
        else:
            uses.update(regs)
    return defs, uses


def compute_defuse_pairs(rec: FunctionRecord) -> list[tuple[int, int]]:
    """Register-level def-use pairs via reaching definitions over the CFG.

    The first bare-register operand of a non-store, non-compare mnemonic is
    treated as defined (and also used, unless the mnemonic only writes its
    destination); every other register occurrence is a use.  A redefinition
    kills earlier definitions of the same register.  When the record carries
    an explicit ``defuse`` list it is returned verbatim.
    """
    if rec.defuse is not None:
        return list(rec.defuse)
    n = len(rec.instructions)
    if n == 0:
        return []
    cfg = build_fine_grained_cfg(rec)
    preds: list[list[int]] = [[] for _ in range(n)]
    for src in range(n):
        for dst in cfg.directed[src]:
            preds[dst].append(src)
    defs_uses = [_defs_and_uses(inst) for inst in rec.instructions]
    # reaching[v]: register -> set of instruction indices whose definition reaches v's entry
    reaching: list[dict[str, frozenset[int]]] = [{} for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for v in range(n):
            merged: dict[str, set[int]] = {}
            for p in preds[v]:
                p_defs, _ = defs_uses[p]
                for reg, sites in reaching[p].items():
                    if reg in p_defs:
                        continue
                    merged.setdefault(reg, set()).update(sites)
                for reg in p_defs:
                    merged.setdefault(reg, set()).add(p)
            frozen = {reg: frozenset(sites) for reg, sites in merged.items()}
            if frozen != reaching[v]:
                reaching[v] = frozen
                changed = True
    pairs: set[tuple[int, int]] = set()
    for v in range(n):
        _, uses = defs_uses[v]
        for reg in uses:
            for site in reaching[v].get(reg, ()):
                pairs.add((site, v))
    return sorted(pairs)


def split_by_source(
    records: Sequence[FunctionRecord], folds: int = 5, seed: int = 0
) -> list[DatasetSplit]:
    """Produce ``folds`` independent 8:1:1 splits grouped by ``source_id``.

    Every function of a source lands in exactly one partition.  Valid and
    test each receive ``n_sources // 10`` groups; the remainder goes to
    train.  Deterministic in ``seed``.
    """
    by_source: dict[str, list[str]] = {}
    for rec in records:
        by_source.setdefault(rec.source_id, []).append(rec.id)
    sources = sorted(by_source)
    if len(sources) < folds:
        raise ValueError(f"need at least {folds} source groups, found {len(sources)}")
    splits = []
    for fold in range(folds):
        rng = np.random.default_rng((seed, fold))
        order = [sources[i] for i in rng.permutation(len(sources))]
        n_eval = len(sources) // 10
        test_sources = order[:n_eval]
        valid_sources = order[n_eval : 2 * n_eval]
        train_sources = order[2 * n_eval :]
        splits.append(
            DatasetSplit(
                fold_id=fold,
                train=[rid for s in sorted(train_sources) for rid in by_source[s]],
                valid=[rid for s in sorted(valid_sources) for rid in by_source[s]],
                test=[rid for s in sorted(test_sources) for rid in by_source[s]],
                seed=seed,
            )
        )
    return splits
