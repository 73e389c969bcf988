"""Sample generators for the three language-model pretraining tasks.

Text infilling masks token spans (span length ~ Poisson, BART-style, with
zero-length spans inserting a bare mask sentinel); control-dependency
inference (CDI) pairs instructions that sit within a small window inside
one basic block; def-use inference (DUI) pairs a defining instruction with
a later use of the same register.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .ingest import FunctionRecord, compute_defuse_pairs, record_tokens

MASK_TOKEN = "[MASK]"
SPAN_POISSON_LAM = 3.0
DEFAULT_MASK_RATIO = 0.15
DEFAULT_CDI_WINDOW = 2
DEFAULT_NEGATIVES_PER_POSITIVE = 1


@dataclass
class InfillingSample:
    """A noised token sequence plus the spans each mask sentinel replaced."""

    noised: list[str]
    targets: list[tuple[int, list[str]]] = field(default_factory=list)

    def mask_count(self) -> int:
        return sum(1 for t in self.noised if t == MASK_TOKEN)


@dataclass
class InstructionPairSample:
    tokens_a: list[str]
    tokens_b: list[str]
    label: str  # "positive" | "negative"
    task: str  # "CDI" | "DUI"


def derive_function_seed(seed: int, function_id: str) -> int:
    """Stable per-function seed: base seed XOR a CRC of the function id."""
    return (int(seed) & 0xFFFFFFFF) ^ zlib.crc32(function_id.encode("utf-8"))


# -- text infilling ---------------------------------------------------------

def infill_stream(rec: FunctionRecord) -> list[str]:
    """The record's normalized tokens as one flat stream, the infilling input."""
    return [tok for toks in record_tokens(rec) for tok in toks]


def text_infilling(tokens: Sequence[str], mask_ratio: float, rng_seed: int) -> InfillingSample:
    """Mask ~mask_ratio of the tokens in Poisson-length spans.

    Each selected span is replaced by a single mask sentinel; a zero-length
    draw inserts a sentinel between tokens with an empty target span.  A
    rounded budget of zero produces the input unchanged.
    """
    tokens = list(tokens)
    n = len(tokens)
    if n < 2:
        raise ValueError("text infilling requires at least 2 tokens")
    if not 0.0 < mask_ratio < 1.0:
        raise ValueError("mask_ratio must be in (0, 1)")
    budget = round(mask_ratio * n)
    spans: list[tuple[int, int]] = []  # (start, length), length >= 1, disjoint
    insertions: list[int] = []  # gap indices in [0, n]
    if budget > 0:
        rng = np.random.default_rng(rng_seed)
        masked = 0
        attempts = 0
        max_attempts = 10 * n + 20
        while masked < budget and attempts < max_attempts:
            attempts += 1
            length = int(min(rng.poisson(SPAN_POISSON_LAM), budget - masked))
            if length == 0:
                gap = int(rng.integers(0, n + 1))
                if any(s < gap < s + l for s, l in spans):
                    continue
                insertions.append(gap)
                continue
            starts = [
                s
                for s in range(n - length + 1)
                if not any(s < t + l and t < s + length for t, l in spans)
                and not any(s < g < s + length for g in insertions)
            ]
            if not starts:
                continue
            start = starts[int(rng.integers(0, len(starts)))]
            spans.append((start, length))
            masked += length
    spans.sort()
    insertions.sort()
    span_at = {s: l for s, l in spans}
    noised: list[str] = []
    targets: list[tuple[int, list[str]]] = []
    pos = 0
    ins_idx = 0
    while pos <= n:
        while ins_idx < len(insertions) and insertions[ins_idx] == pos:
            targets.append((len(targets), []))
            noised.append(MASK_TOKEN)
            ins_idx += 1
        if pos == n:
            break
        if pos in span_at:
            length = span_at[pos]
            targets.append((len(targets), tokens[pos : pos + length]))
            noised.append(MASK_TOKEN)
            pos += length
        else:
            noised.append(tokens[pos])
            pos += 1
    return InfillingSample(noised=noised, targets=targets)


def reconstruct_infilling(sample: InfillingSample) -> list[str]:
    """Invert the noising: splice each target span back over its sentinel."""
    by_slot = dict(sample.targets)
    out: list[str] = []
    slot = 0
    for tok in sample.noised:
        if tok == MASK_TOKEN:
            out.extend(by_slot[slot])
            slot += 1
        else:
            out.append(tok)
    if slot != len(sample.targets):
        raise ValueError("mask sentinel count does not match target count")
    return out


# -- instruction-pair tasks -------------------------------------------------

def _sample_pairs(
    candidates: list[tuple[int, int]], count: int, rng: np.random.Generator
) -> list[tuple[int, int]]:
    if count <= 0 or not candidates:
        return []
    if count >= len(candidates):
        return list(candidates)
    picks = rng.choice(len(candidates), size=count, replace=False)
    return [candidates[i] for i in sorted(picks)]


def cdi_pairs(
    rec: FunctionRecord,
    w: int = DEFAULT_CDI_WINDOW,
    negatives_per_positive: int = DEFAULT_NEGATIVES_PER_POSITIVE,
    rng_seed: int = 0,
) -> list[InstructionPairSample]:
    """Control-dependency inference pairs.

    A pair is positive when both instructions share a basic block and sit
    at most ``w`` block-local positions apart; negatives are drawn from the
    pairs violating that predicate, ``negatives_per_positive`` per positive.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    tokens = record_tokens(rec)
    block_pos: dict[int, tuple[str, int]] = {}
    counters: dict[str, int] = {}
    for i, ins in enumerate(rec.instructions):
        pos = counters.get(ins.block_id, 0)
        block_pos[i] = (ins.block_id, pos)
        counters[ins.block_id] = pos + 1
    n = len(rec.instructions)
    positives: list[tuple[int, int]] = []
    violators: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            bi, pi = block_pos[i]
            bj, pj = block_pos[j]
            if bi == bj and 1 <= abs(pi - pj) <= w:
                positives.append((i, j))
            else:
                violators.append((i, j))
    if not positives:
        return []
    rng = np.random.default_rng(rng_seed)
    negatives = _sample_pairs(violators, negatives_per_positive * len(positives), rng)
    samples = [
        InstructionPairSample(tokens[i], tokens[j], "positive", "CDI") for i, j in positives
    ]
    samples.extend(
        InstructionPairSample(tokens[i], tokens[j], "negative", "CDI") for i, j in negatives
    )
    return samples


def dui_pairs(
    rec: FunctionRecord,
    negatives_per_positive: int = DEFAULT_NEGATIVES_PER_POSITIVE,
    rng_seed: int = 0,
) -> list[InstructionPairSample]:
    """Def-use inference pairs: positives straight from the def-use analysis."""
    tokens = record_tokens(rec)
    positives = compute_defuse_pairs(rec)
    if not positives:
        return []
    positive_set = set(positives)
    n = len(rec.instructions)
    violators = [
        (i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in positive_set
    ]
    rng = np.random.default_rng(rng_seed)
    negatives = _sample_pairs(violators, negatives_per_positive * len(positives), rng)
    samples = [
        InstructionPairSample(tokens[i], tokens[j], "positive", "DUI") for i, j in positives
    ]
    samples.extend(
        InstructionPairSample(tokens[i], tokens[j], "negative", "DUI") for i, j in negatives
    )
    return samples


# -- serialization ----------------------------------------------------------

def infilling_sample_to_json(function_id: str, sample: InfillingSample) -> str:
    return json.dumps(
        {
            "function": function_id,
            "task": "infill",
            "noised": sample.noised,
            "targets": [[slot, span] for slot, span in sample.targets],
        },
        sort_keys=True,
    )


def pair_sample_to_json(function_id: str, sample: InstructionPairSample) -> str:
    return json.dumps(
        {
            "function": function_id,
            "task": sample.task,
            "tokens_a": sample.tokens_a,
            "tokens_b": sample.tokens_b,
            "label": sample.label,
        },
        sort_keys=True,
    )


def generate_pretrain_lines(
    records: Iterable[FunctionRecord],
    task: str,
    seed: int,
    mask_ratio: float = DEFAULT_MASK_RATIO,
    w: int = DEFAULT_CDI_WINDOW,
    negatives_per_positive: int = DEFAULT_NEGATIVES_PER_POSITIVE,
) -> list[str]:
    """JSONL lines for one pretraining task across a record stream."""
    if task not in ("infill", "cdi", "dui"):
        raise ValueError(f"unknown pretraining task {task!r}")
    lines: list[str] = []
    for rec in records:
        fn_seed = derive_function_seed(seed, rec.id)
        if task == "infill":
            flat = infill_stream(rec)
            if len(flat) < 2:
                continue
            sample = text_infilling(flat, mask_ratio, fn_seed)
            lines.append(infilling_sample_to_json(rec.id, sample))
        elif task == "cdi":
            for pair in cdi_pairs(rec, w=w, negatives_per_positive=negatives_per_positive, rng_seed=fn_seed):
                lines.append(pair_sample_to_json(rec.id, pair))
        else:
            for pair in dui_pairs(rec, negatives_per_positive=negatives_per_positive, rng_seed=fn_seed):
                lines.append(pair_sample_to_json(rec.id, pair))
    return lines
