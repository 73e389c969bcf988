"""Output checks, computed apart from the program or from properties the
method must have — never by comparing with a stored copy of its output.

Each check records a failure on the run (``run.check``) instead of raising,
so one broken stage still lets the others report.
"""

from __future__ import annotations

import json
import re

import numpy as np

import gen
from fnpred import encoder, ingest, params, tasks

MASK = "[MASK]"
CDI_WINDOW = 2
SYNONYM_THRESHOLD = 2.0 / 3.0
_NUMBER = re.compile(r"^[+-]?(?:0x[0-9a-f]+|\d+)$")
_BRANCHES = frozenset(gen.X86_JCC + gen.ARM_BCC + ("jmp", "b", "call", "bl"))


def _jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _tsv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def ingest_output(run, raw_path: str, out_path: str) -> None:
    """The output re-parses to the normalized input, normalizing it again
    changes nothing, and no bare address or large immediate survives."""
    got = ingest.parse_function_records(out_path)
    expected = [ingest.normalize_record(r) for r in ingest.parse_function_records(raw_path)]
    run.check(got == expected, "ingest: output does not re-parse to the normalized records")
    run.check([ingest.normalize_record(r) for r in got] == got, "ingest: normalizing the output again changes it")
    for rec in _jsonl(out_path):
        for ins in rec["instructions"]:
            for op in ins["operands"]:
                if _NUMBER.match(op):
                    value = int(op, 16) if "0x" in op else int(op)
                    if abs(value) > 255 or ins["mnemonic"] in _BRANCHES:
                        run.check(False, f"ingest: {rec['id']} keeps raw operand {ins['mnemonic']} {op}")
                        return


def tokenize_output(run, corpus, tsv_path: str) -> None:
    """Snake and camel names split into exactly the generator's words."""
    rows = {row[0]: row[1].split() if len(row) > 1 else [] for row in _tsv(tsv_path)}
    run.check(sorted(rows) == sorted(corpus.names), "tokenize: output names differ from the input names")
    for name in corpus.names:
        if corpus.styles[name] != "fused" and rows.get(name) != corpus.words[name]:
            run.check(False, f"tokenize: {name} -> {rows.get(name)}, expected {corpus.words[name]}")
            return


def _block_positions(rec: dict) -> list[tuple[int, int]]:
    seen: dict[int, int] = {}
    out = []
    for ins in rec["instructions"]:
        pos = seen.get(ins["block_id"], 0)
        out.append((ins["block_id"], pos))
        seen[ins["block_id"]] = pos + 1
    return out


def _tokens(ins: dict) -> tuple[str, ...]:
    return (ins["mnemonic"], *ins["operands"])


def pretrain_data_output(run, records_path: str, infill_path: str, cdi_path: str) -> None:
    """Infill samples splice back to the token stream; CDI positives are
    exactly the same-block pairs within the window, from block ids."""
    records = {r["id"]: r for r in _jsonl(records_path)}
    infill = _jsonl(infill_path)
    run.check(len(infill) == len(records), f"pretrain-data: {len(infill)} infill samples for {len(records)} records")
    for sample in infill:
        rec = records[sample["function"]]
        slots = {slot: span for slot, span in sample["targets"]}
        spliced, slot = [], 0
        for tok in sample["noised"]:
            if tok == MASK:
                spliced.extend(slots[slot])
                slot += 1
            else:
                spliced.append(tok)
        flat = [t for ins in rec["instructions"] for t in _tokens(ins)]
        if spliced != flat or slot != len(slots):
            run.check(False, f"pretrain-data: infill sample of {rec['id']} does not splice back")
            return
    by_fn: dict[str, list[dict]] = {}
    for sample in _jsonl(cdi_path):
        by_fn.setdefault(sample["function"], []).append(sample)
    for rid, rec in records.items():
        pos = _block_positions(rec)
        toks = [_tokens(ins) for ins in rec["instructions"]]
        n = len(toks)
        inside = [(toks[i], toks[j]) for i in range(n) for j in range(i + 1, n)
                  if pos[i][0] == pos[j][0] and 1 <= abs(pos[i][1] - pos[j][1]) <= CDI_WINDOW]
        allowed = set(inside)
        positives = [s for s in by_fn.get(rid, []) if s["label"] == "positive"]
        bad = [s for s in positives if (tuple(s["tokens_a"]), tuple(s["tokens_b"])) not in allowed]
        if len(positives) != len(inside) or bad:
            run.check(False, f"pretrain-data: CDI positives of {rid}: {len(positives)} emitted, "
                             f"{len(inside)} within the window, {len(bad)} outside it")
            return


def smith_waterman(a: str, b: str) -> int:
    """Best local alignment score: match +1, mismatch -1, gap -1."""
    best = 0
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b, start=1):
            score = max(0, prev[j - 1] + (1 if ca == cb else -1), prev[j] - 1, cur[j - 1] - 1)
            cur.append(score)
            best = max(best, score)
        prev = cur
    return best


def relate_output(run, vocab: list[str], tsv_path: str) -> None:
    """Canonical labels map to themselves, synonyms align, abbreviations are prefixes."""
    rows = _tsv(tsv_path)
    canonical = {a: b for a, b, kind in rows if kind == "canonical"}
    labels = set(vocab)
    for label in vocab:
        canon = canonical.get(label, label)
        if canon not in labels or canonical.get(canon, canon) != canon:
            run.check(False, f"relate: {label} -> {canon}, which is not its own canonical label")
            return
    for a, b, kind in rows:
        if kind == "synonym" and smith_waterman(a, b) / min(len(a), len(b)) < SYNONYM_THRESHOLD:
            run.check(False, f"relate: synonym row {a} {b} aligns below 2/3")
        if kind == "abbreviation" and (a == b or not (a.startswith(b) or b.startswith(a))):
            run.check(False, f"relate: abbreviation row {a} {b} is not a proper-prefix pair")


def same_bits(a, b) -> bool:
    """Parameters, optimizer moments and step counter are bit-identical."""
    return (
        a.step_count == b.step_count
        and list(a.values) == list(b.values)
        and all(a.values[k].tobytes() == b.values[k].tobytes() for k in a.values)
        and sorted(a.opt_state) == sorted(b.opt_state)
        and all(a.opt_state[k].tobytes() == b.opt_state[k].tobytes() for k in a.opt_state)
    )


def checkpoint_roundtrip(run, store, directory: str) -> None:
    run.check(same_bits(params.load_checkpoint(directory), store), f"train: {directory} does not round-trip bit-exactly")


def predict_output(run, model, chunk_paths: list[str], out_paths: list[str], max_len: int, sample: int = 2) -> None:
    """One row per function with exactly ``max_len`` vocabulary labels, and
    on a sample the greedy argmax path recomputed over the full prefix."""
    store, enc_config, token_vocab, name_vocab = model
    controls = {name_vocab.label(i) for i in (tasks.NAME_PAD, tasks.NAME_BOS, tasks.NAME_EOS)}
    for chunk, out in zip(chunk_paths, out_paths):
        ids = [r["id"] for r in _jsonl(chunk)]
        rows = _tsv(out)
        if [r[0] for r in rows] != ids:
            run.check(False, f"predict: {out} rows do not match the functions of {chunk}")
            return
        for row in rows:
            labels = row[1].split() if len(row) > 1 else []
            if len(labels) != max_len or any(l not in name_vocab.label_to_id or l in controls for l in labels):
                run.check(False, f"predict: {row[0]} -> {labels}, expected {max_len} vocabulary labels")
                return
    rows = dict((r[0], r[1].split()) for r in _tsv(out_paths[0]))
    for rec in ingest.parse_function_records(chunk_paths[0])[:sample]:
        emb = encoder.encode_function(rec, store, enc_config, token_vocab).emb
        prefix, labels = [tasks.NAME_BOS], []
        while len(labels) < max_len and len(prefix) < enc_config.seq_cap:
            nxt = int(np.argmax(tasks.decode_step_probs(emb, prefix, store, enc_config)))
            if nxt == tasks.NAME_EOS:
                break
            prefix.append(nxt)
            if nxt not in (tasks.NAME_PAD, tasks.NAME_BOS):
                labels.append(name_vocab.label(nxt))
        run.check(labels == rows[rec.id], f"predict: {rec.id} -> {rows[rec.id]}, argmax path gives {labels}")
