"""Seeded input generator for the benchmark.

Everything the program reads is written here from one ``random.Random(seed)``
stream: function records (JSONL), raw names, a relation corpus and its label
list.  The expected answers (the words of every name, the name of every
record) stay with the benchmark and are never written where the program
reads.  Nothing here imports ``fnpred``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Words of the bundled tokenizer lexicon that are not abbreviation keys, so
# a snake or camel name made of them must tokenize back to exactly these words.
VERBS = (
    "add alloc check clear close compare copy create delete destroy fill filter find free get "
    "handle hash insert join load lock merge open parse print push put read remove reset resolve "
    "run scan search send set sort split start stop store sync unlock update wait write"
).split()
NOUNS = (
    "array block buffer byte cache char client color column config count data entry error event "
    "field file flag frame group header host index info item key length line link list map mask "
    "message mode module name node object packet path port query queue range request response "
    "server session signal size socket stack state status stream string table text thread time "
    "token tree type user value widget word"
).split()
STYLES = ("snake", "camel", "fused")
OPTS = ("O0", "O1", "O2", "O3", "Os")

X86_REGS = ("eax", "ebx", "ecx", "edx", "esi", "edi", "rax", "rbx", "rcx", "rdx", "r8", "r9")
ARM_REGS = ("r0", "r1", "r2", "r3", "r4", "x0", "x1", "x2", "w0", "w1", "lr", "sp")
X86_OPS = ("mov", "add", "sub", "xor", "and", "or", "lea", "cmp", "test", "push", "pop", "inc", "imul", "shl")
ARM_OPS = ("mov", "add", "sub", "ldr", "str", "cmp", "and", "orr", "lsl", "mul", "ldrb", "strb")
X86_JCC = ("je", "jne", "jg", "jl", "jae", "jbe")
ARM_BCC = ("beq", "bne", "bgt", "blt", "cbz")
CALLEES = ("malloc", "free", "memcpy", "strlen", "printf", "0x401a2c", "0x4010f0")


@dataclass
class Corpus:
    """Generated inputs plus the answers the checks compare against."""

    records: list[dict]
    names: list[str]  # one raw name per source, in source order
    words: dict[str, list[str]]  # raw name -> the words it was built from
    styles: dict[str, str]  # raw name -> snake | camel | fused
    relate_lines: list[list[str]] = field(default_factory=list)

    @property
    def relate_vocab(self) -> list[str]:
        return sorted({w for line in self.relate_lines for w in line})


def _name(rng: random.Random, style: str, n_words: int) -> tuple[str, list[str]]:
    words = [rng.choice(VERBS)] + [rng.choice(NOUNS) for _ in range(n_words - 1)]
    if style == "snake":
        raw = "_".join(words)
    elif style == "camel":
        raw = words[0] + "".join(w.capitalize() for w in words[1:])
    else:
        raw = "".join(words)
    return raw, words


def _operand(rng: random.Random, regs: tuple[str, ...]) -> str:
    kind = rng.random()
    if kind < 0.55:
        return rng.choice(regs)
    if kind < 0.70:
        return str(rng.randrange(0, 200)) if rng.random() < 0.5 else hex(rng.randrange(0, 256))
    if kind < 0.80:
        return hex(rng.randrange(0x1000, 0x500000))  # large immediate
    if kind < 0.95:
        return f"[{rng.choice(regs)}{rng.choice('+-')}{hex(rng.randrange(4, 0x200))}]"
    return "'" + rng.choice(NOUNS) + "'"


def _body(rng: random.Random, arch: str, n_insns: int) -> tuple[list[dict], list[list]]:
    """Instructions cut into basic blocks that end in a branch, call or return."""
    arm = arch == "arm"
    regs, ops, jcc = (ARM_REGS, ARM_OPS, ARM_BCC) if arm else (X86_REGS, X86_OPS, X86_JCC)
    jmp, ret = ("b", "ret") if arm else ("jmp", "ret")
    sizes = []
    left = n_insns
    while left > 0:
        size = min(left, rng.randint(2, 7))
        sizes.append(size)
        left -= size
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    insns: list[dict] = []
    edges: list[list] = []
    for b, size in enumerate(sizes):
        last_block = b == len(sizes) - 1
        for k in range(size):
            i = len(insns)
            if k < size - 1 or (not last_block and rng.random() < 0.15):
                if rng.random() < 0.08:
                    insns.append({"mnemonic": "bl" if arm else "call", "operands": [rng.choice(CALLEES)], "block_id": b})
                    continue
                op = rng.choice(ops)
                n_ops = 1 if op in ("push", "pop", "inc") else 2
                insns.append({"mnemonic": op, "operands": [rng.choice(regs)] + [_operand(rng, regs) for _ in range(n_ops - 1)], "block_id": b})
                continue
            if last_block:
                insns.append({"mnemonic": ret, "operands": [], "block_id": b})
                continue
            target_block = rng.randrange(len(sizes))
            target = starts[target_block]
            if rng.random() < 0.7:
                insns.append({"mnemonic": rng.choice(jcc), "operands": [str(target)], "block_id": b})
                edges.append([i, target, "jump"])
                edges.append([i, i + 1, "fallthrough"])
            else:
                insns.append({"mnemonic": jmp, "operands": [str(target)], "block_id": b})
                edges.append([i, target, "jump"])
    return insns, edges


def _spread(lo: int, hi: int, n: int, rng: random.Random) -> list[int]:
    """``n`` values evenly covering [lo, hi], in seeded order: every seed
    draws the same multiset, so the work a corpus holds barely depends on it."""
    values = [lo + i * (hi - lo + 1) // n for i in range(n)]
    rng.shuffle(values)
    return values


def generate(seed: int, n_sources: int, opts_per_source: tuple[int, int], insns: tuple[int, int], relate_lines: int = 0) -> Corpus:
    """``n_sources`` sources, each compiled at a number of opt levels in ``opts_per_source``.

    Every source gets one name (snake, camel or fused, two or three words)
    and a base length in ``insns``; each opt level of it is a separately
    drawn body whose length shrinks with the level, as optimized code
    tends to.  Lengths, level counts, styles and word counts are spread
    evenly over their ranges; which source gets which, and everything
    else, is drawn from the seed.
    """
    rng = random.Random(seed)
    bases = _spread(insns[0], insns[1], n_sources, rng)
    level_counts = _spread(opts_per_source[0], opts_per_source[1], n_sources, rng)
    records: list[dict] = []
    names: list[str] = []
    words: dict[str, list[str]] = {}
    styles: dict[str, str] = {}
    for s in range(n_sources):
        style = STYLES[s % len(STYLES)]
        n_words = 3 if s % 5 < 2 else 2
        raw, ws = _name(rng, style, n_words)
        while raw in words:
            raw, ws = _name(rng, style, n_words)
        names.append(raw)
        words[raw] = ws
        styles[raw] = style
        arch = ("x86", "x64", "x64", "arm")[s % 4]
        for level in sorted(rng.sample(OPTS, level_counts[s])):
            shrink = {"O0": 1.0, "O1": 0.8, "O2": 0.7, "O3": 0.75, "Os": 0.6}[level]
            body, edges = _body(rng, arch, max(3, int(bases[s] * shrink)))
            records.append({
                "id": f"s{s:04d}_{level}", "name": raw, "source_id": f"src{s:04d}",
                "arch": arch, "opt": level, "instructions": body, "edges": edges,
            })
    # Relation lines repeat the sources' words in order; every tenth line
    # pluralizes one word and every tenth truncates one, so that the
    # relation stage has related pairs to find.
    lines = []
    for i in range(relate_lines):
        line = list(words[names[i % n_sources]])
        j = rng.randrange(len(line))
        if i % 10 == 3:
            line[j] += "s"
        elif i % 10 == 7:
            line[j] = line[j][: max(3, len(line[j]) - 2)]
        lines.append(line)
    return Corpus(records=records, names=names, words=words, styles=styles, relate_lines=lines)


def write_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def write_lines(lines: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
