"""Votes-based tokenization of function names into word labels.

Names are first split on naming conventions (camelCase, snake_case,
letter/digit transitions).  Segments that look like fused multi-word
identifiers (longer than 3 characters and unknown to the lexicon) are then
segmented by three independent tokenizers — an n-gram transition-freedom
model, a unigram language model with forward maximum matching, and a
rule-based dynamic program over a word lexicon — whose boundary proposals
are combined by voting.  Abbreviations are expanded as a separate step.
"""

from __future__ import annotations

import importlib.resources
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

TF_PEAK_THRESHOLD = 0.5  # fraction of the max positive peak that still counts


@dataclass
class TFModel:
    """Character n-gram counts plus forward/backward transition statistics."""

    max_n: int
    ngram_counts: dict[str, int]
    forward_tf: dict[str, dict[str, int]]
    backward_tf: dict[str, dict[str, int]]


@dataclass
class UnigramModel:
    """Add-one-smoothed label frequencies for forward maximum matching."""

    label_probs: dict[str, float]
    max_label_len: int


@dataclass
class RuleLexicon:
    """Known words plus short-form -> full-form abbreviation entries."""

    words: set[str]
    abbreviations: dict[str, str]

    def covers(self, segment: str) -> bool:
        return segment in self.words or segment in self.abbreviations


@dataclass
class TokenizerPipeline:
    tf: TFModel
    unigram: UnigramModel
    lexicon: RuleLexicon


def split_by_convention(name: str) -> list[str]:
    """Split on lower->UPPER, underscores/punctuation, and alpha<->digit.

    Delimiters are dropped; digit runs are kept as their own segments.  The
    output is lowercased.
    """
    segments: list[str] = []
    current: list[str] = []
    prev = ""
    for ch in name:
        if not ch.isalnum():
            if current:
                segments.append("".join(current))
                current = []
            prev = ""
            continue
        if current:
            boundary = (
                (prev.islower() and ch.isupper())
                or (prev.isalpha() and ch.isdigit())
                or (prev.isdigit() and ch.isalpha())
            )
            if boundary:
                segments.append("".join(current))
                current = []
        current.append(ch)
        prev = ch
    if current:
        segments.append("".join(current))
    return [s.lower() for s in segments]


def train_tf_model(corpus: Iterable[str], max_n: int = 5) -> TFModel:
    """Count all n-grams (length <= max_n) and their adjacent characters."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    ngram_counts: Counter[str] = Counter()
    forward: dict[str, Counter[str]] = defaultdict(Counter)
    backward: dict[str, Counter[str]] = defaultdict(Counter)
    for text in corpus:
        length = len(text)
        for i in range(length):
            for n in range(1, min(max_n, length - i) + 1):
                gram = text[i : i + n]
                ngram_counts[gram] += 1
                if i + n < length:
                    forward[gram][text[i + n]] += 1
                if i > 0:
                    backward[gram][text[i - 1]] += 1
    return TFModel(
        max_n=max_n,
        ngram_counts=dict(ngram_counts),
        forward_tf={k: dict(v) for k, v in forward.items()},
        backward_tf={k: dict(v) for k, v in backward.items()},
    )


def tf_tokenize(model: TFModel, name: str, theta: float = TF_PEAK_THRESHOLD) -> set[int]:
    """Boundary positions where transition freedom jumps.

    At each interior position the transition freedom (TF) is the number of
    distinct characters seen after (forward pass) or before (backward pass)
    the longest matching n-gram touching the position.  A position is
    emitted when its TF increase over the neighboring position is positive,
    at least ``theta`` times the largest such peak, after doubling peaks
    whose flanking prefix or suffix is itself a known n-gram of length >= 2.
    """
    length = len(name)
    if length < 2:
        return set()

    def forward_tf(p: int) -> int:
        for start in range(max(0, p - model.max_n), p):
            gram = name[start:p]
            if gram in model.forward_tf:
                return len(model.forward_tf[gram])
        return 0

    def backward_tf(p: int) -> int:
        for end in range(min(length, p + model.max_n), p, -1):
            gram = name[p:end]
            if gram in model.backward_tf:
                return len(model.backward_tf[gram])
        return 0

    def doubled(p: int) -> bool:
        prefix = name[:p]
        suffix = name[p:]
        return (len(prefix) >= 2 and prefix in model.ngram_counts) or (
            len(suffix) >= 2 and suffix in model.ngram_counts
        )

    fwd = [forward_tf(p) for p in range(length + 1)]
    bwd = [backward_tf(p) for p in range(length + 1)]
    deltas_fwd = {p: fwd[p] - fwd[p - 1] for p in range(1, length)}
    deltas_bwd = {p: bwd[p] - bwd[p + 1] for p in range(1, length)}
    cuts: set[int] = set()
    for deltas in (deltas_fwd, deltas_bwd):
        for p, value in deltas.items():
            if value > 0 and doubled(p):
                deltas[p] = value * 2
        peak = max(deltas.values(), default=0)
        if peak > 0:
            cuts.update(p for p, value in deltas.items() if value > 0 and value >= theta * peak)
    return cuts


def train_unigram(corpus: Iterable[Sequence[str]]) -> UnigramModel:
    """Label frequencies with add-one smoothing over the observed vocabulary."""
    counts: Counter[str] = Counter()
    for labels in corpus:
        counts.update(labels)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty unigram training corpus")
    vocab_size = len(counts)
    probs = {label: (count + 1) / (total + vocab_size) for label, count in counts.items()}
    return UnigramModel(label_probs=probs, max_label_len=max(len(l) for l in counts))


def unigram_tokenize(model: UnigramModel, name: str) -> set[int]:
    """Forward maximum match: take the longest known prefix at each cursor."""
    cuts: set[int] = set()
    cursor = 0
    length = len(name)
    while cursor < length:
        step = 1
        for n in range(min(model.max_label_len, length - cursor), 0, -1):
            if name[cursor : cursor + n] in model.label_probs:
                step = n
                break
        cursor += step
        if cursor < length:
            cuts.add(cursor)
    return cuts


def _rule_key(lexicon: RuleLexicon, name: str) -> tuple[int, int, tuple[int, ...]]:
    """DP over suffixes; key = (-covered length, segment count, cut tuple)."""
    n = len(name)
    entries = set(lexicon.words) | set(lexicon.abbreviations)
    max_len = max((len(w) for w in entries), default=1)
    best: list[Optional[tuple[int, int, tuple[int, ...]]]] = [None] * (n + 1)
    best[n] = (0, 0, ())
    for i in range(n - 1, -1, -1):
        candidates = []
        for seg_len in range(1, min(max_len, n - i) + 1):
            segment = name[i : i + seg_len]
            if segment in entries:
                covered = seg_len
            elif seg_len == 1:
                covered = 0
            else:
                continue
            tail = best[i + seg_len]
            cuts = ((i + seg_len,) + tail[2]) if i + seg_len < n else ()
            candidates.append((tail[0] - covered, tail[1] + 1, cuts))
        best[i] = min(candidates)
    return best[0]


def rule_tokenize(lexicon: RuleLexicon, name: str) -> set[int]:
    """Cut set maximizing covered length, then fewest segments, then the
    lexicographically earliest cut tuple; uncovered residue falls apart into
    single characters."""
    if not name:
        return set()
    return set(_rule_key(lexicon, name)[2])


def vote(
    b_tf: set[int],
    b_uni: set[int],
    b_rule: set[int],
    name: Optional[str] = None,
    lexicon: Optional[RuleLexicon] = None,
) -> set[int]:
    """Combine the three boundary lists.

    Positions backed by at least two lists form the final set; the list
    agreeing most with it (ties: rule > unigram > TF) is appended as the
    pending list.  When ``name`` and ``lexicon`` are supplied, adjacent cuts
    that chop a lexicon word are resolved by dropping the pending-only cut.
    """
    lists = {"rule": set(b_rule), "unigram": set(b_uni), "tf": set(b_tf)}
    final = {
        p
        for p in lists["rule"] | lists["unigram"] | lists["tf"]
        if sum(p in member for member in lists.values()) >= 2
    }
    pending_name = max(("rule", "unigram", "tf"), key=lambda k: len(lists[k] & final))
    result = final | lists[pending_name]
    if name is not None and lexicon is not None:
        for cut in sorted(lists[pending_name] - final):
            if cut not in result:
                continue
            if (cut - 1 in result) or (cut + 1 in result):
                trial = result - {cut}
                left = max((p for p in trial if p < cut), default=0)
                right = min((p for p in trial if p > cut), default=len(name))
                if lexicon.covers(name[left:right]):
                    result = trial
    return result


def _segment_suspect(segment: str, lexicon: RuleLexicon) -> bool:
    if segment.isdigit():
        return False
    return len(segment) > 3 and not lexicon.covers(segment)


def tokenize_name(pipeline: TokenizerPipeline, name: str) -> list[str]:
    """Full ensemble: convention pre-split, per-segment voting, lowercased labels."""
    if not name:
        raise ValueError("empty name")
    segments = split_by_convention(name)
    if not segments:
        raise ValueError(f"name {name!r} contains no tokenizable characters")
    stripped = "".join(segments)
    voted: set[int] = set()
    joints: set[int] = set()
    offset = 0
    for segment in segments:
        if offset > 0:
            joints.add(offset)
        if _segment_suspect(segment, pipeline.lexicon):
            tf_cuts = tf_tokenize(pipeline.tf, segment)
            uni_cuts = unigram_tokenize(pipeline.unigram, segment)
            rule_cuts = rule_tokenize(pipeline.lexicon, segment)
            voted.update(offset + p for p in vote(tf_cuts, uni_cuts, rule_cuts, segment, pipeline.lexicon))
        offset += len(segment)
    final = sorted(joints | voted)
    bounds = [0, *final, len(stripped)]
    return [stripped[a:b] for a, b in zip(bounds, bounds[1:])]


def expand_abbreviations(labels: Sequence[str], lexicon: RuleLexicon) -> list[str]:
    """Replace labels that are known short forms with their expansions."""
    return [lexicon.abbreviations.get(label, label) for label in labels]


def preprocess_name(pipeline: TokenizerPipeline, name: str, expand: bool = True) -> list[str]:
    """tokenize_name followed by abbreviation expansion (the full pipeline)."""
    labels = tokenize_name(pipeline, name)
    return expand_abbreviations(labels, pipeline.lexicon) if expand else labels


# -- file formats and bundled defaults ----------------------------------

def parse_lexicon(lines: Iterable[str]) -> RuleLexicon:
    """TSV with one column (word) or two (abbreviation<TAB>expansion)."""
    words: set[str] = set()
    abbreviations: dict[str, str] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 1:
            words.add(parts[0].lower())
        elif len(parts) == 2:
            short, full = parts[0].lower(), parts[1].lower()
            if not short or len(short) > len(full):
                raise ValueError(f"lexicon line {line_no}: bad abbreviation {short!r} -> {full!r}")
            abbreviations[short] = full
        else:
            raise ValueError(f"lexicon line {line_no}: expected 1 or 2 tab-separated columns")
    return RuleLexicon(words=words, abbreviations=abbreviations)


def load_lexicon(path: str) -> RuleLexicon:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_lexicon(fh)


def load_corpus(path: str) -> list[list[str]]:
    """One whitespace-tokenized name per line."""
    corpus = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if tokens:
                corpus.append(tokens)
    return corpus


def bundled_lexicon() -> RuleLexicon:
    text = importlib.resources.files("fnpred.data").joinpath("lexicon.tsv").read_text("utf-8")
    return parse_lexicon(text.splitlines())


def bundled_corpus() -> list[list[str]]:
    text = importlib.resources.files("fnpred.data").joinpath("name_corpus.txt").read_text("utf-8")
    return [line.split() for line in text.splitlines() if line.split()]


def build_pipeline(
    corpus: list[list[str]], lexicon: RuleLexicon, max_n: int = 8
) -> TokenizerPipeline:
    """Train the TF and unigram models from a tokenized name corpus.

    The unigram model sees the corpus tokens; the TF model sees each name
    with its token boundaries removed, so it learns transitions across the
    very joints the tokenizers must later rediscover.
    """
    unigram = train_unigram(corpus)
    tf = train_tf_model(["".join(tokens) for tokens in corpus], max_n=max_n)
    return TokenizerPipeline(tf=tf, unigram=unigram, lexicon=lexicon)


def default_pipeline() -> TokenizerPipeline:
    return build_pipeline(bundled_corpus(), bundled_lexicon())
