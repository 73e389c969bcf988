"""Lexical relations between name labels: synonyms, abbreviations, related words.

Candidate pairs come from two embedding spaces (plain skip-gram and a
subword-composed variant), are classified by Smith-Waterman relative
similarity, a prefix test, and an external relation file, and are finally
merged into groups with one canonical label each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .kernels import sgns_epoch, smith_waterman_score

SYNONYM_THRESHOLD = 2.0 / 3.0

# -- stemming (Porter steps 1a, 1b, 2 only) ------------------------------

_STEP2_SUFFIXES = [
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("biliti", "ble"), ("tional", "tion"), ("alism", "al"),
    ("aliti", "al"), ("iviti", "ive"), ("ation", "ate"), ("entli", "ent"),
    ("ousli", "ous"), ("anci", "ance"), ("enci", "ence"), ("izer", "ize"),
    ("abli", "able"), ("alli", "al"), ("ator", "ate"), ("eli", "e"),
]


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Porter's m: the number of vowel-consonant sequences in the stem."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if cons and prev_vowel:
            m += 1
        prev_vowel = not cons
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return False
    return word[-1] not in "wxy"


def stem(label: str) -> str:
    """Suffix stripping limited to Porter steps 1a, 1b, and 2."""
    word = label.lower()
    if len(word) <= 2:
        return word
    # step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]
    # step 1b
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        stripped = None
        if word.endswith("ed") and _contains_vowel(word[:-2]):
            stripped = word[:-2]
        elif word.endswith("ing") and _contains_vowel(word[:-3]):
            stripped = word[:-3]
        if stripped is not None:
            word = stripped
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"
    # step 2
    for suffix, replacement in _STEP2_SUFFIXES:
        if word.endswith(suffix):
            root = word[: -len(suffix)]
            if _measure(root) > 0:
                word = root + replacement
            break
    return word


# -- embedding tables -----------------------------------------------------

@dataclass
class EmbeddingTable:
    """Frozen label vectors; subword tables can also compose OOV queries."""

    vocab: dict[str, int]
    vectors: np.ndarray
    dim: int
    kind: str
    epoch_losses: list[float] = field(default_factory=list)
    ngram_range: Optional[tuple[int, int]] = None
    ngram_vocab: Optional[dict[str, int]] = None
    ngram_vectors: Optional[np.ndarray] = None

    def vector(self, label: str) -> np.ndarray:
        row = self.vocab.get(label)
        if row is not None:
            return self.vectors[row]
        if self.kind != "subword":
            raise KeyError(f"label {label!r} not in vocabulary")
        grams = [g for g in _char_ngrams(label, *self.ngram_range) if g in self.ngram_vocab]
        if not grams:
            return np.zeros(self.dim)
        rows = [self.ngram_vocab[g] for g in grams]
        return self.ngram_vectors[rows].mean(axis=0)

    def neighbors(self, label: str, k: int = 10) -> list[str]:
        """Top-k cosine neighbors, self excluded; ties break lexicographically.

        Subword tables accept out-of-vocabulary queries via composition.
        """
        if label not in self.vocab and self.kind != "subword":
            raise KeyError(f"label {label!r} not in vocabulary")
        query = self.vector(label)
        qn = np.linalg.norm(query)
        norms = np.linalg.norm(self.vectors, axis=1)
        denom = norms * qn
        sims = np.where(denom > 0, self.vectors @ query / np.where(denom > 0, denom, 1.0), 0.0)
        order = sorted(
            (other for other in self.vocab if other != label),
            key=lambda w: (-sims[self.vocab[w]], w),
        )
        return order[:k]


def _char_ngrams(word: str, lo: int, hi: int) -> list[str]:
    marked = f"<{word}>"
    grams = []
    for n in range(lo, hi + 1):
        for i in range(len(marked) - n + 1):
            grams.append(marked[i : i + n])
    return grams


def _build_vocab(corpus: Sequence[Sequence[str]]) -> tuple[dict[str, int], np.ndarray]:
    counts: dict[str, int] = {}
    for labels in corpus:
        for label in labels:
            counts[label] = counts.get(label, 0) + 1
    if not counts:
        raise ValueError("empty embedding training corpus")
    ordered = sorted(counts, key=lambda w: (-counts[w], w))
    vocab = {w: i for i, w in enumerate(ordered)}
    freq = np.array([counts[w] for w in ordered], dtype=np.float64)
    return vocab, freq


def _skipgram_pairs(corpus: Sequence[Sequence[str]], vocab: dict[str, int], window: int) -> tuple[np.ndarray, np.ndarray]:
    centers, contexts = [], []
    for labels in corpus:
        ids = [vocab[l] for l in labels]
        for i, center in enumerate(ids):
            for j in range(max(0, i - window), min(len(ids), i + window + 1)):
                if j != i:
                    centers.append(center)
                    contexts.append(ids[j])
    return np.array(centers, dtype=np.int64), np.array(contexts, dtype=np.int64)


def _negative_cdf(freq: np.ndarray) -> np.ndarray:
    weights = freq**0.75
    return np.cumsum(weights / weights.sum())


def _run_sgns(
    comp_flat: np.ndarray,
    comp_off: np.ndarray,
    contexts: np.ndarray,
    n_rows_in: int,
    n_rows_out: int,
    cdf: np.ndarray,
    dim: int,
    negatives: int,
    epochs: int,
    seed: int,
    lr: float,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    rng = np.random.default_rng(seed)
    vec_in = (rng.random((n_rows_in, dim)) - 0.5) / dim
    vec_out = np.zeros((n_rows_out, dim))
    losses = []
    n_pairs = contexts.shape[0]
    for _ in range(epochs):
        draws = rng.random((n_pairs, negatives))
        neg_rows = np.searchsorted(cdf, draws).astype(np.int64)
        loss = sgns_epoch(comp_flat, comp_off, contexts, neg_rows, vec_in, vec_out, lr)
        losses.append(float(loss) / max(n_pairs, 1))
    return vec_in, vec_out, losses


def train_skipgram(
    corpus: Sequence[Sequence[str]],
    dim: int = 32,
    window: int = 2,
    negatives: int = 5,
    epochs: int = 50,
    seed: int = 0,
    lr: float = 0.05,
) -> EmbeddingTable:
    """Skip-gram with negative sampling; deterministic given the seed."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    vocab, freq = _build_vocab(corpus)
    centers, contexts = _skipgram_pairs(corpus, vocab, window)
    comp_off = np.arange(centers.shape[0] + 1, dtype=np.int64)
    cdf = _negative_cdf(freq)
    vec_in, _, losses = _run_sgns(
        centers, comp_off, contexts, len(vocab), len(vocab), cdf, dim, negatives, epochs, seed, lr
    )
    return EmbeddingTable(vocab=vocab, vectors=vec_in.copy(), dim=dim, kind="skipgram", epoch_losses=losses)


def train_subword_embeddings(
    corpus: Sequence[Sequence[str]],
    dim: int = 32,
    window: int = 2,
    negatives: int = 5,
    epochs: int = 50,
    seed: int = 0,
    lr: float = 0.05,
    ngram_range: tuple[int, int] = (3, 6),
) -> EmbeddingTable:
    """Subword embeddings: words are composed from boundary-marked n-grams.

    During training the hidden vector of a center word is the mean of its
    word row and its n-gram rows; the stored query vector for a word is the
    mean of its n-gram vectors plus its word vector.  OOV labels compose a
    vector from whatever n-grams they share with the training vocabulary.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    vocab, freq = _build_vocab(corpus)
    centers, contexts = _skipgram_pairs(corpus, vocab, window)
    ngram_vocab: dict[str, int] = {}
    word_grams: list[list[int]] = []
    for word in vocab:
        rows = []
        for gram in _char_ngrams(word, *ngram_range):
            if gram not in ngram_vocab:
                ngram_vocab[gram] = len(ngram_vocab)
            rows.append(len(vocab) + ngram_vocab[gram])
        word_grams.append(rows)
    comp_lists = [[w] + word_grams[w] for w in range(len(vocab))]
    comp_flat = np.array([r for c in centers for r in comp_lists[c]], dtype=np.int64)
    comp_off = np.zeros(centers.shape[0] + 1, dtype=np.int64)
    for p, c in enumerate(centers):
        comp_off[p + 1] = comp_off[p] + len(comp_lists[c])
    cdf = _negative_cdf(freq)
    vec_in, _, losses = _run_sgns(
        comp_flat, comp_off, contexts, len(vocab) + len(ngram_vocab), len(vocab),
        cdf, dim, negatives, epochs, seed, lr,
    )
    word_vecs = vec_in[: len(vocab)]
    ngram_vecs = vec_in[len(vocab):].copy()
    query = np.zeros((len(vocab), dim))
    for w in range(len(vocab)):
        rows = [r - len(vocab) for r in word_grams[w]]
        query[w] = ngram_vecs[rows].mean(axis=0) + word_vecs[w]
    return EmbeddingTable(
        vocab=vocab, vectors=query, dim=dim, kind="subword", epoch_losses=losses,
        ngram_range=ngram_range, ngram_vocab=ngram_vocab, ngram_vectors=ngram_vecs,
    )


# -- pairwise relations ----------------------------------------------------

def sw_relative_similarity(a: str, b: str) -> float:
    """Best local-alignment score divided by the shorter string's length."""
    if not a or not b:
        raise ValueError("empty string")
    return smith_waterman_score(a, b) / min(len(a), len(b))


def is_abbreviation(t: str, w: str) -> bool:
    """True iff one label is a proper prefix of the other."""
    if t == w:
        return False
    return t.startswith(w) or w.startswith(t)


def classify_relation(
    t: str, c: str, external: Optional[set[frozenset[str]]] = None, threshold: float = SYNONYM_THRESHOLD
) -> str:
    """One of 'synonym', 'abbreviation', 'related', 'none', tested in that order."""
    if sw_relative_similarity(t, c) >= threshold:
        return "synonym"
    if is_abbreviation(t, c):
        return "abbreviation"
    if external and frozenset((t, c)) in external:
        return "related"
    return "none"


def candidate_set(label: str, sg: EmbeddingTable, sw: EmbeddingTable) -> list[str]:
    """Top-10 cosine neighbors from each table, concatenated (duplicates kept)."""
    if label not in sg.vocab:
        raise ValueError(f"label {label!r} not in skip-gram vocabulary")
    return sg.neighbors(label, k=10) + sw.neighbors(label, k=10)


# -- relation groups and canonicalization ----------------------------------

@dataclass
class RelationLexicon:
    canonical: dict[str, str]
    relations: list[tuple[str, str, str]]


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:  # keep the lexicographically smaller root for determinism
                ra, rb = rb, ra
            self.parent[rb] = ra


def elect_canonical(members: set[str]) -> str:
    """Pick the canonical label of a group.

    Members are first replaced by their stems when the stem is itself a
    member (so plural/inflected forms defer to the base form).  If the
    reduced set still contains a proper-prefix pair — an abbreviation-style
    relation — the longest member wins (expand, don't contract); otherwise
    the shortest.  Ties break lexicographically.
    """
    reduced = {stem(m) if stem(m) in members else m for m in members}
    has_prefix_pair = any(
        is_abbreviation(a, b) for a in reduced for b in reduced if a < b
    )
    if has_prefix_pair:
        return max(sorted(reduced), key=len)
    return min(sorted(reduced), key=len)


def load_relation_file(path: str) -> set[frozenset[str]]:
    """TSV `label_a<TAB>label_b<TAB>kind`; every row marks the pair related."""
    pairs: set[frozenset[str]] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ValueError(f"relation file line {line_no}: expected at least 2 columns")
            a, b = parts[0].lower(), parts[1].lower()
            if a != b:
                pairs.add(frozenset((a, b)))
    return pairs


def build_relation_groups(
    vocab: Sequence[str],
    sg: Optional[EmbeddingTable] = None,
    sw: Optional[EmbeddingTable] = None,
    external: Optional[set[frozenset[str]]] = None,
    threshold: float = SYNONYM_THRESHOLD,
) -> RelationLexicon:
    """Union stems and accepted (synonym, abbreviation) pairs; record 'related'.

    Candidate pairs come from the embedding neighbor lists plus any
    ``external`` pairs whose members are both in ``vocab``.  Candidates
    outside ``vocab`` are ignored; 'related' pairs are recorded but never
    merged into a group.
    """
    labels = sorted(set(vocab))
    if not labels:
        return RelationLexicon(canonical={}, relations=[])
    label_set = set(labels)
    uf = _UnionFind(labels)
    by_stem: dict[str, str] = {}
    for label in labels:
        s = stem(label)
        if s in by_stem:
            uf.union(by_stem[s], label)
        else:
            by_stem[s] = label
    pairs: set[tuple[str, str]] = set()
    if sg is not None and sw is not None:
        for label in labels:
            if label not in sg.vocab:
                continue
            for cand in candidate_set(label, sg, sw):
                if cand != label and cand in label_set:
                    pairs.add((min(label, cand), max(label, cand)))
    if external:
        for pair in external:
            a, b = sorted(pair)
            if a in label_set and b in label_set:
                pairs.add((a, b))
    relations: set[tuple[str, str, str]] = set()
    for a, b in pairs:
        kind = classify_relation(a, b, external=external, threshold=threshold)
        if kind == "none":
            continue
        relations.add((a, b, kind))
        if kind in ("synonym", "abbreviation"):
            uf.union(a, b)
    groups: dict[str, set[str]] = {}
    for label in labels:
        groups.setdefault(uf.find(label), set()).add(label)
    canonical: dict[str, str] = {}
    for members in groups.values():
        canon = elect_canonical(members)
        for member in members:
            canonical[member] = canon
    return RelationLexicon(canonical=canonical, relations=sorted(relations))
