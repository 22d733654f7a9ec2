"""N-gram featurizers for word, character and phone transcripts.

Character mode replaces the recognizer's OOV marker with a single <unk>
token, splits every other word into single characters, and marks word
boundaries with <sp>. Transcripts become l2-normalized n-gram count rows
of one `data.CsrRows`; phone sequences additionally yield a dense row of
per-phone duration statistics. Vocabularies are built from training text
only and indexed lexicographically so featurization is deterministic.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .data import CsrRows
from .errors import ValidationError

UNK_TOKEN = "<unk>"
BOUNDARY_TOKEN = "<sp>"
DEFAULT_OOV_MARKER = "<UNK>"

SOURCES = ("word", "char", "phone")


@dataclass(frozen=True)
class Transcript:
    utt_id: str
    tokens: tuple[str, ...]
    source: str = "word"

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if self.source not in SOURCES:
            raise ValidationError("transcript source must be one of %r" % (SOURCES,))


@dataclass(frozen=True)
class PhoneSequence:
    utt_id: str
    phones: tuple[tuple[str, float], ...]  # (symbol, duration seconds)

    def __post_init__(self):
        object.__setattr__(self, "phones", tuple((p, float(d)) for p, d in self.phones))
        for p, d in self.phones:
            if not (d > 0 and np.isfinite(d)):
                raise ValidationError(
                    "phone %r in %s has non-positive duration %r" % (p, self.utt_id, d)
                )


@dataclass(frozen=True)
class NgramVocab:
    n: int
    mode: str
    index: dict[tuple[str, ...], int] = field(repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n-gram order must be >= 1")
        if sorted(self.index.values()) != list(range(len(self.index))):
            raise ValidationError("vocab indices must be dense 0..V-1")

    def __len__(self):
        return len(self.index)


def _is_char_token(token: str) -> bool:
    return len(token) == 1 or token in (UNK_TOKEN, BOUNDARY_TOKEN)


def normalize_for_chars(
    transcript: Transcript, oov_marker: str = DEFAULT_OOV_MARKER
) -> list[str]:
    """Turn a word transcript into a character token sequence.

    OOV markers collapse to <unk>, every other word splits into single
    characters, and <sp> separates adjacent words. Sequences that already
    consist solely of single-character/special tokens pass through
    unchanged, so repeated application is a no-op.
    """
    if transcript.source != "word":
        raise ValidationError("character normalization expects a word transcript")
    tokens = [UNK_TOKEN if t == oov_marker else t for t in transcript.tokens]
    if all(_is_char_token(t) for t in tokens):
        return tokens
    pieces = []
    for tok in tokens:
        if tok in (UNK_TOKEN, BOUNDARY_TOKEN):
            pieces.append([tok])
        else:
            pieces.append(list(tok))
    out: list[str] = []
    for i, piece in enumerate(pieces):
        if i > 0 and piece != [BOUNDARY_TOKEN] and pieces[i - 1] != [BOUNDARY_TOKEN]:
            out.append(BOUNDARY_TOKEN)
        out.extend(piece)
    return out


def count_ngrams(tokens: Sequence[str], n: int) -> Counter:
    """Sliding-window n-gram counts; sequences shorter than n yield nothing."""
    if n < 1:
        raise ValidationError("n-gram order must be >= 1")
    tokens = tuple(tokens)
    return Counter(tokens[i:i + n] for i in range(len(tokens) - n + 1))


def build_vocab(
    corpus: Iterable, n: int, min_count: int = 1, mode: str = "word"
) -> NgramVocab:
    """Collect n-grams with corpus count >= min_count, indexed lexicographically.

    `corpus` holds token sequences (or Transcript objects). Build it from
    training (optionally training+development) text only; test text must
    never leak in.
    """
    if min_count < 1:
        raise ValidationError("min_count must be >= 1")
    totals: Counter = Counter()
    seen_any = False
    for doc in corpus:
        seen_any = True
        tokens = doc.tokens if isinstance(doc, Transcript) else doc
        totals.update(count_ngrams(tokens, n))
    if not seen_any:
        raise ValidationError("cannot build a vocabulary from an empty corpus")
    kept = sorted(g for g, c in totals.items() if c >= min_count)
    if not kept:
        raise ValidationError("vocabulary empty after pruning at min_count=%d" % min_count)
    return NgramVocab(n=n, mode=mode, index={g: i for i, g in enumerate(kept)})


def phone_duration_stats(seq: PhoneSequence, inventory: Sequence[str]) -> np.ndarray:
    """Per-phone (total duration share, mean duration, occurrence rate).

    Returns a read-only dense row of the three statistics per phone in
    inventory order (length 3 * len(inventory), zeros for absent phones);
    duration shares sum to 1. Phones outside the inventory are an error.
    """
    if not seq.phones:
        raise ValidationError("phone sequence %s is empty" % seq.utt_id)
    inventory = tuple(inventory)
    slot = {p: i for i, p in enumerate(inventory)}
    if len(slot) != len(inventory):
        raise ValidationError("phone inventory contains duplicates")
    for p, _ in seq.phones:
        if p not in slot:
            raise ValidationError("phone %r not in inventory" % p)
    total_dur = sum(d for _, d in seq.phones)
    n = len(seq.phones)
    durs: dict[str, list[float]] = {}
    for p, d in seq.phones:
        durs.setdefault(p, []).append(d)
    dense = np.zeros(3 * len(inventory))
    for p, ds in durs.items():
        base = 3 * slot[p]
        dense[base] = sum(ds) / total_dur
        dense[base + 1] = sum(ds) / len(ds)
        dense[base + 2] = len(ds) / n
    dense.flags.writeable = False
    return dense


def featurize_transcripts(transcripts: Sequence[Transcript], vocab: NgramVocab) -> CsrRows:
    """(n_docs, V) `CsrRows` of l2-normalized n-gram counts; rows follow input order.

    Rows are built straight from the counts, checked once by `CsrRows`;
    out-of-vocabulary n-grams drop, so an all-OOV document is an empty row.
    Counts are integers, so a row's sum of squares is exact in any order
    below 2**53, and each norm and quotient is bitwise `np.linalg.norm`'s.
    """
    index, sizes, columns, counts = vocab.index, [0], [], []  # indptr = cumsum(sizes)
    for t in transcripts:
        row = sorted((index[g], c) for g, c in count_ngrams(t.tokens, vocab.n).items()
                     if g in index)
        sizes.append(len(row))
        columns.extend(j for j, _ in row)
        counts.extend(c for _, c in row)
    indptr = np.cumsum(sizes, dtype=np.int64)
    data, indices = np.array(counts, dtype=np.float64), np.array(columns, dtype=np.int64)
    del counts, columns  # CsrRows copies the arrays; the lists need not outlive them
    lengths = np.diff(indptr)
    filled = np.flatnonzero(lengths)  # reduceat gives an empty row a term, not 0
    data /= np.repeat(np.sqrt(np.add.reduceat(data * data, indptr[filled])), lengths[filled])
    return CsrRows(data, indices, indptr, (indptr.size - 1, len(vocab)))
