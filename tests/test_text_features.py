import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialectid.data import CsrRows
from dialectid.errors import ValidationError
from dialectid.svm import train_linear_svm
from dialectid.text_features import (
    BOUNDARY_TOKEN,
    UNK_TOKEN,
    NgramVocab,
    PhoneSequence,
    Transcript,
    build_vocab,
    count_ngrams,
    featurize_transcripts,
    normalize_for_chars,
    phone_duration_stats,
)

from helpers import to_dense

SP = BOUNDARY_TOKEN
UNK = UNK_TOKEN


def t(tokens, source="word", utt="u1"):
    return Transcript(utt_id=utt, tokens=tuple(tokens), source=source)


class TestNormalizeForChars:
    def test_two_words_split_with_boundary(self):
        assert normalize_for_chars(t(["ab", "cd"])) == ["a", "b", SP, "c", "d"]

    def test_oov_marker_becomes_unk(self):
        assert normalize_for_chars(t(["<UNK>"])) == [UNK]

    def test_single_word_no_boundary(self):
        assert normalize_for_chars(t(["a"])) == ["a"]

    def test_unk_between_words(self):
        assert normalize_for_chars(t(["ab", "<UNK>", "cd"])) == [
            "a", "b", SP, UNK, SP, "c", "d",
        ]

    def test_idempotent_in_effect(self):
        first = normalize_for_chars(t(["ab", "cde", "<UNK>", "f"]))
        second = normalize_for_chars(t(first))
        assert second == first

    def test_char_transcript_rejected(self):
        with pytest.raises(ValidationError):
            normalize_for_chars(t(["a"], source="char"))


def ngram_counts_bruteforce(tokens, n):
    out = {}
    tokens = list(tokens)
    for i in range(len(tokens)):
        if i + n <= len(tokens):
            key = tuple(tokens[i:i + n])
            out[key] = out.get(key, 0) + 1
    return out


class TestCountNgrams:
    def test_bigram_example(self):
        assert dict(count_ngrams(["a", "b", "a"], 2)) == {("a", "b"): 1, ("b", "a"): 1}

    def test_too_short_sequence(self):
        assert dict(count_ngrams(["a"], 2)) == {}

    def test_unigram_repeats(self):
        assert dict(count_ngrams(["a", "a", "a"], 1)) == {("a",): 3}

    def test_order_zero_rejected(self):
        with pytest.raises(ValidationError):
            count_ngrams(["a"], 0)

    def test_total_mass(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            toks = [str(c) for c in rng.integers(0, 4, size=rng.integers(0, 12))]
            for n in (1, 2, 3):
                total = sum(count_ngrams(toks, n).values())
                assert total == max(len(toks) - n + 1, 0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            toks = [str(c) for c in rng.integers(0, 5, size=rng.integers(0, 15))]
            n = int(rng.integers(1, 4))
            assert dict(count_ngrams(toks, n)) == ngram_counts_bruteforce(toks, n)


class TestBuildVocab:
    def test_min_count_one_keeps_everything(self):
        vocab = build_vocab([["a", "b"], ["b", "c"]], n=1)
        assert set(vocab.index) == {("a",), ("b",), ("c",)}

    def test_two_document_toy_matches_hand_enumeration(self):
        docs = [["x", "y", "x"], ["y", "x"]]
        vocab = build_vocab(docs, n=2)
        # hand enumeration: xy(1), yx(1+1), plus nothing else
        assert set(vocab.index) == {("x", "y"), ("y", "x")}

    def test_lexicographic_dense_indices(self):
        vocab = build_vocab([["c", "a", "b"]], n=1)
        assert vocab.index[("a",)] == 0
        assert vocab.index[("b",)] == 1
        assert vocab.index[("c",)] == 2

    def test_accepts_transcripts(self):
        vocab = build_vocab([t(["a", "b"]), t(["b"])], n=1)
        assert len(vocab) == 2

    def test_empty_corpus_errors(self):
        with pytest.raises(ValidationError):
            build_vocab([], n=1)

    def test_corpus_shorter_than_n_errors(self):
        with pytest.raises(ValidationError, match="no 3-gram"):
            build_vocab([["a", "b"], ["c"]], n=3)


class TestVectorize:
    """Single documents through `featurize_transcripts`."""

    def _vocab(self):
        return NgramVocab(n=2, mode="char", index={("a", "b"): 0, ("b", "a"): 1})

    def test_oov_dropped_to_empty(self):
        M = featurize_transcripts([t(["z"] * 6)], self._vocab())
        assert M.shape == (1, 2)
        assert M.indptr.tolist() == [0, 0] and M.data.size == 0

    def test_l2_three_four_five(self):
        M = featurize_transcripts([t(list("babababa"))], self._vocab())  # ab x3, ba x4
        assert M.indices.tolist() == [0, 1]
        np.testing.assert_allclose(M.data, [0.6, 0.8])

    def test_l2_unit_norm_property(self):
        rng = np.random.default_rng(2)
        vocab = build_vocab([[str(i) for i in range(10)]], n=1)
        docs = [t([str(c) for c in rng.integers(0, 10, size=rng.integers(1, 20))])
                for _ in range(25)]
        M = featurize_transcripts(docs, vocab)
        for lo, hi in zip(M.indptr[:-1], M.indptr[1:]):
            if hi > lo:
                assert np.linalg.norm(M.data[lo:hi]) == pytest.approx(1.0)


class TestPhoneDurationStats:
    def test_single_phone(self):
        dense = phone_duration_stats(PhoneSequence("u", (("p", 1.0),)), ["p"])
        np.testing.assert_allclose(dense, [1.0, 1.0, 1.0])

    def test_two_equal_phones_split_shares(self):
        dense = phone_duration_stats(
            PhoneSequence("u", (("p", 0.5), ("q", 0.5))), ["p", "q"]
        )
        assert dense[0] == pytest.approx(0.5)  # share p
        assert dense[3] == pytest.approx(0.5)  # share q

    def test_hand_sequence(self):
        seq = PhoneSequence("u", (("a", 0.2), ("b", 0.3), ("a", 0.1), ("c", 0.4)))
        dense = phone_duration_stats(seq, ["a", "b", "c"])
        assert dense.shape == (9,) and not dense.flags.writeable
        np.testing.assert_allclose(dense[0:3], [0.3, 0.15, 0.5])  # a
        np.testing.assert_allclose(dense[3:6], [0.3, 0.3, 0.25])  # b
        np.testing.assert_allclose(dense[6:9], [0.4, 0.4, 0.25])  # c

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(3)
        inv = ["p%d" % i for i in range(6)]
        for _ in range(25):
            phones = tuple(
                (inv[rng.integers(0, 6)], float(rng.uniform(0.05, 2.0)))
                for _ in range(rng.integers(1, 15))
            )
            dense = phone_duration_stats(PhoneSequence("u", phones), inv)
            assert abs(dense[0::3].sum() - 1.0) < 1e-12

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValidationError):
            PhoneSequence("u", (("p", 0.0),))

    def test_unknown_phone_rejected(self):
        with pytest.raises(ValidationError):
            phone_duration_stats(PhoneSequence("u", (("zz", 1.0),)), ["p"])


class TestFeaturizeTranscripts:
    def test_rows_follow_input_order(self):
        docs = [t(["a", "b"], utt="u1"), t(["b", "b"], utt="u2")]
        vocab = build_vocab([d.tokens for d in docs], n=1)
        M = featurize_transcripts(docs, vocab)
        counts = np.array([[1.0, 1.0], [0.0, 2.0]])
        np.testing.assert_array_equal(
            to_dense(M), counts / np.linalg.norm(counts, axis=1, keepdims=True))

    @settings(max_examples=60, deadline=None)
    @given(
        train=st.lists(st.lists(st.sampled_from("abcde"), max_size=8), min_size=1, max_size=6),
        docs=st.lists(st.lists(st.sampled_from("abcdexy"), max_size=8), min_size=2, max_size=8),
        n=st.integers(1, 3),
    )
    def test_matches_dense_count_oracle(self, train, docs, n):
        # x and y never reach the vocabulary, so the appended doc is all OOV
        if not any(len(d) >= n for d in train):
            train = train + [["a"] * n]
        vocab = build_vocab(train, n=n)
        docs = [t(d, utt="u%d" % i) for i, d in enumerate(docs + [["x", "y"] * n])]
        M = featurize_transcripts(docs, vocab)
        oracle = np.zeros((len(docs), len(vocab)))
        for i, d in enumerate(docs):
            for g, c in count_ngrams(d.tokens, n).items():
                if g in vocab.index:
                    oracle[i, vocab.index[g]] = c
            if oracle[i].any():
                oracle[i] /= np.linalg.norm(oracle[i])
        assert len(M) == M.shape[0] == len(docs) and M.shape[1] == len(vocab)
        np.testing.assert_array_equal(to_dense(M), oracle)
        assert isinstance(M, CsrRows)  # so its columns are canonical: CsrRows checks them
        assert np.all(M.data != 0)
        assert M.indptr[-1] == M.indptr[-2]  # the all-OOV doc is an empty row
        assert featurize_transcripts([], vocab).shape == (0, len(vocab))
        labels = ["A" if i % 2 else "B" for i in range(len(docs))]
        m_sparse = train_linear_svm(M, labels, epochs=5, seed=n)
        m_dense = train_linear_svm(to_dense(M), labels, epochs=5, seed=n)
        np.testing.assert_array_equal(m_sparse.weights, m_dense.weights)
        np.testing.assert_array_equal(m_sparse.biases, m_dense.biases)

    def test_working_memory_follows_nonzeros_not_vocab(self):
        # 1500 docs over a ~35k-bigram vocabulary: a dense matrix takes about
        # 400 MB, the CSR one under 1 MB of values and indices
        rng = np.random.default_rng(0)
        words = ["w%d" % i for i in range(3000)]
        docs = [t(rng.choice(words, size=25), utt="u%d" % i) for i in range(1500)]
        vocab = build_vocab(docs, n=2)
        assert len(vocab) > 30000
        tracemalloc.start()
        try:
            M = featurize_transcripts(docs, vocab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert M.shape == (1500, len(vocab))
        assert peak < 20e6, peak
