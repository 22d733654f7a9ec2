import numpy as np
import pytest

from dialectid.errors import ValidationError
from dialectid.text_features import (
    BOUNDARY_TOKEN,
    UNK_TOKEN,
    FeatureVector,
    NgramVocab,
    PhoneSequence,
    Transcript,
    build_vocab,
    count_ngrams,
    featurize_transcripts,
    normalize_for_chars,
    phone_duration_stats,
    vectorize,
)

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

    def test_min_count_above_max_errors(self):
        with pytest.raises(ValidationError):
            build_vocab([["a", "b"]], n=1, min_count=5)

    def test_two_document_toy_matches_hand_enumeration(self):
        docs = [["x", "y", "x"], ["y", "x"]]
        vocab = build_vocab(docs, n=2, min_count=1)
        # hand enumeration: xy(1), yx(1+1), plus nothing else
        assert set(vocab.index) == {("x", "y"), ("y", "x")}
        vocab2 = build_vocab(docs, n=2, min_count=2)
        assert set(vocab2.index) == {("y", "x")}

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


class TestVectorize:
    def _vocab(self):
        return NgramVocab(n=2, mode="char", index={("a", "b"): 0, ("b", "a"): 1})

    def test_oov_dropped_to_empty(self):
        fv = vectorize({("z", "z"): 5}, self._vocab())
        assert fv.indices.size == 0

    def test_l2_three_four_five(self):
        fv = vectorize({("a", "b"): 3, ("b", "a"): 4}, self._vocab())
        np.testing.assert_allclose(fv.values, [0.6, 0.8])

    def test_l2_unit_norm_property(self):
        rng = np.random.default_rng(2)
        vocab = build_vocab([[str(i) for i in range(10)]], n=1)
        for _ in range(25):
            toks = [str(c) for c in rng.integers(0, 10, size=rng.integers(1, 20))]
            fv = vectorize(count_ngrams(toks, 1), vocab)
            if fv.indices.size:
                assert np.linalg.norm(fv.values) == pytest.approx(1.0)


class TestPhoneDurationStats:
    def test_single_phone(self):
        fv = phone_duration_stats(PhoneSequence("u", (("p", 1.0),)), ["p"])
        dense = fv.to_dense()
        np.testing.assert_allclose(dense, [1.0, 1.0, 1.0])

    def test_two_equal_phones_split_shares(self):
        fv = phone_duration_stats(
            PhoneSequence("u", (("p", 0.5), ("q", 0.5))), ["p", "q"]
        )
        dense = fv.to_dense()
        assert dense[0] == pytest.approx(0.5)  # share p
        assert dense[3] == pytest.approx(0.5)  # share q

    def test_hand_sequence(self):
        seq = PhoneSequence("u", (("a", 0.2), ("b", 0.3), ("a", 0.1), ("c", 0.4)))
        fv = phone_duration_stats(seq, ["a", "b", "c"])
        dense = fv.to_dense()
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
            dense = phone_duration_stats(PhoneSequence("u", phones), inv).to_dense()
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
        np.testing.assert_array_equal(M, counts / np.linalg.norm(counts, axis=1, keepdims=True))


class TestFeatureVector:
    def test_indices_must_increase(self):
        with pytest.raises(ValidationError):
            FeatureVector(indices=np.array([1, 1]), values=np.array([1.0, 2.0]), dim=3)

    def test_index_range(self):
        with pytest.raises(ValidationError):
            FeatureVector(indices=np.array([5]), values=np.array([1.0]), dim=3)
