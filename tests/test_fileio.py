import numpy as np
import pytest

from dialectid.data import Domain, ScoreTable, validate_dataset
from dialectid.errors import FormatError
from dialectid.fileio import (
    config_fingerprint,
    load_artifact,
    load_ivector_set,
    load_labels,
    load_score_table,
    load_transcripts,
    parse_config,
    read_fingerprint,
    save_artifact,
    save_ivector_set,
    save_score_table,
    save_transcripts,
)
from dialectid.synth import SynthConfig, generate
from dialectid.text_features import PhoneSequence, Transcript


class TestIVectorRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        ds = generate(SynthConfig(seed=0, n_trn=3, n_dev=1, n_tst=1))
        path = tmp_path / "trn.ivec"
        save_ivector_set(ds.trn, path)
        back = load_ivector_set(path, domain=Domain.TRN)
        np.testing.assert_array_equal(back.vectors, ds.trn.vectors)
        assert back.ids == ds.trn.ids
        assert [u.label for u in back.utterances] == [u.label for u in ds.trn.utterances]
        assert validate_dataset(back).ok == validate_dataset(ds.trn).ok

    def test_unlabeled_round_trip(self, tmp_path):
        from helpers import make_set

        s = make_set(np.array([[0.1, -2.5e-8]]), labels=[None])
        path = tmp_path / "x.ivec"
        save_ivector_set(s, path)
        back = load_ivector_set(path)
        assert back.utterances[0].label is None
        np.testing.assert_array_equal(back.vectors, s.vectors)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.ivec"
        p.write_text("width=3\n")
        with pytest.raises(FormatError):
            load_ivector_set(p)

    def test_wrong_vector_length_rejected(self, tmp_path):
        p = tmp_path / "bad.ivec"
        p.write_text("dim=3\nu1\tA\t1.0 2.0\n")
        with pytest.raises(FormatError):
            load_ivector_set(p)


class TestScoreTableRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        t = ScoreTable("sys", ("A", "B"), ("u1", "u2"), rng.normal(size=(2, 2)))
        path = tmp_path / "t.scores"
        save_score_table(t, path)
        back = load_score_table(path)
        assert back.system_id == "sys" and back.labels == ("A", "B")
        np.testing.assert_array_equal(back.scores, t.scores)
        assert not back.calibrated

    def test_empty_table_keeps_header(self, tmp_path):
        t = ScoreTable("sys", ("A", "B"), (), np.empty((0, 2)))
        path = tmp_path / "empty.scores"
        save_score_table(t, path)
        assert path.read_text().startswith("sys\tA\tB")
        assert len(load_score_table(path)) == 0

    def test_row_width_enforced(self, tmp_path):
        p = tmp_path / "bad.scores"
        p.write_text("sys\tA\tB\nu1\t0.5\n")
        with pytest.raises(FormatError):
            load_score_table(p)


class TestTranscriptFormats:
    def test_transcripts_round_trip(self, tmp_path):
        docs = [Transcript("u1", ("ab", "<UNK>", "cd")), Transcript("u2", ("x",))]
        path = tmp_path / "words.tsv"
        save_transcripts(docs, path)
        back = load_transcripts(path)
        assert back[0].tokens == ("ab", "<UNK>", "cd")
        assert back[1].utt_id == "u2"

class TestLabels:
    def test_tsv_labels(self, tmp_path):
        p = tmp_path / "labels.tsv"
        p.write_text("u1\tEGY\nu2\tMSA\n")
        assert load_labels(p) == {"u1": "EGY", "u2": "MSA"}

    def test_labels_from_vector_set(self, tmp_path):
        ds = generate(SynthConfig(seed=0, n_trn=2, n_dev=1, n_tst=1))
        p = tmp_path / "trn.ivec"
        save_ivector_set(ds.trn, p)
        labels = load_labels(p)
        assert labels[ds.trn.ids[0]] == ds.trn.utterances[0].label

    def test_vector_set_labels_skip_unlabeled_rows(self, tmp_path):
        p = tmp_path / "x.ivec"
        p.write_text("dim=2\nu1\tA\t1.0 2.0\nu2\t-\t3.0 4.0\n\nu3\tB\t5.0 6.0\n")
        assert load_labels(p) == {"u1": "A", "u3": "B"}

    @pytest.mark.parametrize("row", ["u2\tB", "u2\tB\t1.0", "u2\tB\t1.0 2.0 3.0"],
                             ids=["two_fields", "too_few_values", "too_many_values"])
    def test_vector_set_labels_reject_malformed_row(self, tmp_path, row):
        p = tmp_path / "x.ivec"
        p.write_text("dim=2\nu1\tA\t1.0 2.0\n%s\n" % row)
        with pytest.raises(FormatError, match=":3:"):
            load_labels(p)


class TestConfigParsing:
    def test_basic_parse_with_comments(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("# a comment\ndim=20\nseed=3   # trailing\n\n")
        assert parse_config(p) == {"dim": "20", "seed": "3"}

    def test_unknown_key_named_in_error(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("dim=20\nbogus=1\n")
        with pytest.raises(FormatError, match="bogus"):
            parse_config(p, known_keys=["dim"])

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "cfg"
        p.write_text("dim=20\ndim=21\n")
        with pytest.raises(FormatError):
            parse_config(p)


class TestArtifacts:
    def test_round_trip_with_fingerprint(self, tmp_path):
        fp = config_fingerprint({"x": 1})
        path = tmp_path / "a.json"
        save_artifact(path, "demo", fp, {"value": [1.5, -2.25e-9]})
        payload = load_artifact(path, "demo", fp)
        assert payload["value"] == [1.5, -2.25e-9]
        assert read_fingerprint(path) == fp

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        save_artifact(path, "demo", "aaaa", {"v": 1})
        with pytest.raises(FormatError):
            load_artifact(path, "demo", "bbbb")

    def test_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        save_artifact(path, "demo", "aaaa", {"v": 1})
        with pytest.raises(FormatError):
            load_artifact(path, "other", "aaaa")

    def test_fingerprint_stable_across_key_order(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint({"b": 2, "a": 1})
