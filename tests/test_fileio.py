import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialectid.data import Domain, IVectorSet, ScoreTable, Utterance, validate_dataset
from dialectid.errors import FormatError, ValidationError
from dialectid.fileio import (
    config_fingerprint,
    load_artifact,
    load_ivector_set,
    load_labels,
    load_score_table,
    load_transcripts,
    parse_config,
    save_artifact,
    save_ivector_set,
    save_score_table,
    save_transcripts,
    sidecar_path,
    write_whole,
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

    @pytest.mark.parametrize("header", ["dim=0", "dim=-1"])
    def test_nonpositive_dim_rejected(self, tmp_path, header):
        p = tmp_path / "bad.ivec"
        p.write_text(header + "\n")
        with pytest.raises(FormatError, match="dim must be positive"):
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
        matrix = np.arange(6.0).reshape(2, 3) - 2.5
        save_artifact(path, "demo", fp, {"value": [1.5, -2.25e-9], "matrix": matrix})
        payload, stored = load_artifact(path, "demo")
        assert payload["value"] == [1.5, -2.25e-9]
        assert_bitwise_equal(payload["matrix"], matrix)
        assert not payload["matrix"].flags.writeable
        assert stored == fp
        assert path.read_text().count("\n") == 1  # compact: one line
        assert sidecar_path(path).read_bytes() == matrix.astype("<f8").tobytes()

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        from dialectid.backend import Backend

        save_artifact(tmp_path / "model.json", "model", "aaaa", {"flags": {"recipe": "cds"}})
        with pytest.raises(FormatError, match="fingerprint"):
            Backend.load(tmp_path)

    def test_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        save_artifact(path, "demo", "aaaa", {"v": 1})
        with pytest.raises(FormatError):
            load_artifact(path, "other")

    @pytest.mark.parametrize("blob", [
        '{"format_version": 1, "kind": "demo", "fingerprint": "aaaa", "payload": {}}',
        '{"format_version": 2, "kind": "demo", "fingerprint": "aaaa", "payload": {}}',
        '{"format_version": 3, "kind": "demo", "fingerprint": "aaaa", "payload": {}}',
        '{"format_version": 4, "kind": "demo", "payload": {}}',
        '{"format_version": 4, "kind": "demo", "fingerprint": "aaaa", "payload": {}}',
    ], ids=["version-1", "version-2", "version-3", "no-fingerprint", "no-arrays"])
    def test_old_version_or_missing_fingerprint_rejected(self, tmp_path, blob):
        path = tmp_path / "a.json"
        path.write_text(blob)
        with pytest.raises(FormatError):
            load_artifact(path, "demo")

    def test_fingerprint_stable_across_key_order(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint({"b": 2, "a": 1})

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_arrays_round_trip_bitwise_in_sorted_key_order(self, data):
        keys = data.draw(st.lists(NAMES, max_size=4, unique=True))
        payload = {}
        for key in keys:
            shape = tuple(data.draw(st.lists(st.integers(0, 3), max_size=3)))
            matrix = draw_matrix(data, math.prod(shape), 1).reshape(shape)
            payload[key] = data.draw(st.sampled_from([matrix, [matrix, key], {"m": matrix}]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.json"
            save_artifact(path, "demo", "aaaa", payload)
            back, _ = load_artifact(path, "demo")
            blob = json.loads(path.read_text())
            raw = sidecar_path(path).read_bytes()
        assert blob["arrays"]["bytes"] == len(raw)
        offset = 0
        for key in sorted(keys):  # the sidecar holds the arrays in sorted-key order
            value, got = payload[key], back[key]
            if isinstance(value, list):
                value, got = value[0], got[0]
            elif isinstance(value, dict):
                value, got = value["m"], got["m"]
            assert_bitwise_equal(got, value)
            assert raw[8 * offset:8 * (offset + value.size)] == value.tobytes()
            offset += value.size
        assert 8 * offset == len(raw)

    @pytest.mark.parametrize("ref", [
        {"f64": 5, "shape": [2]}, {"f64": 0, "shape": [7]}, {"f64": -1, "shape": [1]},
        {"f64": 0, "shape": [-1]}, {"f64": 0.0, "shape": [1]}, {"f64": 0, "shape": 3},
        {"f64": True, "shape": [1]},
    ], ids=["past-end", "too-long", "negative-offset", "negative-dim", "float-offset",
            "shape-not-list", "bool-offset"])
    def test_reference_out_of_range_rejected(self, tmp_path, ref):
        path = tmp_path / "a.json"
        save_artifact(path, "demo", "aaaa", {"m": np.arange(6.0)})
        blob = json.loads(path.read_text())
        blob["payload"]["m"] = ref
        path.write_text(json.dumps(blob))
        with pytest.raises(FormatError, match="array reference"):
            load_artifact(path, "demo")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_refused_before_writing(self, tmp_path, value):
        path = tmp_path / "a.json"
        with pytest.raises(ValidationError, match="non-finite"):
            save_artifact(path, "demo", "aaaa", {"m": np.array([1.0, value])})
        assert list(tmp_path.iterdir()) == []

    def test_write_whole_takes_bytes(self, tmp_path):
        write_whole(tmp_path / "b.bin", b"\x00\xff")
        write_whole(tmp_path / "t.txt", "\u00e9")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"
        assert (tmp_path / "t.txt").read_bytes() == b"\xc3\xa9"


# values the row codec must carry bit for bit: signed zeros, subnormals and
# the largest finite magnitudes
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
NAMES = st.text(alphabet="abcXYZ019_.:", min_size=1, max_size=6)
BLANKS = st.sampled_from(["", " ", "\t", "  \t "])


def insert_blank_lines(data, path, first):
    """Rewrite `path` with blank lines drawn into it anywhere from line index `first` on."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for _ in range(data.draw(st.integers(0, 4))):
        lines.insert(data.draw(st.integers(first, len(lines))), data.draw(BLANKS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()  # tells -0.0 from 0.0


def draw_matrix(data, n, d):
    return np.array(data.draw(st.lists(FLOATS, min_size=n * d, max_size=n * d)),
                    dtype=np.float64).reshape(n, d)


class TestSharedRecordReader:
    """Every tab-separated format round-trips exactly through the one reader."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_vector_set_round_trip(self, data):
        n, d = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 4))
        ids = data.draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
        labels = data.draw(st.lists(st.none() | NAMES, min_size=n, max_size=n))
        original = IVectorSet(tuple(Utterance(i, Domain.DEV, lab) for i, lab in zip(ids, labels)),
                              draw_matrix(data, n, d))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.ivec"
            save_ivector_set(original, path)
            insert_blank_lines(data, path, first=1)
            back = load_ivector_set(path, domain=Domain.DEV)
        assert back.utterances == original.utterances
        assert_bitwise_equal(back.vectors, original.vectors)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_score_table_round_trip(self, data):
        n, k = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 4))
        original = ScoreTable(data.draw(NAMES),
                              data.draw(st.lists(NAMES, min_size=k, max_size=k, unique=True)),
                              data.draw(st.lists(NAMES, min_size=n, max_size=n, unique=True)),
                              draw_matrix(data, n, k))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.scores"
            save_score_table(original, path)
            insert_blank_lines(data, path, first=1)
            back = load_score_table(path)
        assert (back.system_id, back.labels, back.utt_ids) == (
            original.system_id, original.labels, original.utt_ids)
        assert_bitwise_equal(back.scores, original.scores)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_label_tsv_round_trip(self, data):
        labels = data.draw(st.dictionaries(NAMES, NAMES, min_size=1, max_size=6))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.tsv"
            path.write_text("".join("%s\t%s\n" % kv for kv in labels.items()))
            insert_blank_lines(data, path, first=0)
            assert load_labels(path) == labels

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_transcripts_round_trip(self, data):
        docs = [Transcript(utt_id, tuple(tokens)) for utt_id, tokens in data.draw(
            st.lists(st.tuples(NAMES, st.lists(NAMES, max_size=4)), max_size=5))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "words.tsv"
            save_transcripts(docs, path)
            insert_blank_lines(data, path, first=0)
            assert load_transcripts(path) == docs

    @pytest.mark.parametrize("loader, text, line", [
        (load_ivector_set, "dim=2\nu1\tA\t1.0 2.0\n\nu2\t3.0 4.0\n", 4),
        (load_ivector_set, "dim=2\nu1\tA\t1.0 2.0\tx\n", 2),
        (load_score_table, "sys\tA\tB\nu1\t1.0\t0.0\n\nu2\t0.5\n", 4),
        (load_score_table, "sys\tA\tB\nu1\t1.0\t0.0\t0.0\n", 2),
        (load_labels, "u1\tA\n\nu2\tB\tC\n", 3),
        (load_labels, "u1\n", 1),
        (load_transcripts, "u1\ta b\n\nu2\n", 3),
        (load_transcripts, "u1\ta\tb\n", 1),
    ], ids=["ivec-few", "ivec-many", "scores-few", "scores-many", "labels-many", "labels-few",
            "transcripts-few", "transcripts-many"])
    def test_wrong_field_count_names_its_line(self, tmp_path, loader, text, line):
        path = tmp_path / "bad"
        path.write_text(text)
        with pytest.raises(FormatError, match="^%s:%d: expected " % (re.escape(str(path)), line)):
            loader(path)


# any text, with the tab and every str.splitlines separator drawn often
FIELD_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(
    "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")), max_size=5)


def round_trips_or_is_refused(save, load, original, path, view=lambda x: x):
    """`save` then `load` gives back `original` as seen through `view`, or
    `save` raises a ValidationError and leaves `path` absent."""
    try:
        save(original, path)
    except ValidationError:
        assert not path.exists()
        return
    assert view(load(path)) == view(original)


class TestWritersRefuseUnreadableFields:
    """A text field the readers would split is refused before anything is written."""

    @settings(max_examples=150, deadline=None)
    @given(utt_id=FIELD_TEXT, label=st.none() | FIELD_TEXT)
    def test_vector_set_id_and_label(self, utt_id, label):
        original = IVectorSet((Utterance(utt_id, Domain.TST, label),), np.array([[1.5, -2.0]]))
        with tempfile.TemporaryDirectory() as tmp:
            round_trips_or_is_refused(save_ivector_set, load_ivector_set, original,
                                      Path(tmp) / "x.ivec", lambda d: d.utterances)

    @settings(max_examples=150, deadline=None)
    @given(names=st.lists(FIELD_TEXT, min_size=3, max_size=3, unique=True))
    def test_score_table_names(self, names):
        system_id, label, utt_id = names
        # distinct draws, so the label and the utterance id cannot collide with each other
        original = ScoreTable(system_id, (label,), (utt_id,), np.array([[0.25]]))
        with tempfile.TemporaryDirectory() as tmp:
            round_trips_or_is_refused(
                save_score_table, load_score_table, original, Path(tmp) / "x.scores",
                lambda t: (t.system_id, t.labels, t.utt_ids, t.scores.tolist()))

    @settings(max_examples=150, deadline=None)
    @given(utt_id=FIELD_TEXT)
    def test_transcript_id(self, utt_id):
        original = [Transcript(utt_id, ("w1", "w2"))]
        with tempfile.TemporaryDirectory() as tmp:
            round_trips_or_is_refused(save_transcripts, load_transcripts, original,
                                      Path(tmp) / "words.tsv")

    @settings(max_examples=150, deadline=None)
    @given(docs=st.lists(st.builds(
        Transcript, st.one_of(FIELD_TEXT, BLANKS),
        st.lists(st.one_of(NAMES, FIELD_TEXT, st.sampled_from(["", " ", "a b", "c\x1fd"])),
                 max_size=3)), max_size=3))
    def test_transcripts_round_trip_or_are_refused(self, docs):
        with tempfile.TemporaryDirectory() as tmp:
            round_trips_or_is_refused(save_transcripts, load_transcripts, docs,
                                      Path(tmp) / "words.tsv")

    @pytest.mark.parametrize("doc, named", [
        (Transcript("u1", ("a b", "c")), "'a b'"),
        (Transcript("u1", ("a", "")), "''"),
        (Transcript("u1", ("c\x1fd",)), "'c\\x1fd'"),
        (Transcript(" ", ()), "' '"),
    ], ids=["space-in-token", "empty-token", "unit-separator-in-token", "blank-line"])
    def test_transcript_error_names_the_value(self, tmp_path, doc, named):
        with pytest.raises(ValidationError, match=re.escape(named)):
            save_transcripts([Transcript("u0", ("ok",)), doc], tmp_path / "words.tsv")
        assert not (tmp_path / "words.tsv").exists()

    @pytest.mark.parametrize("utt_id", ["u\x1c1", "u\t1", "u\n1"])
    def test_score_table_error_names_the_id(self, tmp_path, utt_id):
        table = ScoreTable("sys", ("A",), (utt_id,), np.array([[0.5]]))
        with pytest.raises(ValidationError, match=re.escape(repr(utt_id))):
            save_score_table(table, tmp_path / "x.scores")
        assert not (tmp_path / "x.scores").exists()

    @pytest.mark.parametrize("save, value", [
        (save_transcripts, [Transcript("u\ud8001", ("w",))]),
        (save_transcripts, [Transcript("u1", ("w\udfff",))]),
        (save_score_table, ScoreTable("sys", ("A",), ("\ud800",), np.array([[0.5]]))),
        (save_ivector_set, IVectorSet((Utterance("u1", Domain.TST, "\udc80"),),
                                      np.array([[1.0]]))),
    ], ids=["transcript-id", "transcript-token", "score-table-id", "vector-set-label"])
    def test_lone_surrogate_is_refused(self, tmp_path, save, value):
        with pytest.raises(ValidationError, match="cannot be written as UTF-8"):
            save(value, tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    def test_unlabeled_marker_as_label_is_refused(self, tmp_path):
        dataset = IVectorSet((Utterance("u1", Domain.TST, "-"),), np.array([[1.0]]))
        with pytest.raises(ValidationError, match="unlabeled marker"):
            save_ivector_set(dataset, tmp_path / "x.ivec")
        assert not (tmp_path / "x.ivec").exists()
