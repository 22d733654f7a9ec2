"""Text file formats: datasets, score tables, transcripts, configs, artifacts.

All floats are written with repr so values round-trip exactly and repeated
runs produce byte-identical files. Formats:

* vector set   — line 1 ``dim=<d>``, then ``utt_id<TAB>label_or_-<TAB>``
                 followed by d space-separated decimals per line;
* score table  — header ``system_id<TAB>label1<TAB>...``, then one
                 ``utt_id<TAB>s1<TAB>...`` row per utterance;
* transcripts  — ``utt_id<TAB>token token ...`` (UTF-8);
* labels       — ``utt_id<TAB>label`` rows, or any vector set file;
* configs      — ``key=value`` lines with ``#`` comments, unknown keys are
                 rejected by the consumer;
* artifacts    — one JSON object ``{"format_version", "kind", "fingerprint",
                 "payload"}``; `load_artifact` checks the version and the
                 kind and hands the fingerprint to the caller to verify.

Every writer goes through `write_whole`, so a file is either left as it was
or replaced by the complete new text, never half-written.
"""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .data import Domain, IVectorSet, ScoreTable, Utterance
from .errors import FormatError

ARTIFACT_VERSION = 2
UNLABELED = "-"


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 are a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise FormatError("%s: not UTF-8 text (byte %d): %s" % (path, err.start, err.reason))


def write_whole(path, text: str) -> None:
    """Write `text` to `path` as UTF-8, all or nothing.

    The text goes to a temporary file beside `path`, which is then renamed
    over it; on any failure the temporary file is removed and `path` keeps
    its old content (or stays absent).
    """
    path = Path(path)
    tmp = path.with_name(".%s.%d.tmp" % (path.name, os.getpid()))
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# vector sets
# ---------------------------------------------------------------------------

def save_ivector_set(dataset: IVectorSet, path) -> None:
    lines = ["dim=%d" % dataset.dim]
    for utt, row in zip(dataset.utterances, dataset.vectors):
        label = utt.label if utt.label is not None else UNLABELED
        lines.append("%s\t%s\t%s" % (utt.id, label, " ".join(_fmt(x) for x in row)))
    write_whole(path, "\n".join(lines) + "\n")


def _vector_rows(path, lines):
    """(d, rows) of a vector set file; rows lazily yields (line, utt_id, label, tokens).

    Checks the ``dim=<d>`` header, three fields and d values per row; parses no number.
    """
    if not lines or not lines[0].startswith("dim="):
        raise FormatError("%s: first line must be dim=<d>" % path)
    try:
        dim = int(lines[0][4:])
    except ValueError:
        raise FormatError("%s: bad dim header %r" % (path, lines[0]))
    if dim < 1:
        raise FormatError("%s: dim must be positive, got %d" % (path, dim))

    def rows():
        for ln, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError("%s:%d: expected utt_id<TAB>label<TAB>values" % (path, ln))
            values = parts[2].split()
            if len(values) != dim:
                raise FormatError("%s:%d: expected %d values, got %d"
                                  % (path, ln, dim, len(values)))
            yield ln, parts[0], parts[1], values

    return dim, rows()


def load_ivector_set(path, domain: Domain = Domain.TST) -> IVectorSet:
    """Read a vector set file; the split is implied by the file, not stored in it."""
    dim, entries = _vector_rows(path, _read_text(path).splitlines())
    utts = []
    rows = []
    for ln, utt_id, label, values in entries:
        try:
            rows.append(np.array([float(x) for x in values], dtype=np.float64))
        except ValueError:
            raise FormatError("%s:%d: unparseable vector entries" % (path, ln))
        utts.append(Utterance(id=utt_id, domain=domain,
                              label=None if label == UNLABELED else label))
    matrix = np.vstack(rows) if rows else np.empty((0, dim))
    return IVectorSet(tuple(utts), matrix)


# ---------------------------------------------------------------------------
# score tables
# ---------------------------------------------------------------------------

def save_score_table(table: ScoreTable, path) -> None:
    lines = ["%s\t%s" % (table.system_id, "\t".join(table.labels))]
    for utt, row in zip(table.utt_ids, table.scores):
        lines.append("%s\t%s" % (utt, "\t".join(_fmt(x) for x in row)))
    write_whole(path, "\n".join(lines) + "\n")


def load_score_table(path) -> ScoreTable:
    lines = _read_text(path).splitlines()
    if not lines:
        raise FormatError("%s: empty score file" % path)
    head = lines[0].split("\t")
    if len(head) < 2:
        raise FormatError("%s: header must be system_id<TAB>labels..." % path)
    system_id, labels = head[0], tuple(head[1:])
    utt_ids = []
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 1 + len(labels):
            raise FormatError("%s:%d: expected %d scores" % (path, ln, len(labels)))
        utt_ids.append(parts[0])
        try:
            rows.append([float(x) for x in parts[1:]])
        except ValueError:
            raise FormatError("%s:%d: unparseable score" % (path, ln))
    scores = np.array(rows) if rows else np.empty((0, len(labels)))
    return ScoreTable(system_id=system_id, labels=labels, utt_ids=tuple(utt_ids),
                      scores=scores)


# ---------------------------------------------------------------------------
# transcripts / labels
# ---------------------------------------------------------------------------

def load_transcripts(path, source: str = "word"):
    from .text_features import Transcript

    out = []
    for ln, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError("%s:%d: expected utt_id<TAB>tokens" % (path, ln))
        out.append(Transcript(utt_id=parts[0], tokens=tuple(parts[1].split()), source=source))
    return out


def save_transcripts(transcripts, path) -> None:
    lines = ["%s\t%s" % (t.utt_id, " ".join(t.tokens)) for t in transcripts]
    write_whole(path, "\n".join(lines) + "\n")


def load_labels(path) -> dict[str, str]:
    """utt_id -> label, from a 2-column TSV or from a labeled vector set file."""
    lines = _read_text(path).splitlines()
    if lines and lines[0].startswith("dim="):
        out = {utt: label for _, utt, label, _ in _vector_rows(path, lines)[1]
               if label != UNLABELED}
    else:
        out = {}
        for ln, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError("%s:%d: expected utt_id<TAB>label" % (path, ln))
            out[parts[0]] = parts[1]
    if not out:
        raise FormatError("%s: no labels found" % path)
    return out


# ---------------------------------------------------------------------------
# key=value configs
# ---------------------------------------------------------------------------

def parse_config(path, known_keys: Optional[Sequence[str]] = None) -> dict[str, str]:
    """Parse key=value lines; # starts a comment. Unknown keys fail fast."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError("%s:%d: expected key=value, got %r" % (path, ln, raw))
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in out:
            raise FormatError("%s:%d: duplicate key %r" % (path, ln, key))
        if known_keys is not None and key not in known_keys:
            raise FormatError("%s:%d: unknown key %r" % (path, ln, key))
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# JSON artifacts with fingerprints
# ---------------------------------------------------------------------------

def config_fingerprint(payload: Mapping) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def save_artifact(path, kind: str, fingerprint: str, payload: Mapping) -> None:
    blob = {
        "format_version": ARTIFACT_VERSION,
        "kind": kind,
        "fingerprint": fingerprint,
        "payload": payload,
    }
    # compact separators, no indent: json's C encoder then does the work
    write_whole(path, json.dumps(blob, sort_keys=True, separators=(",", ":")) + "\n")


def load_artifact(path, kind: str) -> tuple[dict, str]:
    """(payload, stored fingerprint) of a `kind` artifact; the caller checks the fingerprint."""
    try:
        blob = json.loads(_read_text(path))
    except json.JSONDecodeError as err:
        raise FormatError("%s: invalid JSON artifact: %s" % (path, err))
    if not isinstance(blob, dict):
        raise FormatError("%s: artifact is not a JSON object" % path)
    if blob.get("format_version") != ARTIFACT_VERSION:
        raise FormatError("%s: unsupported artifact version %r"
                          % (path, blob.get("format_version")))
    if blob.get("kind") != kind:
        raise FormatError("%s: expected %r artifact, found %r" % (path, kind, blob.get("kind")))
    if not isinstance(blob.get("payload"), dict):
        raise FormatError("%s: artifact has no payload object" % path)
    if not isinstance(blob.get("fingerprint"), str):
        raise FormatError("%s: artifact has no fingerprint" % path)
    return blob["payload"], blob["fingerprint"]
