"""File formats: datasets, score tables, transcripts, configs, artifacts.

Floats in the text formats are written with repr, and artifact arrays as
raw float64, so values round-trip exactly and reruns write byte-identical
files. The tab-separated formats share one reader:
blank lines are skipped, and a row with the wrong field count is a
FormatError ``path:line: expected ...``. Formats:

* vector set   — line 1 ``dim=<d>``, then ``utt_id<TAB>label_or_-<TAB>``
                 followed by d space-separated decimals per line;
* score table  — header ``system_id<TAB>label1<TAB>...``, then one
                 ``utt_id<TAB>s1<TAB>...`` row per utterance;
* transcripts  — ``utt_id<TAB>token token ...`` (UTF-8); a token is never
                 empty and holds no whitespace;
* labels       — ``utt_id<TAB>label`` rows, or any vector set file;
* configs      — ``key=value`` lines with ``#`` comments, unknown keys are
                 rejected by the consumer;
* artifacts    — a JSON file ``<stem>.json``, one object ``{"arrays",
                 "format_version", "kind", "fingerprint", "payload"}``, plus
                 one raw sidecar ``<stem>.f64`` that holds every array of the
                 payload as little-endian float64, in the order the
                 sorted-key JSON encoding meets them. In the JSON each array
                 is a reference ``{"f64": offset, "shape": [...]}`` (offset
                 in float64 values), and ``"arrays"`` gives the sidecar's
                 ``"bytes"`` and ``"sha256"``. `load_artifact` checks the
                 version, the kind, the sidecar's size and hash, every
                 reference's range and that every value is finite, and hands
                 the fingerprint to the caller to verify.

Every writer goes through `write_whole`, so a file is either left as it was
or replaced by the complete new content, never half-written. A writer refuses,
before it writes, an id, label, system id or label name that holds a tab or
a `str.splitlines` separator, since the readers would split it, and a
transcript token or line that would not read back.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .data import Domain, IVectorSet, ScoreTable, Utterance
from .errors import FormatError, ValidationError

ARTIFACT_VERSION = 4
UNLABELED = "-"


def _read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 are a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise FormatError("%s: not UTF-8 text (byte %d): %s" % (path, err.start, err.reason))


def write_whole(path, content: Union[str, bytes]) -> None:
    """Write `content` to `path` (text as UTF-8), all or nothing.

    The content goes to a temporary file beside `path`, which is then renamed
    over it; on any failure the temporary file is removed and `path` keeps
    its old content (or stays absent). Text that UTF-8 cannot encode (a
    lone surrogate) is a ValidationError that names it, before any write.
    """
    path = Path(path)
    if isinstance(content, str):
        try:
            content = content.encode("utf-8")
        except UnicodeEncodeError as err:
            raise ValidationError("%s: %r cannot be written as UTF-8"
                                  % (path, err.object[err.start:err.end]))
    tmp = path.with_name(".%s.%d.tmp" % (path.name, os.getpid()))
    try:
        tmp.write_bytes(content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _records(path, lines, n_fields: int, expected: str, first_line: int = 1):
    """Yield (line number, tab-separated fields) per non-blank line; a line
    without `n_fields` fields is a FormatError ``path:line: expected ...``."""
    for ln, line in enumerate(lines, start=first_line):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise FormatError("%s:%d: expected %s" % (path, ln, expected))
        yield ln, fields


def _join_fields(path, fields) -> str:
    """Tab-join text fields. A field the readers would split, one holding a tab
    or a `str.splitlines` separator, is a ValidationError that names it."""
    for f in fields:
        # the appended "x" makes a trailing separator split off a second line too
        if "\t" in f or len((f + "x").splitlines()) > 1:
            raise ValidationError("%s: %r holds a tab or a line break, so it cannot be "
                                  "read back" % (path, f))
    return "\t".join(fields)


def _write_rows(path, head, keys, matrix: np.ndarray, sep: str) -> None:
    """The `head` fields, then one ``key fields<TAB>values`` line per row;
    values are repr'd floats joined by `sep`, so they round-trip exactly.
    Every field is checked before anything is written."""
    lines = [_join_fields(path, head)] + [
        "%s\t%s" % (_join_fields(path, key), sep.join(map(repr, row.tolist())))
        for key, row in zip(keys, matrix)]
    write_whole(path, "\n".join(lines) + "\n")


def _parse_row(path, ln: int, tokens) -> np.ndarray:
    try:
        return np.array([float(x) for x in tokens], dtype=np.float64)
    except ValueError:
        raise FormatError("%s:%d: unparseable number" % (path, ln))


# ---------------------------------------------------------------------------
# vector sets
# ---------------------------------------------------------------------------

def save_ivector_set(dataset: IVectorSet, path) -> None:
    """Write a vector set; a label equal to the unlabeled marker is a ValidationError."""
    if any(u.label == UNLABELED for u in dataset.utterances):
        raise ValidationError("%s: label %r is the unlabeled marker, so it cannot be read "
                              "back" % (path, UNLABELED))
    keys = [(u.id, UNLABELED if u.label is None else u.label) for u in dataset.utterances]
    _write_rows(path, ("dim=%d" % dataset.dim,), keys, dataset.vectors, " ")


def _vector_rows(path, lines):
    """(d, rows) of a vector set file, checking its ``dim=<d>`` header; rows lazily
    yields (line, (utt_id, label, tokens)) with d tokens each, parsing no number."""
    if not lines or not lines[0].startswith("dim="):
        raise FormatError("%s: first line must be dim=<d>" % path)
    try:
        dim = int(lines[0][4:])
    except ValueError:
        raise FormatError("%s: bad dim header %r" % (path, lines[0]))
    if dim < 1:
        raise FormatError("%s: dim must be positive, got %d" % (path, dim))

    def rows():
        for ln, (utt_id, label, values) in _records(
                path, lines[1:], 3, "utt_id<TAB>label<TAB>values", first_line=2):
            tokens = values.split()
            if len(tokens) != dim:
                raise FormatError("%s:%d: expected %d values, got %d"
                                  % (path, ln, dim, len(tokens)))
            yield ln, (utt_id, label, tokens)

    return dim, rows()


def load_ivector_set(path, domain: Domain = Domain.TST) -> IVectorSet:
    """Read a vector set file; the split is implied by the file, not stored in it."""
    dim, entries = _vector_rows(path, _read_text(path).splitlines())
    utts, rows = [], []
    for ln, (utt_id, label, tokens) in entries:
        rows.append(_parse_row(path, ln, tokens))
        utts.append(Utterance(id=utt_id, domain=domain,
                              label=None if label == UNLABELED else label))
    matrix = np.vstack(rows) if rows else np.empty((0, dim))
    return IVectorSet(tuple(utts), matrix)


# ---------------------------------------------------------------------------
# score tables
# ---------------------------------------------------------------------------

def save_score_table(table: ScoreTable, path) -> None:
    _write_rows(path, (table.system_id,) + table.labels, [(u,) for u in table.utt_ids],
                table.scores, "\t")


def load_score_table(path) -> ScoreTable:
    lines = _read_text(path).splitlines()
    if not lines:
        raise FormatError("%s: empty score file" % path)
    head = lines[0].split("\t")
    if len(head) < 2:
        raise FormatError("%s: header must be system_id<TAB>labels..." % path)
    system_id, labels = head[0], tuple(head[1:])
    utt_ids, rows = [], []
    for ln, fields in _records(path, lines[1:], 1 + len(labels),
                               "%d scores" % len(labels), first_line=2):
        utt_ids.append(fields[0])
        rows.append(_parse_row(path, ln, fields[1:]))
    scores = np.vstack(rows) if rows else np.empty((0, len(labels)))
    return ScoreTable(system_id=system_id, labels=labels, utt_ids=tuple(utt_ids),
                      scores=scores)


# ---------------------------------------------------------------------------
# transcripts / labels
# ---------------------------------------------------------------------------

def load_transcripts(path, source: str = "word"):
    from .text_features import Transcript

    return [Transcript(utt_id=utt_id, tokens=tuple(tokens.split()), source=source)
            for _, (utt_id, tokens) in _records(path, _read_text(path).splitlines(), 2,
                                                "utt_id<TAB>tokens")]


def save_transcripts(transcripts, path) -> None:
    """Write transcripts; a token that is empty or holds whitespace, or a
    transcript whose line would be blank, is a ValidationError that names it."""
    lines = []
    for t in transcripts:
        tokens = " ".join(t.tokens)
        if tokens.split() != list(t.tokens):
            bad = next(tok for tok in t.tokens if tok.split() != [tok])
            raise ValidationError("%s: token %r of %r is empty or holds whitespace, so it "
                                  "cannot be read back" % (path, bad, t.utt_id))
        line = "%s\t%s" % (_join_fields(path, (t.utt_id,)), tokens)
        if not line.strip():
            raise ValidationError("%s: transcript %r has no tokens and a blank id, so its "
                                  "line would be skipped" % (path, t.utt_id))
        lines.append(line)
    write_whole(path, "\n".join(lines) + "\n")


def load_labels(path) -> dict[str, str]:
    """utt_id -> label, from a 2-column TSV or from a labeled vector set file.

    A vector set's unlabeled rows are skipped. An utterance id on two rows
    is a ValidationError that names the id and the second row's line.
    """
    lines = _read_text(path).splitlines()
    vector_set = bool(lines) and lines[0].startswith("dim=")
    rows = (_vector_rows(path, lines)[1] if vector_set
            else _records(path, lines, 2, "utt_id<TAB>label"))
    out: dict[str, str] = {}
    for ln, (utt, label, *_) in rows:
        if utt in out:
            raise ValidationError("%s:%d: duplicate utterance id %r" % (path, ln, utt))
        out[utt] = label
    if vector_set:
        out = {utt: label for utt, label in out.items() if label != UNLABELED}
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
# JSON artifacts with fingerprints and a float64 sidecar
# ---------------------------------------------------------------------------

_F64 = np.dtype("<f8")


def config_fingerprint(payload: Mapping) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def sidecar_path(path) -> Path:
    """The array sidecar ``<stem>.f64`` of the artifact at `path`."""
    return Path(path).with_suffix(".f64")


def _to_refs(value, arrays: list):
    """`value` with every ndarray replaced by its sidecar reference. Mappings
    are walked in sorted-key order, as the JSON encoder writes them, and each
    array is appended to `arrays` as (offset, array)."""
    if isinstance(value, np.ndarray):
        offset = arrays[-1][0] + arrays[-1][1].size if arrays else 0
        arrays.append((offset, value))
        return {"f64": offset, "shape": list(value.shape)}
    if isinstance(value, Mapping):
        return {k: _to_refs(value[k], arrays) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_to_refs(v, arrays) for v in value]
    return value


def _is_count(n) -> bool:
    return type(n) is int and n >= 0


def _from_refs(path, value, flat: np.ndarray):
    """`value` with every sidecar reference replaced by a read-only view of `flat`;
    a reference whose offset or shape falls outside `flat` is a FormatError."""
    if isinstance(value, dict):
        if value.keys() != {"f64", "shape"}:
            return {k: _from_refs(path, v, flat) for k, v in value.items()}
        offset, shape = value["f64"], value["shape"]
        if not (_is_count(offset) and isinstance(shape, list) and all(map(_is_count, shape))
                and offset + math.prod(shape) <= flat.size):
            raise FormatError("%s: array reference %s lies outside the %d values of %s"
                              % (path, json.dumps(value), flat.size, sidecar_path(path).name))
        return flat[offset:offset + math.prod(shape)].reshape(shape)
    if isinstance(value, list):
        return [_from_refs(path, v, flat) for v in value]
    return value


def save_artifact(path, kind: str, fingerprint: str, payload: Mapping) -> None:
    """Write the artifact `path` and its sidecar; the payload's arrays go to the sidecar.

    The sidecar is written first and `path` last, so `path` is the commit
    point: a crash between the two leaves a pair whose hash does not match.
    A non-finite array value, which `load_artifact` refuses, is a
    ValidationError before anything is written.
    """
    arrays: list = []
    payload = _to_refs(payload, arrays)
    if not all(np.isfinite(a).all() for _, a in arrays):
        raise ValidationError("%s: an array holds a non-finite value, which would not "
                              "load back" % path)
    data = b"".join(a.astype(_F64, copy=False).tobytes() for _, a in arrays)
    blob = {
        "arrays": {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()},
        "format_version": ARTIFACT_VERSION,
        "kind": kind,
        "fingerprint": fingerprint,
        "payload": payload,
    }
    write_whole(sidecar_path(path), data)
    # compact separators, no indent: json's C encoder then does the work
    write_whole(path, json.dumps(blob, sort_keys=True, separators=(",", ":")) + "\n")


def load_artifact(path, kind: str) -> tuple[dict, str]:
    """(payload, stored fingerprint) of a `kind` artifact; the caller checks the fingerprint.

    The payload's arrays are read-only float64 views of the sidecar, which
    must match the envelope's size and sha256 and hold only finite values.
    """
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
    arrays = blob.get("arrays")
    if not (isinstance(arrays, dict) and _is_count(arrays.get("bytes"))
            and isinstance(arrays.get("sha256"), str)):
        raise FormatError("%s: artifact has no arrays entry" % path)
    sidecar = sidecar_path(path)
    try:
        data = sidecar.read_bytes()
    except FileNotFoundError:
        raise FormatError("%s: array sidecar %s is missing" % (path, sidecar.name))
    if (len(data) != arrays["bytes"] or len(data) % _F64.itemsize
            or hashlib.sha256(data).hexdigest() != arrays["sha256"]):
        raise FormatError("%s: array sidecar %s does not match its size and sha256"
                          % (path, sidecar.name))
    flat = np.frombuffer(data, dtype=_F64)
    if not np.isfinite(flat).all():
        raise FormatError("%s: array sidecar %s holds a non-finite value" % (path, sidecar.name))
    return _from_refs(path, blob["payload"], flat), blob["fingerprint"]
