"""File formats: datasets, score tables, transcripts, configs, artifacts.

README "File formats" gives each format. Floats in the text formats are
written with repr, and artifact arrays as raw float64, so values
round-trip exactly and reruns write byte-identical files. The
tab-separated formats share one set of row rules: lines are split as
`str.splitlines` splits them, blank lines are skipped, and a row with the
wrong field count is a FormatError ``path:line: expected ...``. Score
tables, labels and transcripts are read line by line by `_records`;
vector-set rows are cut from the text in place by `_vector_rows`, which
sends any line it does not take whole to `_records`. Each file is checked
once, by the reader that parses it: in a vector set, a score table and a
labels file an id on two rows is a ValidationError ``path:line: duplicate
utterance id``, and in a vector set or a score table a value that parses
to inf or nan is a ValidationError ``path:line: non-finite value``. A
vector set's values are parsed in one `np.loadtxt` call, which gives each
the exact result of `float()`; when that call fails or finds a fault, the
set is reread row by row, so its first faulty row is still the one
reported. A score table's numbers are parsed in one call after its row
checks, so its unparseable or non-finite score is reported after any row
with a wrong field count or a repeated id. A vector set read as labels
has its header, field count, ids and labels checked, but its values are
neither counted nor parsed.

An artifact is a strict JSON file ``<stem>.json``, one object
``{"arrays", "format_version", "kind", "fingerprint", "payload"}``, plus a
raw sidecar ``<stem>.f64`` that holds every array of the payload as
little-endian float64, in the order the sorted-key JSON encoding meets
them. In the JSON each array is a reference ``{"f64": offset, "shape":
[...]}`` (offset in float64 values), and ``"arrays"`` gives the sidecar's
``"bytes"`` and ``"sha256"``. `load_artifact` checks the version, the
kind, the sidecar's size and hash, every reference's range and that every
value is finite, and hands the fingerprint to the caller to verify.

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
from itertools import chain
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .data import Domain, IVectorSet, ScoreTable, Utterance
from .errors import DialectIdError, FormatError, ValidationError

ARTIFACT_VERSION = 4
UNLABELED = "-"


def _read_text(path) -> str:
    """The file's text, with "\r\n" and "\r" read as "\n" as `Path.read_text`
    reads them; bytes that are not UTF-8 are a FormatError."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        raise FormatError("%s: not UTF-8 text (byte %d): %s" % (path, err.start, err.reason))
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


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
        return np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        raise FormatError("%s:%d: unparseable number" % (path, ln))


def _unique_ids(path, records):
    """Pass `_records` rows through; an id (the first field) that an earlier
    row holds is a ValidationError ``path:line: duplicate utterance id``."""
    seen = set()
    for ln, fields in records:
        if fields[0] in seen:
            raise ValidationError("%s:%d: duplicate utterance id %r" % (path, ln, fields[0]))
        seen.add(fields[0])
        yield ln, fields


def _finite_matrix(path, lns, matrix: np.ndarray) -> np.ndarray:
    """`matrix`, whose rows were parsed from lines `lns`. A row holding inf or
    nan is a ValidationError ``path:line: non-finite value`` that names the
    first such row; the check is one pass over the matrix."""
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ValidationError("%s:%d: non-finite value" % (path, lns[np.argmin(finite)]))
    return matrix


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


# the `str.splitlines` breaks other than "\n", "\r" and "\r\n" (`_read_text` maps those to "\n")
_OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _vector_rows(path, text: str, values: bool):
    """(d, rows) of a vector set's text, checking its ``dim=<d>`` header; rows
    lazily yields (line, (utt_id, label[, values])) per row, the values only
    when `values` is true, and neither counts nor parses them.

    Each row's fields are cut from `text` in place, so a row's values are
    copied once or not at all. A line with other than two tabs or with a blank
    id goes through `_records` on its own, which skips it or refuses it as the
    other formats do; lines are numbered as `str.splitlines` numbers them.
    """
    if any(c in text for c in _OTHER_BREAKS):  # the scan splits lines at "\n" alone
        text = "".join(line + "\n" for line in text.splitlines())
    end = text.find("\n")
    end = len(text) if end < 0 else end
    head = text[:end]
    if not head.startswith("dim="):
        raise FormatError("%s: first line must be dim=<d>" % path)
    try:
        dim = int(head[4:])
    except ValueError:
        raise FormatError("%s: bad dim header %r" % (path, head))
    if dim < 1:
        raise FormatError("%s: dim must be positive, got %d" % (path, dim))

    def rows():
        find, size, ln, start = text.find, len(text), 1, end + 1
        while start < size:
            ln += 1
            stop = find("\n", start)
            stop = size if stop < 0 else stop
            tab1 = find("\t", start, stop)
            tab2 = find("\t", tab1 + 1, stop) if tab1 >= 0 else -1
            if tab2 < 0 or find("\t", tab2 + 1, stop) >= 0 or not text[start:tab1].strip():
                yield from _records(path, (text[start:stop],), 3, "utt_id<TAB>label<TAB>values",
                                    first_line=ln)
            elif values:
                yield ln, (text[start:tab1], text[tab1 + 1:tab2], text[tab2 + 1:stop])
            else:
                yield ln, (text[start:tab1], text[tab1 + 1:tab2])
            start = stop + 1
    return dim, rows()


def load_ivector_set(path, domain: Domain = Domain.TST) -> IVectorSet:
    """Read a vector set file; the split is implied by the file, not stored in it.

    All values are parsed in one `np.loadtxt` call, which converts each as
    `float()` does. Its result is kept only when every row has `dim` values,
    every id is unique and every value is finite; otherwise the rows are read
    one by one, which reports the first faulty row and reads the spellings
    only `float()` accepts (``1_0``, non-ASCII digits).
    """
    text = _read_text(path)
    dim, entries = _vector_rows(path, text, values=True)
    utts = []

    def values():
        for _, (utt_id, label, row) in _unique_ids(path, entries):
            utts.append(Utterance(id=utt_id, domain=domain,
                                  label=None if label == UNLABELED else label))
            yield row

    rows = values()
    try:
        first = next(rows, "")
        # no rows or a blank first row: loadtxt would warn that it read no data, or
        # skip the row, where the row-by-row read returns (0, dim) or names the row
        matrix = (np.loadtxt(chain((first,), rows), np.float64, comments=None, ndmin=2)
                  if first.strip() else None)
    except (ValueError, DialectIdError):
        matrix = None
    if matrix is not None and matrix.shape == (len(utts), dim) and np.isfinite(matrix).all():
        return IVectorSet(tuple(utts), matrix)
    return _load_row_by_row(path, text, domain)


def _load_row_by_row(path, text: str, domain: Domain) -> IVectorSet:
    """`load_ivector_set` one row at a time, so the first faulty row is the one reported."""
    dim, entries = _vector_rows(path, text, values=True)
    utts, lns, rows = [], [], []
    for ln, (utt_id, label, values) in _unique_ids(path, entries):
        tokens = values.split()
        if len(tokens) != dim:
            raise FormatError("%s:%d: expected %d values, got %d" % (path, ln, dim, len(tokens)))
        rows.append(_parse_row(path, ln, tokens))
        lns.append(ln)
        utts.append(Utterance(id=utt_id, domain=domain,
                              label=None if label == UNLABELED else label))
    return IVectorSet(tuple(utts), _finite_matrix(
        path, lns, np.vstack(rows) if rows else np.empty((0, dim))))


# ---------------------------------------------------------------------------
# score tables
# ---------------------------------------------------------------------------

def save_score_table(table: ScoreTable, path) -> None:
    _write_rows(path, (table.system_id,) + table.labels, [(u,) for u in table.utt_ids],
                table.scores, "\t")


def load_score_table(path) -> ScoreTable:
    """Read a score table. Its numbers are parsed in one call after every row's
    field count and id are checked, so an unparseable or non-finite score is
    reported after those row checks."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise FormatError("%s: empty score file" % path)
    head = lines[0].split("\t")
    if len(head) < 2:
        raise FormatError("%s: header must be system_id<TAB>labels..." % path)
    system_id, labels = head[0], tuple(head[1:])
    k = len(labels)
    utt_ids, lns, flat = [], [], []
    for ln, fields in _unique_ids(path, _records(path, lines[1:], 1 + k, "%d scores" % k,
                                                 first_line=2)):
        utt_ids.append(fields[0])
        lns.append(ln)
        flat += fields[1:]
    try:
        scores = np.fromiter(map(float, flat), np.float64, len(flat)).reshape(-1, k)
    except ValueError:
        for i, ln in enumerate(lns):  # name the first row that holds the bad number
            _parse_row(path, ln, flat[i * k:(i + 1) * k])
        raise
    return ScoreTable(system_id=system_id, labels=labels, utt_ids=tuple(utt_ids),
                      scores=_finite_matrix(path, lns, scores))


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
    text = _read_text(path)
    vector_set = text.startswith("dim=")
    rows = (_vector_rows(path, text, values=False)[1] if vector_set
            else _records(path, text.splitlines(), 2, "utt_id<TAB>label"))
    out = {utt: label for _, (utt, label, *_) in _unique_ids(path, rows)}
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


def _strict_json(value, where) -> str:
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as err:
        raise ValidationError("%s: %s" % (where, err))


def config_fingerprint(payload: Mapping) -> str:
    canon = _strict_json(payload, "fingerprinted config")
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
    A non-finite value, array or not, which `load_artifact` refuses, is a
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
    text = _strict_json(blob, path) + "\n"  # compact, so json's C encoder does the work
    write_whole(sidecar_path(path), data)
    write_whole(path, text)


def load_artifact(path, kind: str) -> tuple[dict, str]:
    """(payload, stored fingerprint) of a `kind` artifact; the caller checks the fingerprint.

    The payload's arrays are read-only float64 views of the sidecar, which
    must match the envelope's size and sha256 and hold only finite values;
    the ``NaN`` and ``Infinity`` tokens, which strict JSON lacks, are refused.
    """
    def refuse(token):
        raise FormatError("%s: %s is not strict JSON" % (path, token))

    try:
        blob = json.loads(_read_text(path), parse_constant=refuse)
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
