"""The two error families, the LLM errors whose names runs report, the one
read step of every input file, the one check of every JSON input, of every
member a JSON reader takes from it, of every JSON number and of every CSV
input, and the one write step of every output file.

The family a raise site picks is the CLI's exit code: configuration
problems (bad flags, an unreadable config file, schema violations in
config-like inputs: config, rules, proposals, corpus stats, manifests)
raise ConfigError and exit with status 1, data problems (malformed audio,
models, predictions, features or transcripts, and any other path that
cannot be opened) raise DataError and exit with status 2. Each
reader passes ``read_text`` the family of its file, so undecodable bytes
end as a schema violation of that file does. Both steps use UTF-8
whatever the locale, so every file the pipeline writes, it can read back.
"""

import csv
import io
import json
import sys

import numpy as np


class ConfigError(Exception):
    """Bad configuration: flags, config, rule, proposals, corpus-stats and
    manifest files. The CLI exits with status 1."""


class DataError(Exception):
    """Bad data: audio, models, predictions, features, transcripts and
    degenerate inputs. The CLI exits with status 2."""


class LlmError(DataError):
    """Base for LLM transport failures. Carries whether another attempt at
    the same request may succeed. One that reaches the CLI, as a failed v5
    rule generation does, is a data error. The subclass name is what a run
    reports for the failure."""

    def __init__(self, message, retryable=False):
        super().__init__(message)
        self.retryable = retryable


class LlmTimeout(LlmError):
    pass


class LlmTransportError(LlmError):
    pass


class LlmRateLimited(LlmError):
    pass


# --- reading input files, writing output files ---

def read_text(path, error):
    """The whole file at ``path`` decoded as UTF-8; a leading byte-order
    mark, as spreadsheet exports write, is dropped. Bytes that are not
    UTF-8 raise ``error`` naming the path; OSError passes through."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def write_text(path, text):
    """Write ``text`` to ``path`` as UTF-8, line endings as given. The whole
    text is encoded before the file is opened, so text that UTF-8 cannot
    hold, such as a lone surrogate, raises DataError naming the path and
    creates no file; OSError passes through."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"{path}: cannot write as UTF-8 text "
                        f"({exc.reason} at character {exc.start})")
    with open(path, "wb") as fh:
        fh.write(data)


def parse_json(text, where, error, schema):
    """The JSON object in ``text``, the one check of every JSON input.
    Invalid JSON, a value that is not an object, and a ``schema`` member
    other than ``schema`` (not checked when it is None) raise ``error``
    naming ``where``."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON ({exc})")
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a JSON object, got {type(doc).__name__}")
    if schema is not None and doc.get("schema") != schema:
        raise error(f"{where}: expected schema {schema!r}, got {doc.get('schema')!r}")
    return doc


_KINDS = {str: "a string", int: "an integer", float: "a finite number",
          list: "a list", dict: "an object"}

_REQUIRED = object()

_FLOAT_MAX = sys.float_info.max


def _finite_number(value):
    """Whether a JSON value is a number: an integer or a finite float, never
    a boolean or a string."""
    return type(value) in (int, float) and abs(value) <= _FLOAT_MAX


def member(doc, key, kind, where, error, allowed=None, default=_REQUIRED):
    """Member ``key`` of the JSON object ``doc``, the one check of a member
    a JSON reader takes. ``kind`` is str, int, float (a finite number,
    returned as a float; an integer counts), list or dict; a boolean is
    never a number. With ``allowed``, the value must be one of those. An
    absent or null member takes ``default`` when one is given. A ``doc``
    that is not an object, an absent member without a default, a value of
    another kind and one not allowed each raise ``error`` naming ``where``
    and ``key``."""
    try:
        value = doc.get(key)
    except AttributeError:  # of the JSON values, only an object has get
        raise error(f"{where}: expected a JSON object, got {type(doc).__name__}") from None
    if value is None and default is not _REQUIRED:
        return default
    if value is None and key not in doc:
        raise error(f"{where}: {key} is missing")
    if kind is float:
        ok = _finite_number(value)
        value = float(value) if ok else value
    else:
        ok = type(value) is kind
    if not ok:
        raise error(f"{where}: {key} must be {_KINDS[kind]}, got {value!r}")
    if allowed is not None and value not in allowed:
        raise error(f"{where}: {key} must be one of {', '.join(allowed)}, got {value!r}")
    return value


def member_array(doc, key, shape, where, error):
    """Member ``key`` of the JSON object ``doc`` as a float array of exactly
    ``shape``: a list, or for a 2-D shape a list of lists, of numbers as
    ``member`` reads a float, never a boolean or a string. ``error`` names
    ``where`` and ``key`` otherwise."""
    # an object array takes the lists' nesting as its shape and keeps every
    # value that is not a list as it is
    cells = np.array(member(doc, key, list, where, error), dtype=object)
    if cells.shape != shape:
        raise error(f"{where}: {key} must be a list of shape {shape}")
    bad = [v for v in cells.ravel().tolist() if not _finite_number(v)]
    if bad:
        raise error(f"{where}: {key} must be finite numbers, got {bad[0]!r}")
    return cells.astype(np.float64)


def read_csv(path, error, columns, known=None):
    """The header and rows of the CSV file at ``path``, the one check of
    every CSV input: ``(header, [(where, cells), ...])``, where ``where``
    is ``<path> line N``. The header must name each of ``columns``, no
    column twice and, when ``known`` is given, no other column; every row
    must hold one cell per header column. Blank lines are skipped. Each
    violation, and a ``csv.Error`` such as a cell over the csv module's
    field size limit, raises ``error`` naming the path or the line; a
    repeated id in a ``sample_id`` column is a DataError in every file."""
    reader = csv.reader(io.StringIO(read_text(path, error), newline=""))
    try:
        header = next(reader, [])
        for what, names in (
                ("lacks", [c for c in columns if c not in header]),
                ("repeats", sorted({c for c in header if header.count(c) > 1})),
                ("names unknown", [c for c in header if known is not None and c not in known])):
            if names:
                raise error(f"{path}: the header {what} columns: {', '.join(names)}")
        ids = header.index("sample_id") if "sample_id" in header else None
        rows, seen = [], set()
        for cells in reader:
            if not cells:
                continue
            where = f"{path} line {reader.line_num}"
            if len(cells) != len(header):
                raise error(f"{where}: {len(cells)} cells, the header names {len(header)}")
            if ids is not None:
                if cells[ids] in seen:
                    raise DataError(f"{where}: duplicate sample_id {cells[ids]!r}")
                seen.add(cells[ids])
            rows.append((where, cells))
    except csv.Error as exc:
        raise error(f"{path} line {reader.line_num}: {exc}") from None
    return header, rows


def write_csv(path, header, rows):
    """Write ``header`` and then each row of ``rows`` to ``path`` through
    ``write_text``, in the csv module's default dialect (rows end in
    ``\\r\\n``)."""
    out = io.StringIO()
    csv.writer(out).writerows([header, *rows])
    write_text(path, out.getvalue())
