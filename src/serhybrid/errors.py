"""The two error families, the LLM errors whose names runs report, the one
read step of every input file and the one write step of every output file.

The family a raise site picks is the CLI's exit code: configuration
problems (bad flags, an unreadable config file, schema violations in
config-like inputs: config, rules, proposals, corpus stats, manifests)
raise ConfigError and exit with status 1, data problems (malformed audio,
models, predictions, features, transcripts or annotations, and any other
path that cannot be opened) raise DataError and exit with status 2. Each
reader passes ``read_text`` the family of its file, so undecodable bytes
end as a schema violation of that file does. Both steps use UTF-8
whatever the locale, so every file the pipeline writes, it can read back.
"""

import contextlib
import csv
import json


class ConfigError(Exception):
    """Bad configuration: flags, config, rule, proposals, corpus-stats and
    manifest files. The CLI exits with status 1."""


class DataError(Exception):
    """Bad data: audio, models, predictions, features, transcripts,
    annotations and degenerate inputs. The CLI exits with status 2."""


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


def parse_json(text, where, error):
    """The JSON document in ``text``; invalid JSON raises ``error`` naming
    ``where``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON ({exc})")


@contextlib.contextmanager
def csv_errors(path, reader, error):
    """Turn a ``csv.Error`` raised in the block, such as a cell over the
    csv module's field size limit, into ``error`` naming the line that
    ``reader`` stopped at."""
    try:
        yield
    except csv.Error as exc:
        # a DictReader's own line_num stops at its last whole row
        line = getattr(reader, "reader", reader).line_num
        raise error(f"{path} line {line}: {exc}") from None
