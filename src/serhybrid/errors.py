"""Exception hierarchy shared across the pipeline, the one read step of
every input file and the one write step of every output file.

Two broad families matter for the CLI exit codes: configuration problems
(bad flags, an unreadable config file, schema violations in config-like
inputs: config, rules, proposals, corpus stats, manifests) exit with
status 1, data problems (malformed audio, models, predictions, features,
transcripts or annotations, and any other path that cannot be opened)
exit with status 2. Each reader passes ``read_text`` the error class of
its file, so undecodable bytes end as a schema violation of that file
does. Both steps use UTF-8 whatever the locale, so every file the
pipeline writes, it can read back.
"""

import contextlib
import csv
import json


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PipelineError):
    """Bad configuration: missing/invalid flags, schemas, rule files."""


class DataError(PipelineError):
    """Bad data: malformed audio, inconsistent manifests, degenerate inputs."""


# --- audio ---

class UnsupportedFormat(DataError):
    """WAV file is not PCM, is truncated, or has more than 2 channels."""


class EmptySignal(DataError):
    """Operation requires a non-empty signal."""


class SignalTooShort(DataError):
    """Signal shorter than a single analysis frame."""


# --- features ---

class EmptySeries(DataError):
    """Aggregation requires at least one frame."""


class MissingStats(ConfigError):
    """Corpus statistics do not cover every feature dimension."""


# --- classifier ---

class DegenerateLabels(DataError):
    """Training requires all three emotion classes to be present."""


class NonFiniteInput(DataError):
    """Feature matrix or vector contains NaN or infinity."""


class SolverDidNotConverge(DataError):
    """The SVM solver reached its iteration cap above its KKT tolerance."""


class InvalidModel(DataError):
    """Model file is not valid JSON or violates the model schema."""


# --- reasoning / LLM ---

class SchemaError(ConfigError):
    """A rule, proposals, corpus-stats or manifest file violates its
    documented schema."""


class EmptyRules(ConfigError):
    """Prompt version requires a non-empty rule set."""


class MissingEvidence(ConfigError):
    """Hybrid prompt version requires ML evidence."""


class EmptyGeneration(DataError):
    """Automatic rule generation produced nothing parseable."""


class LlmError(DataError):
    """Base for LLM transport failures. Carries the sample id, when known,
    so the caller can apply per-sample fallback, and whether another
    attempt at the same request may succeed. One that reaches the CLI, as
    a failed v5 rule generation does, is a data error."""

    def __init__(self, message, sample_id=None, retryable=False):
        super().__init__(message)
        self.sample_id = sample_id
        self.retryable = retryable


class LlmTimeout(LlmError):
    pass


class LlmTransportError(LlmError):
    pass


class LlmRateLimited(LlmError):
    pass


# --- evaluation ---

class InvalidTable(DataError):
    """Annotation table violates its row-sum or non-negativity invariants."""


class LengthMismatch(DataError):
    """Paired label sequences have different lengths."""


class IdMismatch(DataError):
    """Predictions and gold labels do not align by sample id."""


class EmptyInput(DataError):
    """Metric requires at least one sample."""


# --- corpus / manifests ---

class DuplicateId(DataError):
    """A manifest or predictions file repeats a sample id."""


class MissingGold(DataError):
    """Operation requires gold labels on every manifest entry."""


class ManifestError(DataError):
    """Manifest rows are missing required files or columns."""


# --- refinement ---

class VersionConflict(ConfigError):
    """Rule proposal references a rule-set version that is no longer current."""


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
