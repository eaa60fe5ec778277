"""Exception taxonomy for the package.

Two families: ``DataError`` for bad external input (files, schemas, config
values) and ``InvariantError`` for violated internal contracts.  The CLI maps
them to exit codes 2 and 3 respectively.  A subclass exists only where it
carries data or some code catches it by name.
"""


class Error(Exception):
    """Base class for all package errors."""


class DataError(Error):
    """Bad external input: dataset files, schemas, configuration values."""


class InvariantError(Error):
    """An internal contract was violated."""


class SchemaError(DataError):
    """A dataset record is malformed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CheckpointError(SchemaError):
    """A checkpoint file is malformed; a binary file has no line to name."""

    def __init__(self, path: str, reason: str):
        DataError.__init__(self, f"checkpoint {path!r}: {reason}")


class ConfigError(DataError):
    """A config key is unknown, unparseable, or out of range.  The key is
    quoted as a Python literal, so control characters from the config file
    print escaped and the message stays on one line."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"config key {key!r}: {reason}")
        self.key = key
        self.reason = reason


class NonFiniteLogits(InvariantError):
    """Decoding met logits that are not finite; names the decode position."""
