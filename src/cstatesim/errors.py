"""Shared exception types and the reader for input files.

Everything user-facing raises one of these two, so the CLI can map
domain errors to exit code 1 and malformed input files to helpful
messages with line numbers.
"""

from __future__ import annotations

__all__ = ["ValidationError", "ParseError", "read_input"]


class ValidationError(ValueError):
    """A value or combination of values violates a documented contract."""


class ParseError(ValueError):
    """An input file could not be parsed.

    Carries an optional 1-based line number so messages can point at the
    offending row of a CSV or config file.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def read_input(path: str) -> str:
    """The text of an input file, decoded as UTF-8.

    Undecodable bytes raise ParseError; the file's own failures (a
    missing file, a directory) stay OSError.
    """
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None
