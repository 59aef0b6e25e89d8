"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: bad flags exit 1 (argparse level),
DataError and subclasses exit 2, NumericsError exits 3.  `read_text`
is how every input file is read, so that a byte which is not UTF-8 is
a DataFormatError naming the file.
"""

from pathlib import Path


class DataError(Exception):
    """Invalid input data: unparseable files or violated invariants."""


class DataFormatError(DataError):
    """A file does not conform to its declared line format."""


class ValidationError(DataError):
    """Structurally parseable data that breaks a documented invariant."""


class ConfigError(DataError):
    """A configuration value is out of range or inconsistent."""


class NumericsError(FloatingPointError):
    """Non-finite values or divergence in numerical code."""


def read_text(path) -> str:
    """The UTF-8 text of `path`; an undecodable byte is a DataFormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
