"""Exception types shared across the package, and the text-file reader
that reports an undecodable file as a parse error."""
from pathlib import Path


class FusedetError(Exception):
    """Base class for package-specific errors."""


class ShapeError(FusedetError, ValueError):
    """Operands have incompatible shapes; the message names both."""


class PreconditionError(FusedetError, ValueError):
    """An operation's input contract was violated."""


class ParseError(FusedetError, ValueError):
    """A text or binary file could not be parsed; a text file's error
    carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericGuardError(FusedetError, ArithmeticError):
    """A numeric guard tripped (zero norm, non-finite value)."""


class DivergenceError(NumericGuardError):
    """Training produced a non-finite loss; carries the failing step."""

    def __init__(self, step: int, message: str = "loss is not finite"):
        super().__init__(f"{message} at step {step}")
        self.step = step


def read_text(path) -> str:
    """The UTF-8 contents of a text file; an undecodable file is a
    ParseError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
