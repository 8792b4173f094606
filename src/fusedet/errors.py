"""Exception types shared across the package, and the one reader of
line-based text files (config, index, detections, ground truths)."""
import math
from pathlib import Path


class FusedetError(Exception):
    """Base class for package-specific errors."""


class ShapeError(FusedetError, ValueError):
    """Operands have incompatible shapes; the message names both."""


class PreconditionError(FusedetError, ValueError):
    """An operation's input contract was violated."""


class ParseError(FusedetError, ValueError):
    """A text or binary file could not be parsed; a text file's error
    names the file and carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"{path} line {line}: {message}"
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


def finite_float(text: str) -> float:
    """`float(text)`; nan, an infinity or an overflow (1e400) is a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def read_records(path, build, text: str | None = None) -> list:
    """`build(line)` for each record line of a UTF-8 text file (or of
    `text`, standing for its contents), in order.  `#` starts a comment
    anywhere; trailing blanks drop, blank lines skip, leading blanks stay
    (index box records are indented).  A ValueError or package error from
    `build` is a ParseError naming the file and the 1-based line."""
    out = []
    for n, raw in enumerate((read_text(path) if text is None else text).splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line:
            try:
                out.append(build(line))
            except (ValueError, FusedetError) as exc:
                raise ParseError(str(exc), line=n, path=path) from exc
    return out
