"""Line and CSV readers for the corpus files and the other input files.

``corpus`` re-exports ``CorpusError``, which a file that cannot be read raises.
"""

from __future__ import annotations

import csv
from itertools import islice
from pathlib import Path


class CorpusError(ValueError):
    """Fatal input problem: unreadable file, duplicate id, broken schema."""


def _iter_lines(path: Path, start: int = 0, n_lines: int | None = None):
    """Yield (line_number, stripped_text_or_None) for each non-blank physical
    line; None marks a line that is not UTF-8. ``start`` and ``n_lines`` read
    only the ``n_lines`` lines (all if None) from byte ``start``, a line
    start, and number them from 1 there."""
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    with handle:
        if start:  # a pipe cannot seek
            handle.seek(start)
        for lineno, raw in enumerate(islice(handle, n_lines), start=1):
            try:
                text = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                yield lineno, None
                continue
            if text:
                yield lineno, text


def _text_lines(path):
    """(line, text) for each line of a list or settings file that is neither
    blank nor a #-comment; a line that is not UTF-8 is an error at path:line."""
    for lineno, text in _iter_lines(Path(path)):
        if text is None:
            raise CorpusError(f"{path}:{lineno}: not UTF-8")
        if not text.startswith("#"):
            yield lineno, text


def _csv_row(text: str | None) -> list[str]:
    """One CSV record on one line; [] when the line is not UTF-8 (None) or not CSV."""
    try:
        return next(csv.reader([text]))
    except csv.Error:
        return []


def _csv_header(path, lines, required: tuple[str, ...]) -> list[str]:
    """The column names on the first of ``lines``; they must hold ``required``."""
    fields = _csv_row(next(lines, (None, None))[1])
    if not set(required) <= set(fields):
        raise CorpusError(f"{path}: header must contain {','.join(required)}")
    return fields


def _csv_records(path, required: tuple[str, ...]):
    """(line, {column: value}) for each line after a header that names every
    ``required`` column; the dict is empty when a line is not UTF-8 or not CSV."""
    lines = _iter_lines(Path(path))
    fields = _csv_header(path, lines, required)
    return ((lineno, dict(zip(fields, _csv_row(text)))) for lineno, text in lines)
