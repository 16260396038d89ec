"""File formats and JSON encoding.

Family files: first non-comment line ``n=<int>``, then one permutation per
line as n space-separated 1-indexed images.  Matrix files: ``N=<int>`` then
N lines of N space-separated 0/1 entries.  Lines starting with ``#`` and
blank lines are ignored.  Partial permutations are written as
comma-separated ``row:col`` pairs.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from fractions import Fraction
from typing import Iterable

from .core import Cell, Family, PartialPerm, _Record, as_permutation, partial_permutation
from .counting import ZeroOneMatrix


_INTEGERS = re.compile(r"\s*(?:[+-]?[0-9]+(?:\s+[+-]?[0-9]+)*\s*)?")


def parse_integers(text: str) -> tuple[int, ...]:
    """The whitespace-separated integers of ``text``, each an optional sign and ASCII
    digits, checked by one pattern; anything else, even digits ``int()`` takes, is a ValueError."""
    if _INTEGERS.fullmatch(text) is None:
        raise ValueError(f"not integers: {text!r}")
    return tuple(map(int, text.split()))


class ParseError(ValueError):
    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def _read_rows(text: str, path, key: str):
    """Yield the value of the ``<key>=<int>`` header, then (line number,
    line, integer row) for each later line; blank and ``#`` lines are
    skipped, and every line is checked as it is read."""
    n = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is not None:
            try:
                yield line_no, line, parse_integers(line)
            except ValueError:
                raise ParseError(path, line_no, f"non-integer token in {line!r}") from None
            continue
        if not line.startswith(f"{key}="):
            raise ParseError(path, line_no, f"expected header '{key}=<int>'")
        try:
            (n,) = parse_integers(line[2:])
        except ValueError:
            raise ParseError(path, line_no, f"bad {key} value {line[2:]!r}") from None
        if n < 1:
            raise ParseError(path, line_no, f"{key} must be positive")
        yield n
    if n is None:
        raise ParseError(path, 1, f"missing '{key}=<int>' header")


def parse_family(text: str, path: str = "<string>") -> Family:
    rows = _read_rows(text, path, "n")
    n = next(rows)
    members = set()
    for line_no, line, image in rows:
        if len(image) != n:
            raise ParseError(path, line_no, f"expected {n} images, got {len(image)}")
        if as_permutation(image, n) is None:
            raise ParseError(path, line_no, f"not a permutation of [{n}]: {line!r}")
        if image in members:
            warnings.warn(f"{path}:{line_no}: duplicate permutation ignored", stacklevel=2)
        members.add(image)
    return Family._of(n, sorted(members))  # every line was checked above


def _read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 are a ParseError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(path, line_no, f"not UTF-8 text (byte {exc.start})") from None


def load_family(path) -> Family:
    return parse_family(_read_text(path), str(path))


def _format_rows(key: str, n: int, rows) -> str:
    return "\n".join([f"{key}={n}", *(" ".join(map(str, row)) for row in rows)]) + "\n"


def format_family(fam: Family) -> str:
    return _format_rows("n", fam.n, fam._images())


def save_family(fam: Family, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_family(fam))


def parse_matrix(text: str, path: str = "<string>") -> ZeroOneMatrix:
    rows = _read_rows(text, path, "N")
    n = next(rows)
    matrix = []
    for line_no, _, row in rows:
        if len(row) != n:
            raise ParseError(path, line_no, f"expected {n} entries, got {len(row)}")
        if any(v not in (0, 1) for v in row):
            raise ParseError(path, line_no, "entries must be 0 or 1")
        matrix.append(row)
    if len(matrix) != n:
        raise ParseError(path, 1, f"expected {n} rows, got {len(matrix)}")
    return ZeroOneMatrix(tuple(matrix))


def load_matrix(path) -> ZeroOneMatrix:
    return parse_matrix(_read_text(path), str(path))


def save_matrix(matrix: ZeroOneMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_format_rows("N", matrix.n, matrix.rows))


def parse_partial_permutation(literal: str, n: int | None = None) -> PartialPerm:
    """Parse a ``row:col,row:col`` literal into a partial permutation."""
    literal = literal.strip()
    if not literal:
        return frozenset()
    cells = []
    for token in literal.split(","):
        token = token.strip()
        parts = token.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad cell literal {token!r}; expected 'row:col'")
        try:
            (r,), (c,) = map(parse_integers, parts)
        except ValueError:
            raise ValueError(f"bad cell literal {token!r}; expected integers") from None
        cells.append((r, c))
    return partial_permutation(cells, n)


def cells_json(cells: Iterable[Cell]) -> list[str]:
    return [f"{r}:{c}" for r, c in sorted(cells)]


def fraction_json(value):
    """Fractions as exact "p/q" strings ("p" for an integer); None and floats pass through."""
    return str(value) if isinstance(value, Fraction) else value


def _result_json(result) -> dict:
    """A result record (a ``core._Record``) as its JSON object, one field at
    a time in the order of ``result._fields``: a Fraction becomes "p/q"
    (``fraction_json``); a tuple or frozenset becomes sorted "r:c" strings
    (``cells_json``), since every such field of a result is a cell
    collection; a dict gets str keys in key order; a nested record becomes
    its own object; None and any other value pass through.  Results take it
    as their ``to_json`` method."""
    out = {}
    for name in result._fields:
        value = getattr(result, name)
        if isinstance(value, (tuple, frozenset)):
            value = cells_json(value)
        elif isinstance(value, dict):
            value = {str(k): v for k, v in sorted(value.items())}
        elif isinstance(value, _Record):
            value = _result_json(value)
        out[name] = fraction_json(value)
    return out


def _json_text(payload: dict) -> str:  # the one JSON layout of the CLI's output and of saved reports
    return json.dumps(payload, indent=2, sort_keys=True)


def save_report(report: dict, path) -> None:
    """Write a JSON report as the CLI prints it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(report) + "\n")


def family_json(fam: Family, name: str = "family") -> dict:
    """Inline up to 1,000 members; spill a larger family to
    ``<name>-<hash>.family.txt`` in the working directory and reference that
    file.  The hash is the first 12 hex digits of the sha256 of the file's
    text, so equal families share a file and different ones never collide."""
    if len(fam) <= 1000:
        return {"n": fam.n, "size": len(fam), "members": [list(p) for p in fam._images()]}
    import hashlib  # imported here: only a spill needs it

    text = format_family(fam)
    path = os.path.join(os.getcwd(), f"{name}-{hashlib.sha256(text.encode()).hexdigest()[:12]}.family.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return {"n": fam.n, "size": len(fam), "file": path}
