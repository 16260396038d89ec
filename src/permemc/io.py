"""File formats and JSON encoding.

Family files: first non-comment line ``n=<int>``, then one permutation per
line as n space-separated 1-indexed images.  Matrix files: ``N=<int>`` then
N lines of N space-separated 0/1 entries.  Lines starting with ``#`` and
blank lines are ignored.  Partial permutations are written as
comma-separated ``row:col`` pairs.
"""

from __future__ import annotations

import os
import warnings
from fractions import Fraction
from typing import Iterable

from .core import Cell, Family, PartialPerm, partial_permutation
from .counting import ZeroOneMatrix


class ParseError(ValueError):
    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def parse_family(text: str, path: str = "<string>") -> Family:
    n = None
    members = []
    seen = set()
    for line_no, line in _content_lines(text):
        if n is None:
            if not line.startswith("n="):
                raise ParseError(path, line_no, "expected header 'n=<int>'")
            try:
                n = int(line[2:])
            except ValueError:
                raise ParseError(path, line_no, f"bad n value {line[2:]!r}") from None
            if n < 1:
                raise ParseError(path, line_no, "n must be positive")
            continue
        try:
            image = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError(path, line_no, f"non-integer token in {line!r}") from None
        if len(image) != n:
            raise ParseError(path, line_no, f"expected {n} images, got {len(image)}")
        if sorted(image) != list(range(1, n + 1)):
            raise ParseError(path, line_no, f"not a permutation of [{n}]: {line!r}")
        if image in seen:
            warnings.warn(f"{path}:{line_no}: duplicate permutation ignored", stacklevel=2)
            continue
        seen.add(image)
        members.append(image)
    if n is None:
        raise ParseError(path, 1, "missing 'n=<int>' header")
    return Family._of(n, tuple(sorted(members)))  # every line was checked above


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


def format_family(fam: Family) -> str:
    lines = [f"n={fam.n}"]
    lines.extend(" ".join(str(v) for v in p) for p in fam.members)
    return "\n".join(lines) + "\n"


def save_family(fam: Family, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_family(fam))


def parse_matrix(text: str, path: str = "<string>") -> ZeroOneMatrix:
    n = None
    rows = []
    for line_no, line in _content_lines(text):
        if n is None:
            if not line.startswith("N="):
                raise ParseError(path, line_no, "expected header 'N=<int>'")
            try:
                n = int(line[2:])
            except ValueError:
                raise ParseError(path, line_no, f"bad N value {line[2:]!r}") from None
            if n < 1:
                raise ParseError(path, line_no, "N must be positive")
            continue
        try:
            row = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError(path, line_no, f"non-integer token in {line!r}") from None
        if len(row) != n:
            raise ParseError(path, line_no, f"expected {n} entries, got {len(row)}")
        if any(v not in (0, 1) for v in row):
            raise ParseError(path, line_no, "entries must be 0 or 1")
        rows.append(row)
    if n is None:
        raise ParseError(path, 1, "missing 'N=<int>' header")
    if len(rows) != n:
        raise ParseError(path, 1, f"expected {n} rows, got {len(rows)}")
    return ZeroOneMatrix(tuple(rows))


def load_matrix(path) -> ZeroOneMatrix:
    return parse_matrix(_read_text(path), str(path))


def save_matrix(matrix: ZeroOneMatrix, path) -> None:
    lines = [f"N={matrix.n}"]
    lines.extend(" ".join(str(v) for v in row) for row in matrix.rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
            cells.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"bad cell literal {token!r}; expected integers") from None
    return partial_permutation(cells, n)


def format_cells(cells: Iterable[Cell]) -> str:
    return ",".join(f"{r}:{c}" for r, c in sorted(cells))


def cells_json(cells: Iterable[Cell]) -> list[str]:
    return [f"{r}:{c}" for r, c in sorted(cells)]


def fraction_json(value):
    """Fractions as exact "p/q" strings; None and floats pass through."""
    if value is None:
        return None
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return value


def save_report(report: dict, path) -> None:
    """Write a JSON report with stable key order."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def family_json(fam: Family, name: str = "family") -> dict:
    """Inline up to 1,000 members; spill a larger family to
    ``<name>.family.txt`` in the working directory and reference that file."""
    if len(fam) <= 1000:
        return {"n": fam.n, "size": len(fam), "members": [list(p) for p in fam.members]}
    path = os.path.join(os.getcwd(), f"{name}.family.txt")
    save_family(fam, path)
    return {"n": fam.n, "size": len(fam), "file": path}
