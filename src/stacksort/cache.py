"""Append-only JSON-lines cache of computed fertilities.

One record per line: ``{"perm":"3 1 4 2 5 6 7","fertility":"27"}``. Keys are
the space-separated text of the normalized word; fertility values travel as
decimal strings so arbitrarily large counts survive serialization. Appends
take an exclusive lock on the file, reads a shared one. A line ends at
``\n`` only, and a ``\r`` before it is allowed; lines that are empty or a lone
``\r`` are skipped. A crash in the middle of an append can leave an
unterminated last line: reads skip it with a warning on the ``stacksort``
logger, and the next append cuts it off.

A file made only of the lines :func:`record_line` writes, each ended by
``\n``, is read in one validated pass over the whole text. Any other file
takes the line parser, which gives the same records, warnings and errors.
"""
from __future__ import annotations

import fcntl
import functools
import json
import logging
import os
import re
from typing import Iterable, NamedTuple, Sequence

from .errors import CorruptRecordError, SizeLimitExceededError
from .hooks import fertility
from .perms import normalize, parse_permutation, perm_text

_log = logging.getLogger(__name__)


class CacheRecord(NamedTuple):
    perm: str  # canonical spaced text of a normalized word
    fertility: int


def cache_key(p: Sequence[int]) -> str:
    """Canonical cache key: the normalized word, space-separated."""
    return perm_text(normalize(p), compact=False)


def record_line(record: CacheRecord) -> str:
    return json.dumps({"perm": record.perm, "fertility": str(record.fertility)},
                      separators=(",", ":"))


@functools.lru_cache(maxsize=128)
def _alphabet(n: int) -> frozenset[str]:
    """The canonical entry texts ``"1"`` .. ``str(n)``."""
    return frozenset(map(str, range(1, n + 1)))


# the exact line record_line writes, "\n" included; its groups are the key and value
_RECORD = r'\{"perm":"([0-9 ]*)","fertility":"(0|[1-9][0-9]*)"\}\n'


def _parse_line(line: str, lineno: int) -> CacheRecord:
    """One record; a key that is not the canonical text of a permutation of
    1..n, or a value that is not the text :func:`record_line` writes for a
    nonnegative count, is a :class:`CorruptRecordError`.

    n tokens that are, as a set, the n texts "1" .. str(n) are exactly such a
    key: no duplicate, zero, sign, leading zero or stray space gets through.
    Such a value is a JSON string of ASCII digits with no leading zero unless
    it is "0". A canonical value with more digits than the interpreter's
    limit is a :class:`SizeLimitExceededError`.
    """
    try:
        obj = json.loads(line)
        text, digits = obj["perm"], obj["fertility"]
        if not isinstance(text, str):
            raise TypeError(f"perm is {type(text).__name__}, not text")
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptRecordError(f"line {lineno}: {exc}") from None
    tokens = text.split(" ") if text else ()
    if (set(tokens) != _alphabet(len(tokens)) or type(digits) is not str
            or not (digits.isascii() and digits.isdigit())
            or (digits[0] == "0" and digits != "0")):
        raise CorruptRecordError(f"line {lineno}: non-canonical record {line!r}")
    try:
        value = int(digits)
    except ValueError:  # canonical text fails only on the interpreter's digit limit
        raise SizeLimitExceededError(f"line {lineno}: {len(digits)} digits exceed the "
                                     "limit; call sys.set_int_max_str_digits(0)") from None
    return CacheRecord(text, value)


def _scan(text: str) -> tuple[list[str], list[int]] | None:
    """Keys and values of a text made only of :func:`record_line` lines, each
    ended by ``\\n``, in one validated pass; ``None`` for any other text.

    Splitting at the records leaves the text between them, so the text is such
    lines exactly when every piece left is empty. A key must still pass the
    token-set check of :func:`_parse_line`, and a value the interpreter's
    digit limit: any that does not also gives ``None``.
    """
    parts = re.split(_RECORD, text)
    if any(parts[::3]):
        return None
    keys = parts[1::3]
    for key in keys:
        tokens = key.split(" ") if key else ()
        if set(tokens) != _alphabet(len(tokens)):
            return None
    try:
        return keys, list(map(int, parts[2::3]))
    except ValueError:
        return None


def _parse_lines(text: str, path: str | os.PathLike) -> list[CacheRecord]:
    """The records of a whole file's text, one :func:`_parse_line` call per line."""
    *lines, tail = text.split("\n")
    records = [_parse_line(line, i) for i, line in enumerate(lines, start=1)
               if line not in ("", "\r")]
    if tail:
        try:
            records.append(_parse_line(tail, len(lines) + 1))
        except CorruptRecordError as exc:
            _log.warning("%s: skipping an unterminated last line (%s)", os.fspath(path), exc)
    return records


def _pairs(path: str | os.PathLike) -> Iterable[tuple[str, int]]:
    """(key, value) of every record in file order; a missing file has none."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8", newline="") as fh:
        fcntl.flock(fh, fcntl.LOCK_SH)
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CorruptRecordError(f"{os.fspath(path)}: {exc}") from None
    scanned = _scan(text)
    return _parse_lines(text, path) if scanned is None else zip(*scanned)


def read_records(path: str | os.PathLike) -> list[CacheRecord]:
    """All records in file order; missing file reads as empty.

    An unterminated last line that does not parse is skipped with a warning;
    a bad line anywhere else raises :class:`CorruptRecordError`.
    """
    return list(map(CacheRecord._make, _pairs(path)))


def append_records(path: str | os.PathLike, records: Iterable[CacheRecord]) -> None:
    """Append records under an exclusive file lock.

    An unterminated last line is first cut off if it does not parse, or
    terminated if it does, so the new records start on a line of their own.
    """
    payload = "".join(record_line(r) + "\n" for r in records)
    if not payload:
        return
    with open(path, "a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        fh.seek(0)
        data = fh.read()
        start = data.rfind(b"\n") + 1
        if start < len(data):
            tail = data[start:].decode("utf-8", errors="replace")
            try:
                _parse_line(tail, data.count(b"\n") + 1)
                payload = "\n" + payload
            except CorruptRecordError:
                _log.warning("%s: cutting off an unterminated last line", os.fspath(path))
                fh.truncate(start)
        fh.write(payload.encode("utf-8"))
        fh.flush()


def load(path: str | os.PathLike) -> dict[str, int]:
    """Collapse the record stream into a key -> fertility map.

    Rewriting a key is only legal with the same value; a conflicting
    duplicate means the file is corrupt.
    """
    table: dict[str, int] = {}
    for key, value in _pairs(path):
        old = table.setdefault(key, value)
        if old != value:
            raise CorruptRecordError(f"conflicting values for {key!r}: {old} and {value}")
    return table


def audit(path: str | os.PathLike) -> int:
    """Recompute every cached value with the engine; return the record count."""
    table = load(path)
    for text, value in table.items():
        got = fertility(parse_permutation(text))
        if got != value:
            raise CorruptRecordError(f"cache says {value} for {text!r}, engine says {got}")
    return len(table)
