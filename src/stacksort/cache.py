"""Append-only JSON-lines cache of computed fertilities.

One record per line: ``{"perm":"3 1 4 2 5 6 7","fertility":"27"}``. Keys are
the space-separated text of the normalized word; fertility values travel as
decimal strings so arbitrarily large counts survive serialization. Appends
take an exclusive lock on the file, reads a shared one. A line ends at
``\n`` only, and a ``\r`` before it is allowed; lines that are empty or a lone
``\r`` are skipped. A crash in the middle of an append can leave an
unterminated last line: reads skip it with a warning on the ``stacksort``
logger, and the next append cuts it off. Reads take runs of the lines
:func:`record_line` writes in bulk, and every other line one at a time. Both
ways test a key with :func:`_is_key` and a value with ``_VALUE``, the one
statement of each rule.

:func:`load` keeps one file's bytes and table in one slot per process and
decodes and parses only the lines appended to those bytes since; a fresh
process, another file or a rewritten one costs a parse of the whole file. It
returns a read-only view, so no caller can change what a later load returns.
"""
from __future__ import annotations

import fcntl
import functools
import json
import logging
import os
import re
import sys
from itertools import chain, compress
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import CorruptRecordError, SizeLimitExceededError
from .hooks import fertility
from .perms import normalize, perm_text

_log = logging.getLogger(__name__)
# the package's logger is silent unless the application configures logging
logging.getLogger(__package__).addHandler(logging.NullHandler())


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


def _is_key(text: str) -> bool:
    """Whether ``text`` is the canonical key of a permutation of 1..n: n tokens that
    are, as a set, "1" .. str(n), so no duplicate, zero, sign, leading zero or stray space."""
    tokens = text.split(" ") if text else ()
    return set(tokens) == _alphabet(len(tokens))


_VALUE = "0|[1-9][0-9]*"  # the text of a nonnegative count, as record_line writes it
# a line as record_line writes it, at a line start and ended by "\n"; groups: key, value
_RECORD = re.compile(r'(?m)^\{"perm":"([0-9 ]*)","fertility":"(' + _VALUE + r')"\}\n')


def _parse_line(line: str, lineno: int) -> CacheRecord:
    """One record; a key that fails :func:`_is_key`, or a value that is not a
    JSON string matching ``_VALUE``, is a :class:`CorruptRecordError`. A
    canonical value with more digits than the interpreter's limit is a
    :class:`SizeLimitExceededError`.
    """
    try:
        obj = json.loads(line)
        text, digits = obj["perm"], obj["fertility"]
        if not isinstance(text, str):
            raise TypeError(f"perm is {type(text).__name__}, not text")
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptRecordError(f"line {lineno}: {exc}") from None
    if not _is_key(text) or type(digits) is not str or not re.fullmatch(_VALUE, digits):
        raise CorruptRecordError(f"line {lineno}: non-canonical record {line!r}")
    try:
        value = int(digits)
    except ValueError:  # canonical text fails only on the interpreter's digit limit
        raise SizeLimitExceededError(f"line {lineno}: {len(digits)} digits exceed the "
                                     "limit; call sys.set_int_max_str_digits(0)") from None
    return CacheRecord(text, value)


def _read(text: str, name: str = "", lineno: int = 1) -> Iterable[tuple[str, int]]:
    """(key, value) of every record in a cache file's text, in file order.

    Runs of :func:`record_line` lines are checked and converted in bulk. Every
    other line goes through :func:`_parse_line`, and so does each line of a run
    that fails, so that the error names the first bad line. ``name`` names the
    file in the warning for an unterminated last line that does not parse;
    ``lineno`` is the number of the text's first line.
    """
    parts = _RECORD.split(text)  # a gap, then key, value and gap per record
    chunks: list[Iterable[tuple[str, int]]] = []
    run = 1  # the index in parts of the first key of the run that starts at line lineno
    # a run of records ends at each gap with text in it, and at the end of the text
    for gap in [*compress(range(0, len(parts) - 1, 3), parts[:-1:3]), len(parts) - 1]:
        run_keys, run_values = parts[run:gap:3], parts[run + 1:gap:3]
        *lines, tail = parts[gap].split("\n")  # only the last gap can have a tail
        try:
            if not all(map(_is_key, run_keys)):
                raise ValueError
            chunks.append(zip(run_keys, list(map(int, run_values))))
        except ValueError:  # parse the run's lines instead: that raises at the first bad one
            lines[:0] = map('{{"perm":"{}","fertility":"{}"}}'.format, run_keys, run_values)
        else:
            lineno += len(run_keys)
        chunks.append([_parse_line(line, i) for i, line in enumerate(lines, start=lineno)
                       if line not in ("", "\r")])
        lineno += len(lines)
        run = gap + 1
    if tail:
        try:
            chunks.append([_parse_line(tail, lineno)])
        except CorruptRecordError as exc:
            _log.warning("%s: skipping an unterminated last line (%s)", name, exc)
    return chain.from_iterable(chunks)


def _data(path: str | os.PathLike) -> bytes:
    """The whole file, read under a shared lock; a missing file reads as empty."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return b""
    with fh:
        fcntl.flock(fh, fcntl.LOCK_SH)
        return fh.read()


def _decode(data: bytes, name: str, start: int = 0) -> str:
    """``data[start:]`` as text, where ``start`` is 0 or follows a ``\n``. Invalid
    UTF-8 is a :class:`CorruptRecordError` that counts from the start of ``data``."""
    try:
        return data[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        if start:  # decode from the start: the same bad byte, counted from there
            return _decode(data, name)
        raise CorruptRecordError(f"{name}: {exc}") from None


def read_records(path: str | os.PathLike) -> list[CacheRecord]:
    """All records in file order; missing file reads as empty.

    An unterminated last line that does not parse is skipped with a warning;
    a bad line anywhere else raises :class:`CorruptRecordError`.
    """
    name = os.fspath(path)
    return list(map(CacheRecord._make, _read(_decode(_data(path), name), name)))


def append_records(path: str | os.PathLike, records: Iterable[CacheRecord]) -> None:
    """Append records under an exclusive file lock.

    An unterminated last line is first cut off if it does not parse, or
    terminated if it does, so the new records start on a line of their own.
    Only the file's last byte is read, unless it shows such a line.
    """
    payload = "".join(record_line(r) + "\n" for r in records)
    if not payload:
        return
    with open(path, "a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        size = fh.seek(0, os.SEEK_END)
        fh.seek(max(size - 1, 0))
        if fh.read(1) not in (b"", b"\n"):  # an unterminated last line
            fh.seek(0)
            data = fh.read()
            start = data.rfind(b"\n") + 1
            tail = data[start:].decode("utf-8", errors="replace")
            try:
                _parse_line(tail, data.count(b"\n") + 1)
                payload = "\n" + payload
            except CorruptRecordError as exc:
                _log.warning("%s: cutting off an unterminated last line (%s)",
                             os.fspath(path), exc)
                fh.truncate(start)
        fh.write(payload.encode("utf-8"))
        fh.flush()


# what load parsed last: the file's bytes up to their last "\n", the number of
# the line after them, the digit limit they were parsed under and their table;
# the tuple is replaced whole and its table never changed (callers get a
# read-only view of it), so loads in threads need no lock
_last: tuple[bytes, int, int | None, dict[str, int]] = (b"", 1, None, {})
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # absent before 3.10.7


def _merge(table: dict[str, int], pairs: Iterable[tuple[str, int]]) -> dict[str, int]:
    for key, value in pairs:
        old = table.setdefault(key, value)
        if old != value:
            raise CorruptRecordError(f"conflicting values for {key!r}: {old} and {value}")
    return table


def load(path: str | os.PathLike) -> Mapping[str, int]:
    """Collapse the record stream into a read-only key -> fertility map.

    Rewriting a key is only legal with the same value; a conflicting
    duplicate means the file is corrupt.

    The whole file is read each time, but when it starts with the bytes the
    last load in this process parsed, under the same digit limit, only the
    bytes after them are decoded and parsed. The one slot that holds those
    bytes and their table is the memory this costs; any other file is parsed
    whole, as it is in a fresh process. An unterminated last line never
    enters the slot, so it is read, and warned about, on every load. The map
    returned is a view of the slot's table, or of a copy with that last line
    in it; ``dict(load(path))`` gives a table the caller may change.
    """
    global _last
    name = os.fspath(path)
    data, limit = _data(path), _digit_limit()
    done, lineno, last_limit, table = _last
    if last_limit != limit or not data.startswith(done):
        done, lineno, table = b"", 1, {}
    text = _decode(data, name, len(done))  # a "\n" byte never occurs inside a UTF-8 sequence
    cut = text.rfind("\n") + 1
    new, tail = text[:cut], text[cut:]
    pairs = _read(new, name, lineno) if new else ()
    lineno += new.count("\n")
    tail_pairs = list(_read(tail, name, lineno)) if tail else []
    if new:
        table = _merge(dict(table), pairs)
        _last = (data[:data.rfind(b"\n") + 1], lineno, limit, table)
    return MappingProxyType(_merge(dict(table), tail_pairs) if tail_pairs else table)


def audit(path: str | os.PathLike) -> int:
    """Recompute every cached value with the engine; return the number of
    distinct keys, ``len(load(path))``. That can be fewer than the records in
    the file, since ``load`` collapses a key written again with its value."""
    table = load(path)
    for text, value in table.items():  # load has proven every key canonical
        got = fertility(list(map(int, text.split())))
        if got != value:
            raise CorruptRecordError(f"cache says {value} for {text!r}, engine says {got}")
    return len(table)
