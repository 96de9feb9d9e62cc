import json
import logging
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stacksort

from stacksort import (
    CacheRecord,
    CorruptRecordError,
    SizeLimitExceededError,
    append_records,
    audit,
    cache_key,
    load,
    read_records,
)
from stacksort import cache
from stacksort.cache import _is_key, _parse_line, _read, record_line
from stacksort.perms import is_normalized
from conftest import (cold_load, in_new_interpreter, load_outcome, outcome, parse_lines,
                      reference_load, warm_and_cold_loads)


def test_cache_key_normalizes():
    assert cache_key((3, 1, 4, 2, 5, 6, 7)) == "3 1 4 2 5 6 7"
    assert cache_key((13, 2, 12, 15, 9, 10, 16)) == "5 1 4 6 2 3 7"


def test_round_trip_is_byte_identical(tmp_path):
    path = tmp_path / "cache.jsonl"
    records = [CacheRecord("3 1 4 2 5 6 7", 27), CacheRecord("1 2", 2)]
    append_records(path, records)
    first = path.read_bytes()
    assert read_records(path) == records
    copy = tmp_path / "copy.jsonl"
    append_records(copy, read_records(path))
    assert copy.read_bytes() == first


def test_missing_file_reads_empty(tmp_path):
    assert read_records(tmp_path / "absent.jsonl") == []
    assert load(tmp_path / "absent.jsonl") == {}


def test_append_is_append_only(tmp_path):
    path = tmp_path / "cache.jsonl"
    append_records(path, [CacheRecord("1 2", 2)])
    append_records(path, [CacheRecord("2 1", 0)])
    assert load(path) == {"1 2": 2, "2 1": 0}


def test_duplicate_with_equal_value_is_fine(tmp_path):
    path = tmp_path / "cache.jsonl"
    append_records(path, [CacheRecord("1 2", 2), CacheRecord("1 2", 2)])
    assert load(path) == {"1 2": 2}


def test_conflicting_duplicate_is_corrupt(tmp_path):
    path = tmp_path / "cache.jsonl"
    append_records(path, [CacheRecord("1 2", 2), CacheRecord("1 2", 3)])
    with pytest.raises(CorruptRecordError):
        load(path)


def test_unparseable_line_is_corrupt(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"perm":"1 2","fertility":"2"}\nnot json\n')
    with pytest.raises(CorruptRecordError):
        read_records(path)


def test_non_canonical_key_is_corrupt(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"perm":"2 4","fertility":"2"}\n')  # not normalized
    with pytest.raises(CorruptRecordError):
        read_records(path)
    good = '{"perm":"1 2","fertility":"2"}\n'
    for key in ('5', 'null', '["1","2"]', '"1 1"', '"0 1"', '"-1"', '"1  2"', '" 1 2"',
                '"1 2 "', '"1,2"', '"12"', '"01 2"', '"+1 2"', '"1 x"'):
        path.write_text(good + '{"perm":%s,"fertility":"2"}\n' % key)
        with pytest.raises(CorruptRecordError, match="^line 2: "):
            read_records(path)
    path.write_text(good + '{"perm":"","fertility":"1"}\n')  # the empty word
    assert read_records(path)[1] == CacheRecord("", 1)


@pytest.mark.parametrize("value", [
    '27.9', 'true', '"+27"', '"2_7"', '" 27 "', '"027"', '"\u0662\u0667"', '1e400', '27', '"-1"',
    '""', 'null'])
def test_non_canonical_value_is_corrupt(tmp_path, value):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"perm":"1","fertility":"1"}\n{"perm":"1","fertility":%s}\n' % value,
                    encoding="utf-8")
    with pytest.raises(CorruptRecordError, match="^line 2: "):
        read_records(path)


# Each example is a batch of 10 to 20 strings, about 15 on average. Hypothesis
# spends most of its time per example, so a batch checks about 15 strings in
# the time of a few.
@settings(max_examples=35, deadline=None)
@given(st.lists(st.text(alphabet="0123456789 +-_.e\u0662", max_size=6), min_size=10, max_size=20))
def test_value_check_is_the_digit_rule(batch):
    for digits in batch:
        # ASCII digits with no leading zero, "0" itself included
        canonical = digits.isascii() and digits.isdigit() and (digits[0] != "0" or digits == "0")
        line = json.dumps({"perm": "1", "fertility": digits}, separators=(",", ":"))
        try:
            _parse_line(line, 1)
        except CorruptRecordError:
            assert not canonical, digits
        else:
            assert canonical, digits
        try:
            records = _read(line + "\n")
        except CorruptRecordError:
            assert not canonical, digits
        else:
            assert canonical and list(records) == [("1", int(digits))], digits


def test_zero_and_long_values_load(tmp_path):
    path = tmp_path / "cache.jsonl"
    big = "1" + "0" * 299
    path.write_text('{"perm":"2 1","fertility":"0"}\n{"perm":"1","fertility":"%s"}\n' % big)
    assert read_records(path) == [CacheRecord("2 1", 0), CacheRecord("1", int(big))]


def reference_accepts(key) -> bool:
    """The key check by integers: every token parses, the word re-joins to the
    same text and it is a permutation of 1..n."""
    if not isinstance(key, str):
        return False
    try:
        word = tuple(int(x) for x in key.split(" ")) if key else ()
    except ValueError:
        return False
    return " ".join(map(str, word)) == key and is_normalized(word)


def accepts(key) -> bool:
    try:
        _parse_line(json.dumps({"perm": key, "fertility": "1"}), 1)
    except CorruptRecordError:
        return False
    return True


def reads(key) -> bool:
    """Whether the reader takes the text of one record_line line with this key."""
    try:
        return list(_read(record_line(CacheRecord(key, 1)) + "\n")) == [(key, 1)]
    except CorruptRecordError:
        return False


@settings(max_examples=50, deadline=None)  # batches, as in the digit-rule test
@given(st.lists(st.text(alphabet="0123456789 +-_x,", max_size=14)
                | st.text(alphabet="123 ", max_size=7), min_size=10, max_size=20))
def test_key_check_matches_the_integer_check_on_drawn_strings(batch):
    for key in batch:
        assert accepts(key) == reference_accepts(key) == reads(key), key


def test_key_check_matches_the_integer_check_on_permutations_and_malformed_keys():
    rng = random.Random(7)
    keys = [" ".join(map(str, rng.sample(range(1, n + 1), n))) for n in range(31) for _ in range(3)]
    assert all(accepts(key) and reference_accepts(key) and reads(key) for key in keys)
    for raw in ('5', 'null', '["1","2"]', '"1 1"', '"0 1"', '"-1"', '"1  2"', '" 1 2"',
                '"1 2 "', '"1,2"', '"12"', '"01 2"', '"+1 2"', '"1 x"', '"2 4"', '""'):
        key = json.loads(raw)
        assert accepts(key) == reference_accepts(key) == reads(key) == (key == "")


def test_load_keeps_first_occurrence_order(tmp_path):
    path = tmp_path / "cache.jsonl"
    records = [("2 1 3", 1), ("1", 1), ("1 2", 2), ("2 1 3", 1), ("1", 1), ("2 1", 0)]
    append_records(path, [CacheRecord(*r) for r in records])
    assert list(load(path).items()) == [("2 1 3", 1), ("1", 1), ("1 2", 2), ("2 1", 0)]


def test_audit_accepts_true_values(tmp_path):
    path = tmp_path / "cache.jsonl"
    append_records(path, [CacheRecord("3 1 4 2 5 6 7", 27), CacheRecord("2 1", 0)])
    assert audit(path) == 2


def test_audit_reads_the_empty_word_and_two_digit_letters(tmp_path):
    path = tmp_path / "cache.jsonl"
    append_records(path, [CacheRecord("", 1), CacheRecord(cache_key(range(1, 11)), 16796),
                          CacheRecord("2 1 3 4 5 6 7 8 9 10 12 11", 0)])
    assert audit(path) == 3


def test_audit_detects_a_wrong_value(tmp_path):
    path = tmp_path / "cache.jsonl"
    append_records(path, [CacheRecord("3 1 4 2 5 6 7", 26)])
    with pytest.raises(CorruptRecordError):
        audit(path)


GOOD = '{"perm":"1 2","fertility":"2"}\n{"perm":"2 1","fertility":"0"}\n'
TORN = '{"perm":"3 1 4 2 5 6 7","fertil'


def test_torn_last_line_is_skipped_with_a_warning(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD + '{"perm":"3 1 4 2 5 6 7","fertil')
    with caplog.at_level(logging.WARNING, logger="stacksort"):
        assert load(path) == {"1 2": 2, "2 1": 0}
    assert "unterminated last line" in caplog.text


def test_torn_last_line_warning_reaches_only_configured_logging(tmp_path):
    # the package's NullHandler keeps the record from logging.lastResort, which
    # would print it on stderr when the application configures no logging
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD + '{"perm":"3 1 4 2 5 6 7","fertil')
    argv = ["fertility", "12", "--cache", str(path)]  # a hit: the file is only read
    silent = in_new_interpreter("-m", "stacksort", *argv)
    configured = in_new_interpreter("-c", "import logging, sys; from stacksort import cli; "
                                    "logging.basicConfig(); sys.exit(cli.main(sys.argv[1:]))",
                                    *argv)
    assert outcome(silent) == (0, "2\n", "")
    code, out, err = outcome(configured)
    assert (code, out) == (0, "2\n")
    assert err.startswith("WARNING:stacksort.cache:") and "unterminated last line" in err


def test_append_names_the_torn_line_it_cuts_off(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD + TORN)
    with caplog.at_level(logging.WARNING, logger="stacksort"):
        append_records(path, [CacheRecord("1 2 3", 5)])
    [(logger, level, message)] = caplog.record_tuples
    assert (logger, level) == ("stacksort.cache", logging.WARNING)
    assert message.startswith(f"{path}: cutting off an unterminated last line (line 3: ")


def test_unterminated_good_last_line_is_kept(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD + '{"perm":"1","fertility":"1"}')
    assert load(path) == {"1 2": 2, "2 1": 0, "1": 1}
    append_records(path, [CacheRecord("1 2 3", 5)])
    assert load(path) == {"1 2": 2, "2 1": 0, "1": 1, "1 2 3": 5}


@pytest.mark.parametrize("torn", ['{"perm":"3 1 4 2 5 6 7","fertil', '{"perm":"' + "1 " * 5000])
def test_append_after_a_torn_tail_cuts_it_off(tmp_path, torn):
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD + torn)
    append_records(path, [CacheRecord("1 2 3", 5)])
    assert path.read_text() == GOOD + '{"perm":"1 2 3","fertility":"5"}\n'


def test_a_form_feed_does_not_end_a_line(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD + '{"perm":"1 2","fertility":"2"}\x0c{"perm":"1","fertility":"1"}')
    with caplog.at_level(logging.WARNING, logger="stacksort"):
        assert read_records(path) == [CacheRecord("1 2", 2), CacheRecord("2 1", 0)]
    assert "unterminated last line" in caplog.text
    append_records(path, [CacheRecord("1 2 3", 5)])
    assert path.read_text() == GOOD + '{"perm":"1 2 3","fertility":"5"}\n'


CANONICAL = [record_line(CacheRecord(k, v)) + "\n" for k, v in [
    ("3 1 4 2 5 6 7", 27), ("", 1), ("2 1", 0), ("1 2", 2), ("1", 1), ("1 2", 2)]]


@pytest.mark.parametrize("odd", [
    '{"perm":"2 1 3","fertility":"1"}\r\n', '{"perm":"\\u0031 2 3","fertility":"5"}\n',
    '{"perm": "1 2 3","fertility":"5"}\n', '{"fertility":"5","perm":"1 2 3"}\n',
    '{"perm":"2 1","perm":"1 2 3","fertility":"5"}\n', '{"perm":"1 2 3","fertility":"05"}\n',
    '\n', '{"perm":"1 2 3","fertility":"5"}', '{"perm":"1 2 3","fertil'])
def test_one_odd_line_reads_as_the_line_parser_reads_it(tmp_path, caplog, odd):
    """A file of record_line lines, alone or with one odd line anywhere, reads
    as the reference line parser reads it: the same records, dict, warnings
    and error text."""
    path = tmp_path / "cache.jsonl"
    text = "".join(CANONICAL)
    assert list(_read(text)) == parse_lines(text)

    def outcome(read):
        caplog.clear()
        try:
            got = read()
        except CorruptRecordError as exc:
            got = repr(exc)
        return got, caplog.record_tuples

    ats = range(len(CANONICAL) + 1) if odd.endswith("\n") else [len(CANONICAL)]
    for at in ats:
        text = "".join(CANONICAL[:at] + [odd] + CANONICAL[at:])
        path.write_bytes(text.encode("utf-8"))
        with caplog.at_level(logging.WARNING, logger="stacksort"):
            want = outcome(lambda: parse_lines(text, os.fspath(path)))
            assert outcome(lambda: read_records(path)) == want
            assert outcome(lambda: load(path)) == (
                want if isinstance(want[0], str) else (dict(want[0]), want[1]))


def test_the_line_parser_reads_only_the_odd_lines(tmp_path, monkeypatch):
    """Runs of record_line lines are read in bulk: 2,000 of them cost no
    _parse_line call, and one CRLF line or a torn tail among them costs one."""
    rng = random.Random(18)
    lines = []
    for _ in range(2000):
        n = rng.randint(1, 12)
        key = " ".join(map(str, rng.sample(range(1, n + 1), n)))
        lines.append(record_line(CacheRecord(key, rng.randrange(10 ** 30))) + "\n")
    crlf = lines[:1000] + [lines[1000].replace("\n", "\r\n")] + lines[1001:]
    torn = lines + ['{"perm":"3 1 4 2 5 6 7","fertil']
    calls = []
    monkeypatch.setattr(cache, "_parse_line",
                        lambda line, lineno: calls.append(lineno) or _parse_line(line, lineno))
    path = tmp_path / "cache.jsonl"
    for text, parsed in (("".join(lines), []), ("".join(crlf), [1001]), ("".join(torn), [2001])):
        path.write_bytes(text.encode("utf-8"))
        calls.clear()
        assert read_records(path) == parse_lines(text)
        assert calls == parsed


NOTE = '{"perm":"1","fertility":"1","note":"\u2028\x85"}'


@pytest.mark.parametrize("text, lineno", [
    ('{"perm":"1","fertility":"1"}\x0b\n' + GOOD + "not json\n", 1),
    ('{"perm":"1","fertility":"1"}\r{"perm":"1 2","fertility":"2"}\n', 1),
    (NOTE + "\n\n\r\n" + GOOD.replace("\n", "\r\n") + "not json\n", 6),
    ("\r\n" + GOOD + "not json\n", 4),
    (GOOD.replace("\n", "\r\n", 1) + GOOD + '{"perm":"1 1","fertility":"2"}\n', 5),
])
def test_error_line_numbers_are_physical_lines(tmp_path, text, lineno):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(CorruptRecordError, match=f"^line {lineno}: "):
        read_records(path)


def test_crlf_file_with_blank_lines_loads(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b'\r\n{"perm":"1 2","fertility":"2"}\r\n\n\r\n{"perm":"2 1","fertility":"0"}\r\n')
    assert load(path) == {"1 2": 2, "2 1": 0}
    append_records(path, [CacheRecord("1 2 3", 5)])
    assert load(path) == {"1 2": 2, "2 1": 0, "1 2 3": 5}


def test_bad_line_before_the_end_is_corrupt(tmp_path):
    path = tmp_path / "cache.jsonl"
    for text in (GOOD + "not json\n", '{"perm":"1 2","fert\n' + GOOD, b"\xff\n"):
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(CorruptRecordError):
            read_records(path)


def seeded_records(count, sizes, seed):
    """Records of random words with n in ``sizes``; a key that recurs keeps its value."""
    rng = random.Random(seed)
    values = {}
    for _ in range(count):
        n = rng.choice(sizes)
        key = " ".join(map(str, rng.sample(range(1, n + 1), n)))
        yield CacheRecord(key, values.setdefault(key, rng.randrange(10 ** 30)))


def test_a_second_load_checks_only_the_appended_keys(tmp_path, monkeypatch):
    """A load of a file that starts with the bytes the last load parsed tests
    only the keys after those bytes: none, and no call of the reader, when
    nothing was appended."""
    path = tmp_path / "cache.jsonl"
    append_records(path, seeded_records(2000, range(1, 13), 27))
    calls, reads = [], []
    monkeypatch.setattr(cache, "_is_key", lambda text: calls.append(text) or _is_key(text))
    monkeypatch.setattr(cache, "_read", lambda *args: reads.append(args) or _read(*args))
    monkeypatch.setattr(cache, "_last", (b"", 1, None, {}))
    table = load(path)
    assert len(calls) == 2000
    calls.clear()
    reads.clear()
    assert load(path) == table and calls == [] and reads == []
    more = list(seeded_records(3, [13, 14], 28))
    append_records(path, more)
    assert load(path) == {**table, **dict(more)}
    assert calls == [r.perm for r in more]


def test_load_returns_a_read_only_view(tmp_path):
    """No caller can change what a later load returns: the map refuses
    writes, and a copy of it is the caller's own."""
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD + '{"perm":"1","fertility":"1"}')
    for _ in range(2):  # a cold load, then a warm one
        table = load(path)
        with pytest.raises(TypeError):
            table["1 2"] = 3
        with pytest.raises(TypeError):
            del table["2 1"]
        copy = dict(table)
        copy["1 2"], copy["1 2 3"] = 3, 5
        del copy["2 1"]
        assert load(path) == {"1 2": 2, "2 1": 0, "1": 1}


class CountingFile:
    """A file object that adds the length of everything it reads to ``counts``."""

    def __init__(self, fh, counts):
        self._fh, self._counts = fh, counts

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def read(self, *args):
        data = self._fh.read(*args)
        self._counts.append(len(data))
        return data


def test_append_reads_only_the_last_byte(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    append_records(path, seeded_records(2000, range(1, 13), 27))
    counts = []
    monkeypatch.setattr(cache, "open", lambda *args: CountingFile(open(*args), counts),
                        raising=False)
    append_records(path, [CacheRecord("1 2 3", 5)])
    assert counts and sum(counts) <= 1
    assert path.read_bytes().endswith(b'"}\n{"perm":"1 2 3","fertility":"5"}\n')


def test_a_rewrite_in_place_is_seen(tmp_path):
    """The same size and mtime with a different value: the slot is keyed on
    the text, not on the file's metadata."""
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD)
    assert load(path) == {"1 2": 2, "2 1": 0}
    stat = path.stat()
    path.write_text(GOOD.replace('"2"', '"3"'))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    assert load(path) == {"1 2": 3, "2 1": 0}


@pytest.mark.parametrize("bad, error, warned", [
    ("not json\n", "line 4: ", False), ('{"perm":"1 1","fertility":"2"}\n', "line 4: ", False),
    ("\r\nnot json\n", "line 5: ", False), ("not json\n" + TORN, "line 4: ", False),
    ('{"perm":"1 2","fertility":"3"}\n', "conflicting values", False),
    ('{"perm":"1 2","fertility":"3"}\n' + TORN, "conflicting values", True)])
def test_a_bad_line_after_a_loaded_prefix_reads_as_in_a_cold_load(tmp_path, bad, error, warned):
    """The same error, also on the next load, and a torn tail's warning before
    a conflict above it."""
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD + "\n")
    assert load(path) == {"1 2": 2, "2 1": 0}
    path.write_text(GOOD + "\n" + bad)
    want = load_outcome(reference_load, path)
    assert [load_outcome(load, path) for _ in range(2)] == [want, want]
    assert load_outcome(cold_load, path) == want
    assert want[0][1].startswith(error) and len(want[1]) == warned


def test_a_torn_tail_warns_on_every_load(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD + TORN)
    with caplog.at_level(logging.WARNING, logger="stacksort"):
        for _ in range(3):
            assert load(path) == {"1 2": 2, "2 1": 0}
        path.write_text(GOOD + '{"perm":"1","fertility":"1"}\n{"perm":"3 1')
        assert load(path) == {"1 2": 2, "2 1": 0, "1": 1}
    lines = [msg for _, _, msg in caplog.record_tuples]
    assert len(lines) == 4 and all("unterminated last line" in msg for msg in lines)
    assert [msg.split("(")[1][:7] for msg in lines] == ["line 3:"] * 3 + ["line 4:"]


def test_warm_loads_match_cold_loads_over_seeded_edits(tmp_path):
    """A few hundred seeded appends, odd lines, torn tails, truncations,
    rewrites, digit-limit switches and byte-level edits; CI runs thousands."""
    edits = Counter()
    assert warm_and_cold_loads(27, 300, tmp_path / "cache.jsonl", edits) is None
    assert all(edits[kind] for kind in ("invalid", "non_ascii", "torn_utf8"))


APPENDER = """import sys
from stacksort import CacheRecord, append_records
print("ready", flush=True)
sys.stdin.readline()
for i in range(int(sys.argv[3])):
    append_records(sys.argv[1], [CacheRecord(sys.argv[2], i)])
"""


def test_two_processes_append_at_once(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    src = os.path.dirname(os.path.dirname(stacksort.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    keys = ("1", "1 2")
    workers = [subprocess.Popen([sys.executable, "-c", APPENDER, path, key, "300"], env=env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for key in keys]
    for p in workers:  # both have imported the package before either starts
        assert p.stdout.readline() == "ready\n"
    for p in workers:
        p.stdin.write("go\n")
        p.stdin.close()
    for p in workers:
        assert p.wait(timeout=30) == 0
        p.stdout.close()
    records = read_records(path)
    assert sorted((r.perm, r.fertility) for r in records) == sorted(
        (key, i) for key in keys for i in range(300))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int-to-decimal digit limit")
class TestValueAboveTheDigitLimit:
    """A valid record whose value has more digits than the interpreter's
    default limit of 4,300 is not corrupt: reads and appends refuse it with
    SizeLimitExceededError and leave the file as it is."""

    def write(self, path, end):
        sys.set_int_max_str_digits(0)
        big = CacheRecord(" ".join(map(str, range(1, 7201))), 10 ** 4328)
        path.write_text(GOOD + record_line(big) + end)
        sys.set_int_max_str_digits(4300)  # CPython's default; conftest restores the old one
        return path.read_bytes()

    def test_terminated_record(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        self.write(path, "\n")
        with pytest.raises(SizeLimitExceededError,
                           match=r"^line 3: 4329 digits .*set_int_max_str_digits\(0\)"):
            load(path)

    def test_a_load_under_a_lifted_limit_is_not_reused_under_the_default(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        self.write(path, "\n")
        sys.set_int_max_str_digits(0)
        assert load(path)["1 2"] == 2
        sys.set_int_max_str_digits(4300)
        with pytest.raises(SizeLimitExceededError, match="^line 3: 4329 digits "):
            load(path)

    def test_unterminated_last_record(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        before = self.write(path, "")
        with pytest.raises(SizeLimitExceededError, match="^line 3: "):
            load(path)
        with pytest.raises(SizeLimitExceededError, match="^line 3: "):
            append_records(path, [CacheRecord("1 2 3", 5)])
        assert path.read_bytes() == before

    @pytest.mark.parametrize("line", [
        '{"perm":"1","fertility":"0%s"}', '{"perm":"1","fertility":"-%s"}',
        '{"perm":"1","fertility":"1_%s"}', '{"perm":"1","fertility":%s}', '{"fertility":"%s"}',
        '{"perm":"1 1","fertility":"%s"}'])
    def test_a_long_bad_value_is_still_corrupt(self, tmp_path, line):
        path = tmp_path / "cache.jsonl"
        path.write_text(line % ("1" * 5000) + "\n")
        with pytest.raises(CorruptRecordError, match="^line 1: "):
            load(path)
