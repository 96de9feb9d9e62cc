import json
import logging
import os
import random
import subprocess
import sys

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
from stacksort.cache import _parse_line, record_line
from stacksort.perms import is_normalized


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


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789 +-_.e\u0662", max_size=6))
def test_value_check_is_the_digit_rule(digits):
    # ASCII digits with no leading zero, "0" itself included
    canonical = digits.isascii() and digits.isdigit() and (digits[0] != "0" or digits == "0")
    line = json.dumps({"perm": "1", "fertility": digits})
    try:
        _parse_line(line, 1)
    except CorruptRecordError:
        assert not canonical
    else:
        assert canonical


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


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet="0123456789 +-_x,", max_size=14) | st.text(alphabet="123 ", max_size=7))
def test_key_check_matches_the_integer_check_on_drawn_strings(key):
    assert accepts(key) == reference_accepts(key)


def test_key_check_matches_the_integer_check_on_permutations_and_malformed_keys():
    rng = random.Random(7)
    keys = [" ".join(map(str, rng.sample(range(1, n + 1), n))) for n in range(31) for _ in range(3)]
    assert all(accepts(key) and reference_accepts(key) for key in keys)
    for raw in ('5', 'null', '["1","2"]', '"1 1"', '"0 1"', '"-1"', '"1  2"', '" 1 2"',
                '"1 2 "', '"1,2"', '"12"', '"01 2"', '"+1 2"', '"1 x"', '"2 4"', '""'):
        key = json.loads(raw)
        assert accepts(key) == reference_accepts(key) == (key == "")


def test_load_keeps_first_occurrence_order(tmp_path):
    path = tmp_path / "cache.jsonl"
    records = [("2 1 3", 1), ("1", 1), ("1 2", 2), ("2 1 3", 1), ("1", 1), ("2 1", 0)]
    append_records(path, [CacheRecord(*r) for r in records])
    assert list(load(path).items()) == [("2 1 3", 1), ("1", 1), ("1 2", 2), ("2 1", 0)]


def test_audit_accepts_true_values(tmp_path):
    path = tmp_path / "cache.jsonl"
    append_records(path, [CacheRecord("3 1 4 2 5 6 7", 27), CacheRecord("2 1", 0)])
    assert audit(path) == 2


def test_audit_detects_a_wrong_value(tmp_path):
    path = tmp_path / "cache.jsonl"
    append_records(path, [CacheRecord("3 1 4 2 5 6 7", 26)])
    with pytest.raises(CorruptRecordError):
        audit(path)


GOOD = '{"perm":"1 2","fertility":"2"}\n{"perm":"2 1","fertility":"0"}\n'


def test_torn_last_line_is_skipped_with_a_warning(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD + '{"perm":"3 1 4 2 5 6 7","fertil')
    with caplog.at_level(logging.WARNING, logger="stacksort"):
        assert load(path) == {"1 2": 2, "2 1": 0}
    assert "unterminated last line" in caplog.text


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


NOTE = '{"perm":"1","fertility":"1","note":"\u2028\x85"}'


@pytest.mark.parametrize("text, lineno", [
    ('{"perm":"1","fertility":"1"}\x0b\n' + GOOD + "not json\n", 1),
    ('{"perm":"1","fertility":"1"}\r{"perm":"1 2","fertility":"2"}\n', 1),
    (NOTE + "\n\n\r\n" + GOOD.replace("\n", "\r\n") + "not json\n", 6),
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
        '{"perm":"1","fertility":"1_%s"}', '{"perm":"1","fertility":%s}', '{"fertility":"%s"}'])
    def test_a_long_bad_value_is_still_corrupt(self, tmp_path, line):
        path = tmp_path / "cache.jsonl"
        path.write_text(line % ("1" * 5000) + "\n")
        with pytest.raises(CorruptRecordError, match="^line 1: "):
            load(path)
