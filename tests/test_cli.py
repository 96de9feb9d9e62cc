import json
import multiprocessing
import sys

import pytest

from stacksort import cache as cache_mod
from stacksort import cli, hooks
from stacksort import InvalidArgumentError, StacksortError, fertility, search, spectrum
from stacksort import catalan, even_witness, parse_permutation, witness
from stacksort.cli import main
from conftest import in_new_interpreter, outcome

P27_TEXT = "3142567"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def raise_on_start(self):
    raise AssertionError("a worker process started")


@pytest.fixture
def load_calls(monkeypatch):
    """The paths passed to ``cache.load`` while the test runs."""
    calls = []
    real_load = cache_mod.load
    monkeypatch.setattr(cache_mod, "load", lambda p: calls.append(p) or real_load(p))
    return calls


def after_fresh_import(expr):
    """What ``expr`` prints after ``import sys, stacksort.cli`` in a new interpreter."""
    return outcome(in_new_interpreter("-c", f"import sys, stacksort.cli; print({expr})"))


def test_import_leaves_dataclasses_unloaded():
    # every command pays for the modules that importing the CLI loads
    assert after_fresh_import("'dataclasses' in sys.modules") == (0, "False\n", "")


# modules that only some commands run, or that only they import
DEFERRED = ("stacksort.cache", "stacksort.search", "stacksort.svg", "json", "logging",
            "fractions", "decimal", "csv", "fcntl")
LOADED_AFTER = f"""
import contextlib, io, sys
from stacksort import cli

for command in [None, *sys.argv[1:]]:
    if command:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(command.split()):
                sys.exit(f"{{command}} failed")
    print(" ".join(m for m in {DEFERRED!r} if m in sys.modules))
"""


def test_commands_load_only_the_modules_they_run(tmp_path):
    cache = tmp_path / "cache.jsonl"
    steps = ["fertility 3142567", "construct 27", "vhc 3142567", "spectrum 5",
             f"fertility 12 --cache {cache}"]
    code, out, err = outcome(in_new_interpreter("-c", LOADED_AFTER, *steps))
    assert (code, err) == (0, "")
    imported, *after = [set(line.split()) for line in out.splitlines()]
    assert imported == after[0] == after[1] == after[2] == set()
    assert "stacksort.search" in after[3] and "stacksort.cache" not in after[3]
    assert {"stacksort.cache", "json", "logging", "fcntl"} <= after[4]


def test_entry_points():
    # `python -m stacksort` runs __main__.py, which exits through cli.main_entry, and
    # `python -m stacksort.cli` runs cli.py's own main block; the four interpreters
    # start at once to keep the test short
    runs = [in_new_interpreter("-m", *argv) for argv in (
        ["stacksort", "sort", "4162"], ["stacksort.cli", "sort", "4162"],
        ["stacksort", "classify", "3", "--max-n", "0"], ["stacksort", "no-such-command"])]
    ok, ok_cli, failed, unknown = (outcome(process) for process in runs)
    assert ok == ok_cli == (0, "1426\n", "")
    assert failed == (1, "", "error: n_max must be positive\n")
    assert unknown[:2] == (2, "") and "invalid choice: 'no-such-command'" in unknown[2]


class TestSort:
    def test_multi_token(self, capsys):
        code, out, _ = run(capsys, "sort", "13", "2", "12", "15")
        assert code == 0 and out == "2 12 13 15\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sort", "4162", "--json")
        assert json.loads(out) == {"perm": "4 1 6 2", "sorted": "1 4 2 6"}


class TestFertility:
    def test_default_method(self, capsys):
        code, out, _ = run(capsys, "fertility", P27_TEXT)
        assert code == 0 and out == "27\n"

    def test_both_agree(self, capsys):
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--method", "both")
        assert code == 0
        assert out == "vhc 27\nbrute 27\nagree\n"

    def test_both_disagree_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "fertility_brute", lambda p, limit: 26)
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--method", "both")
        assert code == 1 and out == "vhc 27\nbrute 26\ndisagree\n"
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--method", "both", "--json")
        assert code == 1 and out == ('{"perm": "3 1 4 2 5 6 7", "fertility": "27", '
                                     '"method": "both"}\n')

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--json")
        assert json.loads(out) == {
            "perm": "3 1 4 2 5 6 7", "fertility": "27", "method": "vhc"}

    def test_early_exit(self, capsys):
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--early-exit", "20")
        assert code == 0 and out == "exceeded 20\n"
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--early-exit", "20", "--json")
        obj = json.loads(out)
        assert obj["fertility"] is None and obj["exceeded"] is True

    @pytest.mark.parametrize("word, cap, out", [
        (P27_TEXT, "26", "exceeded 26"), (P27_TEXT, "27", "27"), (P27_TEXT, "-1", "exceeded -1"),
        ("21", "-1", "0"), ("", "0", "exceeded 0")])
    def test_early_exit_boundary(self, capsys, word, cap, out):
        # exceeded means a count above max(F, 0): a zero count never is
        code, printed, _ = run(capsys, "fertility", word, "--early-exit", cap)
        assert code == 0 and printed == out + "\n"

    @pytest.mark.parametrize("extra", [(), ("--early-exit", "20")])
    def test_brute(self, capsys, extra):
        # brute ignores --early-exit
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--method", "brute", *extra)
        assert code == 0 and out == "27\n"
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--method", "brute", *extra, "--json")
        assert code == 0 and out == ('{"perm": "3 1 4 2 5 6 7", "fertility": "27", '
                                     '"method": "brute"}\n')

    def test_both_exceeded(self, capsys):
        # no agree line once vhc stopped early, and no failure either
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--method", "both",
                           "--early-exit", "20")
        assert code == 0 and out == "vhc exceeded\nbrute 27\n"
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--method", "both",
                           "--early-exit", "20", "--json")
        assert code == 0 and out == ('{"perm": "3 1 4 2 5 6 7", "fertility": null, '
                                     '"method": "both", "exceeded": true}\n')

    @pytest.mark.parametrize("method", ["brute", "both"])
    def test_oversized_word_fails_before_the_cache_and_the_kernel(self, capsys, tmp_path,
                                                                  monkeypatch, load_calls,
                                                                  method):
        kernel_calls = []
        monkeypatch.setattr(cli, "fertility", kernel_calls.append)
        path = tmp_path / "cache.jsonl"
        code, out, err = run(capsys, "fertility", *map(str, range(1, 11)), "--method", method,
                             "--cache", str(path))
        assert (code, out, err) == (1, "", "error: length 10 exceeds brute-force limit 9\n")
        assert not path.exists() and load_calls == [] and kernel_calls == []

    def test_early_exit_reads_the_record_and_leaves_the_file(self, capsys, tmp_path):
        # an exceeded run leaves a file that holds the word as it was
        path = tmp_path / "cache.jsonl"
        cache_mod.append_records(path, [cache_mod.CacheRecord("3 1 4 2 5 6 7", 27)])
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--early-exit", "20",
                           "--cache", str(path))
        assert code == 0 and out == "exceeded 20\n"
        assert cache_mod.read_records(path) == [cache_mod.CacheRecord("3 1 4 2 5 6 7", 27)]

    def test_early_exit_appends_a_computed_value_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        calls = []
        monkeypatch.setattr(cli, "fertility", lambda p: calls.append(p) or fertility(p))
        # the exact value is stored even when the run reports it exceeded
        for cap, out in (("20", "exceeded 20\n"), ("30", "27\n")):
            code, printed, _ = run(capsys, "fertility", P27_TEXT, "--early-exit", cap,
                                   "--cache", str(path))
            assert code == 0 and printed == out
            assert cache_mod.read_records(path) == [cache_mod.CacheRecord("3 1 4 2 5 6 7", 27)]
        assert len(calls) == 1  # the second run is served from the record

    def test_matches_library(self, capsys):
        for text in ("1", "12", "4162", "3142567"):
            _, out, _ = run(capsys, "fertility", text)
            assert int(out) == fertility(tuple(int(c) for c in text))

    def test_cache_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--cache", path)
        assert code == 0 and out == "27\n"
        lines = (tmp_path / "cache.jsonl").read_text().splitlines()
        assert json.loads(lines[0]) == {"perm": "3 1 4 2 5 6 7", "fertility": "27"}
        # second run is served from the cache and must not duplicate the record
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--cache", path)
        assert code == 0 and out == "27\n"
        assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 1

    def test_cache_miss_loads_the_file_once(self, capsys, tmp_path, load_calls):
        path = str(tmp_path / "cache.jsonl")
        code, out, _ = run(capsys, "fertility", P27_TEXT, "--cache", path)
        assert code == 0 and out == "27\n"
        assert load_calls == [path]
        assert cache_mod.read_records(path) == [cache_mod.CacheRecord("3 1 4 2 5 6 7", 27)]

    @pytest.mark.parametrize("key", ['5', '"1 1"', '"0 1"', '"2 4"'])
    def test_malformed_cache_key_is_a_domain_error(self, capsys, tmp_path, key):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"perm":"1 2","fertility":"2"}\n{"perm":%s,"fertility":"2"}\n' % key)
        code, out, err = run(capsys, "fertility", "12", "--cache", str(path))
        assert code == 1 and out == "" and "error:" in err and "line 2" in err

    def test_non_numeric_cache_value_is_a_domain_error(self, capsys, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"perm":"1","fertility":1e400}\n')
        code, out, err = run(capsys, "fertility", "1", "--cache", str(path))
        assert code == 1 and out == "" and err.startswith("error: line 1: ")

    def test_duplicate_entry_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "fertility", "11")
        assert code == 1 and out == "" and "error:" in err


def default_digit_limit():
    """CPython's default; the conftest fixture puts the old limit back."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(4300)


class TestLongFertility:
    """C(7200), the fertility of 1 2 .. 7200, has 4,329 digits: more than
    CPython's default limit of 4,300 for int-to-decimal conversions."""

    WORD = [str(x) for x in range(1, 7201)]

    @pytest.fixture(autouse=True)
    def start_at_the_default_limit(self):
        default_digit_limit()

    def expected(self):
        text = str(catalan(7200))  # cli.main has lifted the limit
        assert len(text) == 4329
        return text

    def test_text(self, capsys):
        code, out, _ = run(capsys, "fertility", *self.WORD)
        assert code == 0 and out == self.expected() + "\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "fertility", *self.WORD, "--json")
        assert code == 0 and json.loads(out)["fertility"] == self.expected()

    def test_cache_miss_then_hit(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.jsonl")
        code, out, _ = run(capsys, "fertility", *self.WORD, "--cache", path)
        assert code == 0 and out == self.expected() + "\n"
        default_digit_limit()  # the read must not lean on the first run
        monkeypatch.setattr(cli, "fertility", lambda *a, **k: pytest.fail("cache miss"))
        code, out, _ = run(capsys, "fertility", *self.WORD, "--cache", path)
        assert code == 0 and out == self.expected() + "\n"


class TestPreimages:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "preimages", "123")
        assert code == 0
        assert out.splitlines() == ["123", "132", "213", "312", "321"]

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "preimages", "21")
        assert code == 0 and out == ""

    def test_json(self, capsys):
        _, out, _ = run(capsys, "preimages", "12", "--json")
        assert json.loads(out) == {
            "perm": "1 2", "count": 2, "preimages": ["1 2", "2 1"]}

    def test_size_limit(self, capsys):
        code, _, err = run(capsys, "preimages", "1 2 3 4 5 6 7 8 9 10")
        assert code == 1 and "limit" in err


class TestVhc:
    def test_json_schema(self, capsys):
        _, out, _ = run(capsys, "vhc", P27_TEXT, "--json")
        obj = json.loads(out)
        assert obj["perm"] == "3 1 4 2 5 6 7"
        assert obj["count"] == 6
        assert [tuple(q) for q in obj["compositions"]] == [
            (3, 1, 1), (2, 1, 2), (1, 1, 3), (2, 2, 1), (1, 3, 1), (1, 2, 2)]

    def test_human_output(self, capsys):
        _, out, _ = run(capsys, "vhc", "123")
        assert out == "count 1\n1 hooks - composition (3)\n"

    def test_unsorted(self, capsys):
        _, out, _ = run(capsys, "vhc", "21")
        assert out == "count 0\n"

    def test_svg_out(self, capsys, tmp_path):
        out_dir = tmp_path / "figs"
        code, _, _ = run(capsys, "vhc", P27_TEXT, "--svg-out", str(out_dir))
        assert code == 0
        files = sorted(out_dir.iterdir())
        assert len(files) == 6
        assert files[0].name == "3-1-4-2-5-6-7-vhc-001.svg"
        assert files[0].read_text().startswith("<svg ")

    def test_svg_out_enumerates_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = hooks.iter_vhc
        monkeypatch.setattr(hooks, "iter_vhc", lambda p: calls.append(p) or real(p))
        code, _, _ = run(capsys, "vhc", P27_TEXT, "--svg-out", str(tmp_path / "figs"))
        assert code == 0 and len(calls) == 1

    def test_svg_out_without_configurations_leaves_no_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "figs"
        code, out, err = run(capsys, "vhc", "21", "--svg-out", str(out_dir))
        assert code == 1 and out == "" and err == "error: no hook configuration to render\n"
        assert not out_dir.exists()


class TestSpectrum:
    def test_json(self, capsys):
        _, out, _ = run(capsys, "spectrum", "3", "--json")
        assert json.loads(out) == {
            "n": 3, "achieved": ["1", "5"],
            "witnesses": {"1": "2 1 3", "5": "1 2 3"}}

    def test_csv(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, _, _ = run(capsys, "spectrum", "3", "--csv", str(path))
        assert code == 0
        assert path.read_text().splitlines() == ["value,witness", "1,2 1 3", "5,1 2 3"]

    def test_size_limit(self, capsys):
        code, out, err = run(capsys, "spectrum", "12")
        assert code == 1 and out == "" and "limit" in err

    def test_matches_library(self, capsys):
        _, out, _ = run(capsys, "spectrum", "4", "--json")
        assert {int(v) for v in json.loads(out)["achieved"]} == set(spectrum(4).achieved)

    def test_parallel_matches_sequential(self, capsys):
        for n in ("1", "2", "5"):
            assert run(capsys, "spectrum", n, "--jobs", "2") == run(capsys, "spectrum", n)

    def test_jobs_start_no_process(self, capsys, monkeypatch):
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", raise_on_start)
        assert run(capsys, "spectrum", "5", "--jobs", "10000") == run(capsys, "spectrum", "5")
        code, out, _ = run(capsys, "classify", "123", "--max-n", "7", "--jobs", "3")
        assert code == 0 and "witness 1324567\n" in out

    @pytest.mark.parametrize("argv", [("3",), ("0",), ("12",)])
    def test_bad_jobs(self, capsys, argv):
        # the jobs fault is reported before any other
        code, out, err = run(capsys, "spectrum", *argv, "--jobs", "0")
        assert (code, out, err) == (1, "", "error: jobs must be at least 1\n")

    def test_bad_cache_fails_before_the_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"perm":"1 1","fertility":"1"}\n')
        csv_path = tmp_path / "spec.csv"
        code, out, err = run(capsys, "spectrum", "4", "--csv", str(csv_path),
                             "--cache", str(bad))
        assert code == 1 and out == "" and err.startswith("error: line 1: non-canonical record")
        assert not csv_path.exists()


class TestClassify:
    def test_proven_infertile_json(self, capsys):
        _, out, _ = run(capsys, "classify", "3", "--max-n", "4", "--json")
        assert json.loads(out) == {
            "f": "3", "verdict": "proven-infertile", "searched_n": 4}

    def test_fertile(self, capsys):
        _, out, _ = run(capsys, "classify", "2", "--max-n", "5")
        assert out == "f 2\nverdict fertile\nwitness 12\nsearched_n 0\n"

    def test_fertile_by_scan_json(self, capsys):
        code, out, _ = run(capsys, "classify", "123", "--max-n", "7", "--json")
        assert code == 0 and out == ('{"f": "123", "verdict": "fertile", "searched_n": 7, '
                                     '"witness": "1 3 2 4 5 6 7"}\n')

    def test_cache_loads_the_file_once(self, capsys, tmp_path, load_calls):
        path = str(tmp_path / "cache.jsonl")
        code, out, _ = run(capsys, "classify", "27", "--max-n", "1", "--cache", path)
        assert code == 0 and "verdict fertile" in out
        assert load_calls == [path]
        assert cache_mod.read_records(path) == [cache_mod.CacheRecord("3 1 4 2 5 6 7", 27)]

    @pytest.mark.parametrize("keys, witness", [(("2 1 3", "1"), "213"), (("1", "2 1 3"), "1")])
    def test_cache_hit_is_the_first_fitting_record_in_the_file(self, capsys, tmp_path, keys,
                                                                witness):
        path = tmp_path / "cache.jsonl"
        cache_mod.append_records(path, [cache_mod.CacheRecord(key, 1) for key in keys])
        before = path.read_bytes()
        code, out, _ = run(capsys, "classify", "1", "--max-n", "3", "--cache", str(path))
        assert code == 0 and out == f"f 1\nverdict fertile\nwitness {witness}\nsearched_n 0\n"
        assert path.read_bytes() == before

    def test_oversized_scan_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "classify", "31", "--max-n", "20")
        assert code == 1 and out == "" and "limit" in err

    def test_bad_jobs_is_a_domain_error(self, capsys):
        # rejected even when a construction applies, and before other faults
        for argv in (("3", "--max-n", "4", "--jobs", "0"), ("2", "--max-n", "5", "--jobs", "-1"),
                     ("0", "--max-n", "0", "--jobs", "0")):
            code, out, err = run(capsys, "classify", *argv)
            assert (code, out, err) == (1, "", "error: jobs must be at least 1\n"), argv

    def test_parallel_matches_sequential(self, capsys):
        assert run(capsys, "classify", "3", "--max-n", "4", "--jobs", "2") == \
            run(capsys, "classify", "3", "--max-n", "4")

    def test_max_n_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "3"])
        assert exc.value.code == 2


class TestConstruct:
    def test_95(self, capsys):
        _, out, _ = run(capsys, "construct", "95")
        assert out == "f 95\nmethod base-case\nwitness 1243567\n"

    def test_a_seed_is_matched_before_products(self, capsys):
        # 1539 is interleaved_fertility(26) and also 27 * 57
        _, out, _ = run(capsys, "construct", "1539", "--json")
        assert json.loads(out)["method"] == "interleaved"

    def test_none(self, capsys):
        _, out, _ = run(capsys, "construct", "7", "--json")
        assert json.loads(out) == {"f": "7", "method": "none", "witness": None}


class TestDensity:
    def test_exact(self, capsys):
        _, out, _ = run(capsys, "density", "10260")
        assert out == "count 7816\nratio 1954/2565\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "density", "4", "--json")
        assert json.loads(out) == {"n": 4, "count": "3", "ratio": "3/4"}


class TestBoundCheck:
    def test_matrix_rows(self, capsys):
        code, out, _ = run(capsys, "bound-check", "1,2;2,1")
        assert code == 0 and out == "checked 1\nall hold\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "bound-check", "1,2;2,1", "--json")
        assert code == 0 and out == '{"checked": 1, "all_hold": true, "failures": []}\n'

    def test_violated_exits_1(self, capsys, monkeypatch):
        # no real matrix violates the bound
        monkeypatch.setattr(search, "matrix_bound_holds", lambda m: False)
        code, out, _ = run(capsys, "bound-check", "1,2;2,1")
        assert code == 1 and out == "checked 1\nviolated [[1, 2], [2, 1]]\n"
        code, out, _ = run(capsys, "bound-check", "1,2;2,1", "--json")
        assert code == 1 and out == ('{"checked": 1, "all_hold": false, '
                                     '"failures": [[[1, 2], [2, 1]]]}\n')

    def test_perm_matrix(self, capsys):
        code, out, _ = run(capsys, "bound-check", "--perm", P27_TEXT)
        assert code == 0 and out == "checked 1\nall hold\n"

    @pytest.mark.parametrize("argv", [("1,x",), ("--random", "1", "--max-dim", "0")])
    def test_bad_input_is_rejected_before_the_perm_matrix(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "valid_compositions",
                            lambda p: pytest.fail("enumerated before validating"))
        code, out, err = run(capsys, "bound-check", "--perm", P27_TEXT, *argv)
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_random(self, capsys):
        code, out, _ = run(capsys, "bound-check", "--random", "50", "--seed", "7")
        assert code == 0 and out == "checked 50\nall hold\n"

    def test_unsorted_perm_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "bound-check", "--perm", "21")
        assert code == 1 and out == ""
        assert err == "error: 21 is unsorted: empty composition matrix\n"

    def test_hypothesis_violation_is_domain_error(self, capsys):
        code, _, err = run(capsys, "bound-check", "1,1;1,2")
        assert code == 1 and "error:" in err

    def test_nothing_to_check(self, capsys):
        code, _, err = run(capsys, "bound-check")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("argv", [("1,x",), ("--random", "1", "--max-entry", "1"),
                                      ("--random", "1", "--max-dim", "0")])
    def test_malformed_input_is_a_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "bound-check", *argv)
        assert code == 1 and out == "" and "error:" in err


class TestParserMemo:
    # one process, one parser: no parse may leave state that a later one reads
    SEQUENCE = [
        ["fertility"],
        ["fertility", P27_TEXT, "--early-exit", "5", "--json"],
        ["fertility", P27_TEXT],
        ["bound-check", "1,2;2,1"],
        ["bound-check", "--perm", P27_TEXT],
        ["frobnicate"],
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser(self):
        assert after_fresh_import("stacksort.cli._parser.cache_info().currsize") == (0, "0\n", "")

    def test_reuse_matches_a_fresh_parser(self, capsys):
        cli._parser.cache_clear()
        reused = [self.outcome(capsys, argv) for argv in self.SEQUENCE]
        assert cli._parser.cache_info().misses == 1
        parser = cli.build_parser()
        fresh = []
        for argv in self.SEQUENCE:
            cli._parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
            assert cli.build_parser() is not parser
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 0, 0, 0, 0, 2]
        assert reused[2][1] == "27\n"


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("call", [
        lambda: parse_permutation("1.5 2"), lambda: catalan(-1), lambda: even_witness(0),
        lambda: witness(-1), lambda: spectrum(0), lambda: search.classify(3, 0),
        lambda: search.nd_fd([])])
    def test_validation_errors_are_domain_errors(self, call):
        with pytest.raises(InvalidArgumentError) as exc:
            call()
        assert isinstance(exc.value, StacksortError) and isinstance(exc.value, ValueError)

    def test_internal_value_error_is_not_a_domain_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(search, "spectrum", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["spectrum", "3"])

    @pytest.mark.parametrize("argv", [
        ("fertility", P27_TEXT, "--cache", "{tmp}/missing/cache.jsonl"),
        ("fertility", P27_TEXT, "--cache", "{tmp}"),
        ("classify", "31", "--max-n", "7", "--cache", "{tmp}/file/cache.jsonl"),
        ("spectrum", "3", "--csv", "{tmp}/missing/spec.csv"),
        ("vhc", P27_TEXT, "--svg-out", "{tmp}/file"),
    ], ids=["cache-in-missing-dir", "cache-is-a-dir", "cache-under-a-file", "csv-in-missing-dir",
            "svg-out-is-a-file"])
    def test_file_system_errors_are_reported_like_domain_errors(self, capsys, tmp_path, argv):
        (tmp_path / "file").write_text("")
        code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [("fertility", "\u00b2\u00b3"), ("sort", "1\u00b23"),
                                      ("vhc", "\u2460\u2461", "--json")],
                             ids=["superscripts", "superscript-inside", "circled"])
    def test_non_decimal_digits_are_a_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err == f"error: not a permutation word: {argv[1]!r}\n"

    @pytest.mark.parametrize("argv", [("fertility", P27_TEXT), ("spectrum", "3", "--json")],
                             ids=["text", "json"])
    def test_stdout_failure_is_reported_like_a_domain_error(self, capsys, monkeypatch, argv):
        class BrokenPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        code = main(list(argv))
        assert (code, capsys.readouterr().err) == (1, "error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("argv", [("construct", "100000"), ("fertility", P27_TEXT)],
                             ids=["construct", "fertility"])
    def test_memory_error_is_one_error_line(self, capsys, monkeypatch, argv):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli.families, "witness", exhausted)
        monkeypatch.setattr(cli, "fertility", exhausted)
        assert run(capsys, *argv) == (1, "", "error: out of memory\n")

    def test_bad_flag_reports_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fertility", "12", "--method", "psychic"])
        assert exc.value.code == 2
        assert "--method" in capsys.readouterr().err


def test_json_outputs_are_stable(capsys):
    first = run(capsys, "vhc", P27_TEXT, "--json")
    second = run(capsys, "vhc", P27_TEXT, "--json")
    assert first == second


# stdout byte for byte, for the modes that the tests above check only in part
@pytest.mark.parametrize("argv, out", [
    ("sort 4162 --json", '{"perm": "4 1 6 2", "sorted": "1 4 2 6"}'),
    ("fertility 3142567 --json", '{"perm": "3 1 4 2 5 6 7", "fertility": "27", "method": "vhc"}'),
    ("fertility 3142567 --method both --json",
     '{"perm": "3 1 4 2 5 6 7", "fertility": "27", "method": "both"}'),
    ("preimages 123 --json",
     '{"perm": "1 2 3", "count": 5, "preimages": ["1 2 3", "1 3 2", "2 1 3", "3 1 2", "3 2 1"]}'),
    ("preimages 21 --json", '{"perm": "2 1", "count": 0, "preimages": []}'),
    ("vhc 3142567", "count 6\n"
     "1 hooks (1,3) (3,5) composition (3,1,1)\n2 hooks (1,3) (3,6) composition (2,1,2)\n"
     "3 hooks (1,3) (3,7) composition (1,1,3)\n4 hooks (1,6) (3,5) composition (2,2,1)\n"
     "5 hooks (1,7) (3,5) composition (1,3,1)\n6 hooks (1,7) (3,6) composition (1,2,2)"),
    ("vhc 3142567 --json", '{"perm": "3 1 4 2 5 6 7", "count": 6, "compositions": '
     '[[3, 1, 1], [2, 1, 2], [1, 1, 3], [2, 2, 1], [1, 3, 1], [1, 2, 2]]}'),
    ("spectrum 5", "n 5\nachieved 1 4 5 9 14 42\n"
     "1 21435\n4 14235\n5 12435\n9 13245\n14 21345\n42 12345"),
    ("spectrum 5 --json", '{"n": 5, "achieved": ["1", "4", "5", "9", "14", "42"], '
     '"witnesses": {"1": "2 1 4 3 5", "4": "1 4 2 3 5", "5": "1 2 4 3 5", "9": "1 3 2 4 5", '
     '"14": "2 1 3 4 5", "42": "1 2 3 4 5"}}'),
    ("classify 3 --max-n 4", "f 3\nverdict proven-infertile\nsearched_n 4"),
    ("classify 3 --max-n 4 --json", '{"f": "3", "verdict": "proven-infertile", "searched_n": 4}'),
    ("classify 2 --max-n 5 --json",
     '{"f": "2", "verdict": "fertile", "searched_n": 0, "witness": "1 2"}'),
    ("classify 31 --max-n 5", "f 31\nverdict unknown-up-to\nsearched_n 5"),
    ("classify 31 --max-n 5 --json", '{"f": "31", "verdict": "unknown-up-to", "searched_n": 5}'),
    ("construct 39", "f 39\nmethod none"),
    ("construct 39 --json", '{"f": "39", "method": "none", "witness": null}'),
    ("construct 95 --json", '{"f": "95", "method": "base-case", "witness": "1 2 4 3 5 6 7"}'),
    ("density 4 --json", '{"n": 4, "count": "3", "ratio": "3/4"}'),
])
def test_stdout_bytes(capsys, argv, out):
    assert run(capsys, *argv.split()) == (0, out + "\n", "")
