import json
import os
import subprocess
import sys

import pytest

import stacksort
from stacksort import cache as cache_mod
from stacksort import cli
from stacksort import InvalidArgumentError, StacksortError, fertility, search, spectrum
from stacksort import catalan, even_witness, parse_permutation, render_svg, witness
from stacksort.cli import main

P27_TEXT = "3142567"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def load_calls(monkeypatch):
    """The paths passed to ``cache.load`` while the test runs."""
    calls = []
    real_load = cache_mod.load
    monkeypatch.setattr(cache_mod, "load", lambda p: calls.append(p) or real_load(p))
    return calls


def test_import_leaves_dataclasses_unloaded():
    # every command pays for the modules that importing the CLI loads
    src = os.path.dirname(os.path.dirname(stacksort.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, stacksort.cli; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


class TestSort:
    def test_compact(self, capsys):
        code, out, _ = run(capsys, "sort", "4162")
        assert code == 0 and out == "1426\n"

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
        assert code == 1 and json.loads(out)["fertility"] == "27"

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
        code, out, err = run(capsys, "classify", "3", "--max-n", "4", "--jobs", "0")
        assert code == 1 and out == "" and "error:" in err

    def test_max_n_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "3"])
        assert exc.value.code == 2


class TestConstruct:
    def test_95(self, capsys):
        _, out, _ = run(capsys, "construct", "95")
        assert out == "f 95\nmethod base-case\nwitness 1243567\n"

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

    def test_perm_matrix(self, capsys):
        code, out, _ = run(capsys, "bound-check", "--perm", P27_TEXT)
        assert code == 0 and out == "checked 1\nall hold\n"

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


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("call", [
        lambda: parse_permutation("1.5 2"), lambda: catalan(-1), lambda: even_witness(0),
        lambda: witness(-1), lambda: spectrum(0), lambda: search.classify(3, 4, jobs=0),
        lambda: render_svg((1, 2), 9)])
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

    def test_bad_flag_reports_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fertility", "12", "--method", "psychic"])
        assert exc.value.code == 2
        assert "--method" in capsys.readouterr().err


def test_json_outputs_are_stable(capsys):
    first = run(capsys, "vhc", P27_TEXT, "--json")
    second = run(capsys, "vhc", P27_TEXT, "--json")
    assert first == second
