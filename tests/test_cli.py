"""Command-line interface: one test per subcommand plus error paths."""

import contextlib
import gc
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sppda import cli, permsearch
from sppda.cli import main
from sppda.construct import construct_sppda
from sppda.textio import parse_sppda, sppda_to_json, write_pda, write_sppda
from sppda.arrays import MAX_VIOLATIONS, PdaArray, PdaError

from conftest import (GOLDEN_SP_TEXT, ODD_GC_THRESHOLD, WIDE_P1, WIDE_P2, load_script, random_pda,
                      random_profile)


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.sppda"
    assert main(["construct", "man:2,1", "man:3,1", "--profile", "3,2",
                 "-o", str(path)]) == 0
    return path


class TestConstruct:
    def test_golden_output(self, golden_file):
        assert golden_file.read_text() == GOLDEN_SP_TEXT

    def test_stdout_default(self, capsys):
        assert main(["construct", "man:2,1", "man:3,1", "--profile", "3,2"]) == 0
        assert capsys.readouterr().out == GOLDEN_SP_TEXT

    def test_json_output(self, capsys):
        assert main(["construct", "man:2,1", "man:3,1", "--profile", "3,2",
                     "--json"]) == 0
        assert '"type": "sppda"' in capsys.readouterr().out

    def test_json_file_reads_back(self, golden_file, tmp_path, capsys):
        doc = tmp_path / "golden.json"
        assert main(["construct", "man:2,1", "man:3,1", "--profile", "3,2", "--json",
                     "-o", str(doc)]) == 0
        for command, *options in (["verify"],
                                  ["simulate", "--synthetic", "5,60,0", "--worst-case"]):
            runs = [(main([command, str(path), *options]), capsys.readouterr())
                    for path in (golden_file, doc)]
            assert runs[0] == runs[1] and runs[0][0] == 0

    def test_file_input(self, tmp_path, capsys):
        p1 = tmp_path / "p1.pda"
        p1.write_text(write_pda(PdaArray.from_grid(WIDE_P1)))
        p2 = tmp_path / "p2.pda"
        p2.write_text(write_pda(PdaArray.from_grid(WIDE_P2)))
        assert main(["construct", str(p1), str(p2),
                     "--profile", "6,3,2,1,1,1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sppda 14 6 12 8 6 24\n")

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["construct", "nope.pda", "man:3,1", "--profile", "3,2"]) == 2
        binary = tmp_path / "binary.pda"
        binary.write_bytes(b"pda \xff\xfe\n")
        for argv in (["construct", str(binary), "man:3,1", "--profile", "3,2"],
                     ["verify", str(binary)],
                     ["simulate", str(binary), "--synthetic", "5,60,0", "--worst-case"]):
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_family_parameters(self, capsys):
        assert main(["construct", "man:2,5", "man:3,1", "--profile", "3,2"]) == 2
        for p1, profile in (("man:2", "3,2"), ("consa:x", "3,2"), ("man:2,1", "3,x")):
            capsys.readouterr()
            assert main(["construct", p1, "man:3,1", "--profile", profile]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("p1, what", [("man:40,20", "MaN(40, 20)"),
                                          ("consa:10,9", "Construction A(10, 9)")])
    def test_family_size_cap(self, capsys, no_family_rows, p1, what):
        assert main(["construct", p1, "man:3,1", "--profile", "3,2"]) == 2
        assert capsys.readouterr() == ("", f"error: {what} would have more than MAX_CELLS = 4194304 cells\n")

    def test_construction_size_cap(self, capsys):
        assert main(["construct", "man:12,6", "man:12,6", "--profile", ",".join(["12"] * 12)]) == 2
        assert capsys.readouterr() == (
            "", "error: the construction would have more than MAX_CELLS = 4194304 cells\n")


class TestVerify:
    def test_valid_sppda(self, golden_file, capsys):
        assert main(["verify", str(golden_file)]) == 0
        out = capsys.readouterr().out
        assert "valid sppda" in out
        assert "K=5" in out and "Lambda=2" in out and "L=(3, 2)" in out
        assert "F=6" in out and "Z=4" in out and "Zh=3" in out and "S=3" in out

    def test_valid_bare_pda_grid(self, tmp_path, capsys):
        path = tmp_path / "grid.txt"
        path.write_text("* 1 2\n1 * 3\n2 3 *\n")
        assert main(["verify", str(path)]) == 0
        assert "valid pda: K=3 F=3 Z=1 S=3" in capsys.readouterr().out

    def test_valid_pda_with_header(self, tmp_path, capsys):
        path = tmp_path / "p.pda"
        path.write_text("pda 3 3 1 3\n* 1 2\n1 * 3\n2 3 *\n")
        assert main(["verify", str(path)]) == 0

    def test_invalid_pda(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\n* *\n")
        assert main(["verify", str(path)]) == 1
        assert "violation" in capsys.readouterr().out

    @pytest.mark.parametrize("text, capped", [
        ("101\n", False),  # codes 1..100 absent: exactly the cap
        ("102\n", True),
        ("1000000000\n", True),
        ("\n".join([" ".join(["1"] * 200)] * 200) + "\n", True),
    ])
    def test_violations_stop_at_the_cap(self, tmp_path, capsys, text, capped):
        path = tmp_path / "grid.txt"
        path.write_text(text)
        assert main(["verify", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == MAX_VIOLATIONS + capped
        assert all(line.startswith("violation ") for line in lines[:MAX_VIOLATIONS])
        if capped:
            assert lines[-1] == (f"stopped at MAX_VIOLATIONS = {MAX_VIOLATIONS}: "
                                 "more violations not listed")

    def test_sppda_d2_violation(self, golden_file, capsys):
        text = golden_file.read_text().replace("sppda 5 2 6 4 3 3", "sppda 5 2 6 4 4 3")
        golden_file.write_text(text)
        assert main(["verify", str(golden_file)]) == 1
        assert "violation D2" in capsys.readouterr().out

    D2_LINES = ("D2: group 1 has 3 all-star rows, needs 5", "D2: group 2 has 3 all-star rows, needs 5")

    @pytest.mark.parametrize("argv, code, out, err", [
        (["verify"], 1, "".join(f"violation {line}\n" for line in D2_LINES), ""),
        (["simulate", "--synthetic", "5,60,0"], 2, "", f"error: {'; '.join(D2_LINES)}\n"),
    ], ids=["verify", "simulate"])
    def test_sppda_d2_violation_bytes(self, golden_file, capsys, argv, code, out, err):
        # both groups of the golden array have 3 all-star rows, short of Z^(h)=5
        golden_file.write_text(golden_file.read_text().replace("sppda 5 2 6 4 3 3", "sppda 5 2 6 4 5 3"))
        assert main([argv[0], str(golden_file), *argv[1:]]) == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("old, new, err", [
        ("sppda 5 2 6 4 3 3", "sppda 5 2 6 4 7 3", "error: Z^(h)=7 not in [0, F=6]\n"),
        ("L: 3 2", "L: 3 3", "error: profile sums to 6, grid has 5 columns\n"),
    ])
    def test_sppda_parameter_errors(self, golden_file, capsys, old, new, err):
        golden_file.write_text(golden_file.read_text().replace(old, new))
        assert main(["verify", str(golden_file)]) == 2
        assert capsys.readouterr() == ("", err)

    def test_invalid_grid_reported_before_profile(self, tmp_path, capsys):
        # the grid fails C3 and the profile sums to 3 over 2 columns
        path = tmp_path / "bad.sppda"
        path.write_text("sppda 2 1 2 0 0 1\nL: 3\npi: id\n1 1\n2 2\n")
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("violation C3a: ") and "profile" not in out

    def test_sppda_header_disagreeing_with_grid(self, golden_file, capsys):
        text = golden_file.read_text().replace("sppda 5 2 6 4 3 3", "sppda 5 2 6 4 3 99")
        golden_file.write_text(text)
        assert main(["verify", str(golden_file)]) == 1
        assert capsys.readouterr().out.startswith("violation header: ")
        assert main(["simulate", str(golden_file), "--synthetic", "5,60,0",
                     "--worst-case"]) == 2

    def test_pda_header_disagreeing_with_grid(self, tmp_path, capsys):
        path = tmp_path / "p.pda"
        path.write_text("pda 3 3 1 99\n* 1 2\n1 * 3\n2 3 *\n")
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().out.startswith("violation header: ")

    def test_short_sppda_header(self, tmp_path, capsys):
        path = tmp_path / "short.sppda"
        for text in ("sppda 5 2\n", "sppda 5 2\nL: 3 2\npi: id\n* * * * 1\n"):
            path.write_text(text)
            assert main(["verify", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


class TestSimulate:
    def test_synthetic_demands(self, golden_file, tmp_path, capsys):
        log = tmp_path / "tx.log"
        assert main(["simulate", str(golden_file), "--synthetic", "5,60,7",
                     "--demands", "1,2,3,4,5", "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "rate: 1/2" in out
        assert "all_decoded: yes" in out
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].endswith("components=5,1;4,2;2,4;1,5")

    def test_worst_case(self, golden_file, capsys):
        assert main(["simulate", str(golden_file), "--synthetic", "5,60,0",
                     "--worst-case"]) == 0

    def test_library_dir(self, golden_file, tmp_path, capsys):
        lib = tmp_path / "lib"
        lib.mkdir()
        for i in range(5):
            (lib / f"file{i}.bin").write_bytes(bytes([i]) * 30)
        assert main(["simulate", str(golden_file), "--library", str(lib),
                     "--worst-case"]) == 0

    def test_needs_library(self, golden_file, capsys):
        assert main(["simulate", str(golden_file), "--demands", "1,1,1,1,1"]) == 2
        capsys.readouterr()
        assert main(["simulate", str(golden_file), "--synthetic", "5,60",
                     "--demands", "1,1,1,1,1"]) == 2
        assert capsys.readouterr().err.startswith("error: bad --synthetic")

    def test_needs_demands(self, golden_file, capsys):
        assert main(["simulate", str(golden_file), "--synthetic", "5,60,0"]) == 2
        capsys.readouterr()
        assert main(["simulate", str(golden_file), "--synthetic", "5,60,0",
                     "--demands", "1,a,1,1,1"]) == 2
        assert capsys.readouterr().err.startswith("error: bad --demands")

    @pytest.mark.parametrize("size", ["-1", "99999999999999"])
    def test_synthetic_size_out_of_range(self, golden_file, capsys, size):
        # refused before any file is generated
        assert main(["simulate", str(golden_file), "--synthetic", f"5,{size},1",
                     "--worst-case"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: synthetic file size B={size} not in [0, 268435456)")
        assert len(err.splitlines()) == 1

    def test_worst_case_needs_enough_files(self, golden_file, capsys):
        assert main(["simulate", str(golden_file), "--synthetic", "3,60,0",
                     "--worst-case"]) == 2


@pytest.mark.usefixtures("odd_gc_state")
class TestGcScope:
    """``main`` runs its command at ``GC_THRESHOLD`` and gives back the
    caller's thresholds and enabled flag however the command ends."""

    def assert_restored(self):
        assert gc.get_threshold() == ODD_GC_THRESHOLD
        assert not gc.isenabled()

    def test_exit_0(self, golden_file, capsys):
        assert main(["verify", str(golden_file)]) == 0
        self.assert_restored()

    def test_exit_2(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "missing.sppda")]) == 2
        self.assert_restored()

    def test_unexpected_exception(self, golden_file, monkeypatch):
        seen = []

        def crash(args):
            seen.append(gc.get_threshold())
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "cmd_verify", crash)
        with pytest.raises(RuntimeError, match="unexpected"):
            main(["verify", str(golden_file)])
        assert seen == [(cli.GC_THRESHOLD, *ODD_GC_THRESHOLD[1:])]
        self.assert_restored()


class TestSearch:
    def test_exhaustive_csv(self, tmp_path, capsys):
        p1 = tmp_path / "p1.pda"
        p1.write_text(write_pda(PdaArray.from_grid(WIDE_P1)))
        p2 = tmp_path / "p2.pda"
        p2.write_text(write_pda(PdaArray.from_grid(WIDE_P2)))
        out = tmp_path / "pairs.csv"
        assert main(["search", str(p1), str(p2), "--profile", "6,3,2,1,1,1",
                     "--top", "3", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "pi1,pi2,S"
        assert len(lines) == 6
        assert lines[1].endswith(",18")
        assert lines[-2] == "s_min,,18"
        assert lines[-1] == "s_max,,24"
        # --top 0 prints only the extremes
        capsys.readouterr()
        assert main(["search", "man:14,2", "man:3,1", "--profile",
                     "3,3,3,2,2,2,2,1,1,1,1,1,1,1", "--top", "0"]) == 0
        assert capsys.readouterr().out == "pi1,pi2,S\ns_min,,1057\ns_max,,1057\n"
        # the default class list is within the default budget at K1 = 14 too
        assert main(["search", "man:14,2", "man:3,1", "--profile",
                     "3,3,3,2,2,2,2,1,1,1,1,1,1,1"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",1057")
        # and at K1 = 16
        assert main(["search", "man:16,2", "man:3,1", "--profile",
                     "3,3,3,2,2,2,2,1,1,1,1,1,1,1,1,1"]) == 0
        assert capsys.readouterr().out.splitlines()[-2] == "s_min,,1596"
        assert main(["search", str(p1), str(p2), "--profile", "6,3,2,1,1,1", "--top", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_one_search_matches_the_separate_calls(self, tmp_path, capsys, seed):
        # at every --top from 0 to past the class pairs: the pairs of top_pairs and
        # the extremes of exhaustive_best, though the command runs one search;
        # redrawn until there are 3 to 60 class pairs, so --top 2 and up walk classes
        rng = random.Random(seed)
        while True:
            p1, p2 = random_pda(rng, max_cols=8, max_rows=20), random_pda(rng, max_cols=8, max_rows=20)
            profile = random_profile(rng, p1.k, p2.k)
            everything = permsearch.top_pairs(p1, p2, profile, limit=10 ** 6)
            if 3 <= len(everything) <= 60:
                break
        (tmp_path / "p1.pda").write_text(write_pda(p1))
        (tmp_path / "p2.pda").write_text(write_pda(p2))
        result = permsearch.exhaustive_best(p1, p2, profile)
        for top in range(len(everything) + 2):
            assert main(["search", str(tmp_path / "p1.pda"), str(tmp_path / "p2.pda"), "--profile",
                         ",".join(map(str, profile.parts)), "--top", str(top)]) == 0
            rows = [f"{' '.join(str(x + 1) for x in pair.pi1)},{' '.join(str(x + 1) for x in pair.pi2)},"
                    f"{pair.s_value}" for pair in permsearch.top_pairs(p1, p2, profile, limit=top)]
            assert capsys.readouterr().out == "\n".join(
                ["pi1,pi2,S", *rows, f"s_min,,{result.s_min}", f"s_max,,{result.s_max}", ""])

    @pytest.mark.parametrize("top", ["0", "1", "3"])
    def test_tables_built_once(self, monkeypatch, capsys, top):
        # one phi table per array, whichever pairs are printed
        calls = []

        def counted(pda, steps):
            calls.append(pda.k)
            return subset_phi(pda, steps)

        subset_phi = permsearch._subset_phi
        monkeypatch.setattr(permsearch, "_subset_phi", counted)
        assert main(["search", "consa:3,2", "man:3,1", "--profile", "3,3,2,2,1,1,1,1,1",
                     "--top", top]) == 0
        assert calls == [3, 9]

    def test_one_budget(self, tmp_path, capsys):
        # 2997 steps: exhaustive_best's 2411 (test_permsearch's
        # test_budget_counts_dp_transitions), then top_pairs' own 586 on the same
        # tables, the 78 subsets its best-first walk expands and 508 to place
        # the three pairs' orders; the two 384-step phi tables and the 150
        # subsets of p2's class walk are counted once, not again for top_pairs
        p1 = tmp_path / "p1.pda"
        p1.write_text(write_pda(PdaArray.from_grid(WIDE_P1)))
        p2 = tmp_path / "p2.pda"
        p2.write_text(write_pda(PdaArray.from_grid(WIDE_P2)))
        argv = ["search", str(p1), str(p2), "--profile", "6,3,2,1,1,1", "--top", "3"]
        assert main([*argv, "--budget", "2997"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == ["s_min,,18", "s_max,,24"]
        assert main([*argv, "--budget", "2996"]) == 2
        assert capsys.readouterr().err.endswith(" 2997 steps, over the budget of 2996\n")

    def test_negative_top(self, capsys):
        # refused before any step, so not reported as the budget it would pass
        assert main(["search", "man:4,1", "man:3,1", "--profile", "3,2,2,1",
                     "--top", "-1", "--budget", "0"]) == 2
        assert capsys.readouterr().err == "error: top_pairs limit must be >= 0, got -1\n"

    def test_greedy(self, capsys):
        assert main(["search", "man:3,1", "man:3,1", "--profile", "3,2,1",
                     "--greedy"]) == 0
        assert "greedy: S" in capsys.readouterr().out
        # a group wider than the second array
        assert main(["search", "man:2,1", "man:2,1", "--profile", "3,2", "--greedy"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_budget_exceeded(self, capsys):
        assert main(["search", "man:8,1", "man:8,1",
                     "--profile", "8,1,1,1,1,1,1,1", "--budget", "100"]) == 2

    def test_negative_budget(self, capsys):
        # refused up front, before any step is counted against it
        for extra in ([], ["--top", "0"]):
            assert main(["search", "man:4,1", "man:3,1", "--profile", "3,2,2,1",
                         "--budget", "-3", *extra]) == 2
            assert capsys.readouterr().err == "error: search budget must be >= 0, got -3\n"


class TestSweep:
    def test_uniform_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--profile", "3,3,3,3,3,3,3,3", "--mh-ratio", "1/2",
                     "--t2", "1:2", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("scheme,t2,")
        assert len(lines) == 5

    def test_single_scheme(self, capsys):
        assert main(["sweep", "--profile", "3,3,3,3,3,3,3,3", "--mh-ratio", "1/2",
                     "--t2", "1:1", "--schemes", "man"]) == 0
        out = capsys.readouterr().out
        assert "man_pair" in out and "construction_a" not in out

    def test_unrealizable(self, capsys):
        assert main(["sweep", "--profile", "3,3,3", "--mh-ratio", "1/2",
                     "--t2", "1:1", "--schemes", "consa"]) == 2
        for t2, mh in (("1", "1/2"), ("1:x", "1/2"), ("1:1", "1/0"), ("1:1", "half")):
            capsys.readouterr()
            assert main(["sweep", "--profile", "3,3,3,3", "--mh-ratio", mh, "--t2", t2]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        # a reversed t2 range and a negative cap would sweep or verify nothing
        for option, value in (("--t2", "2:1"), ("--verify-cap", "-5")):
            capsys.readouterr()
            assert main(["sweep", "--profile", "3,3,3,3", "--mh-ratio", "1/2", option, value]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert option in err

    @pytest.mark.parametrize("schemes", ["man,man", "man,man_pair", "consa,man,construction_a_pair"])
    def test_repeated_scheme(self, capsys, schemes):
        assert main(["sweep", "--profile", "3,3,3,3", "--mh-ratio", "1/2",
                     "--schemes", schemes]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: scheme ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["construct", "man:2,1", "man:3,1"],
    ["search", "man:4,1", "man:3,1"],
    ["sweep", "--mh-ratio", "1/2"],
    ["formulas", "man", "--t1", "1", "--t2", "1"],
])
@pytest.mark.parametrize("profile", ["3,x", "", " , "])
def test_bad_profile(capsys, command, profile):
    assert main([*command, "--profile", profile]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad --profile ") and err.count("\n") == 1


@pytest.mark.parametrize("profile", ["3,2", "3 2", "3, 2", " 3,,2 "])
def test_profile_separators(capsys, profile):
    assert main(["formulas", "man", "--profile", profile, "--t1", "1", "--t2", "1"]) == 0
    assert "S = 3" in capsys.readouterr().out


class TestFormulas:
    def test_man(self, capsys):
        assert main(["formulas", "man", "--profile", "3,2", "--t1", "1",
                     "--t2", "1"]) == 0
        out = capsys.readouterr().out
        assert "S = 3" in out and "rate = 1/2" in out

    def test_consa(self, capsys):
        assert main(["formulas", "consa", "--profile", "2,2,1,1", "--q", "2",
                     "--m", "1", "--t2", "1"]) == 0
        out = capsys.readouterr().out
        assert "S = 2" in out and "rate = 1/2" in out

    def test_consa_needs_q_and_m(self, capsys):
        assert main(["formulas", "consa", "--profile", "2,2,1,1", "--t2", "1"]) == 2
        capsys.readouterr()
        assert main(["formulas", "man", "--profile", "3,2", "--t2", "1"]) == 2
        assert capsys.readouterr().err == "error: man formulas need --t1\n"

    @pytest.mark.parametrize("argv", [
        ["man", "--profile", "0,0", "--t1", "1", "--t2", "0"],
        ["consa", "--profile", "0,0,0,0", "--q", "2", "--m", "1", "--t2", "0"]])
    def test_profile_without_users_refused(self, capsys, argv):
        # the second array would be MaN(0, 0): refused naming the profile, as sweep does
        assert main(["formulas", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: profile {argv[2]} has no users: "
                                "its largest group L_1 is empty\n")


# sha256 of the skewed reference network's F=8400 array, MaN(8,4) x MaN(10,3)
# with profile 10,4,2,2,2,2,1,1, as text and as JSON, and of its transmission
# log for 24 synthetic files of 16384 bytes (seed 7) at the worst-case demands
SKEWED_DIGESTS = {
    "text": "99e0d56943188c13aa9f9991d223c884752441f494cff9876123a29614a55eb8",
    "json": "4a98a6e5affa7f8a441e55b82cfe41bf4f0c7ebe09cef976e60397e8d3ff1418",
    "log": "93691f999451a588ba423a8619a87b6d9ea786f32530936d7193c7959370401b",
}


def test_skewed_f8400_bytes_are_pinned(tmp_path, capsys):
    construct = ["construct", "man:8,4", "man:10,3", "--profile", "10,4,2,2,2,2,1,1"]
    text, doc, log = (tmp_path / name for name in ("skewed.sppda", "skewed.json", "skewed.log"))
    assert main([*construct, "-o", str(text)]) == 0
    assert main([*construct, "--json", "-o", str(doc)]) == 0
    assert main(["simulate", str(text), "--synthetic", "24,16384,7", "--worst-case",
                 "--log", str(log)]) == 0
    assert "all_decoded: yes" in capsys.readouterr().out
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in (("text", text), ("json", doc), ("log", log))} == SKEWED_DIGESTS


def test_constructed_file_parses_back(golden_file):
    sp = parse_sppda(golden_file.read_text())
    assert sp.pda.s == 3


def _mutated_documents(rng: random.Random) -> tuple[str, str]:
    """A random valid SP-PDA written as text and as JSON, with one random
    change to its header, Z^(h) or profile made to both."""
    p1 = random_pda(rng, max_cols=4, max_rows=6)
    p2 = random_pda(rng, max_cols=4, max_rows=6)
    sp = construct_sppda(p1, p2, random_profile(rng, p1.k, p2.k))
    header = [sp.pda.k, sp.profile.num_groups, sp.pda.f, sp.pda.z, sp.helper_stars, sp.pda.s]
    profile = list(sp.profile.parts)
    change = rng.choice(("none", "header", "zh", "profile", "regroup"))
    if change == "header":
        header[rng.randrange(len(header))] += rng.choice((-1, 1, 2))
    elif change == "zh":
        header[4] = rng.randint(0, sp.pda.f)
    elif change == "profile":
        profile[rng.randrange(len(profile))] += rng.choice((-1, 1))
    elif change == "regroup":
        cuts = sorted(rng.sample(range(1, sp.pda.k), rng.randint(0, sp.pda.k - 1)))
        profile = sorted((b - a for a, b in zip([0, *cuts], [*cuts, sp.pda.k])), reverse=True)
        header[1] = len(profile)
    lines = write_sppda(sp).splitlines()
    lines[0] = "sppda " + " ".join(map(str, header))
    lines[1] = "L: " + " ".join(map(str, profile))
    doc = json.loads(sppda_to_json(sp))
    doc.update(zip(("k", "num_helpers", "f", "z", "zh", "s"), header), profile=profile)
    return "\n".join(lines) + "\n", json.dumps(doc)


def _outcome(load, text):
    try:
        return load(text)
    except PdaError as exc:
        return type(exc), str(exc)


def test_verify_text_and_json_loaders_agree(tmp_path, capsys):
    rng = random.Random(20261017)
    loaded = 0
    for _ in range(150):
        text, doc = _mutated_documents(rng)
        from_text = _outcome(parse_sppda, text)
        assert _outcome(parse_sppda, doc) == from_text
        runs = []
        for path, content in ((tmp_path / "array.sppda", text), (tmp_path / "array.json", doc)):
            path.write_text(content)
            runs.append((main(["verify", str(path)]), capsys.readouterr()))
        assert runs[0] == runs[1]
        assert (runs[0][0] == 0) == (not isinstance(from_text, tuple))
        loaded += not isinstance(from_text, tuple)
    assert 30 < loaded < 120


_GOLDEN = GOLDEN_SP_TEXT.encode()


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.builds(lambda i, j, insert: _GOLDEN[:i] + insert + _GOLDEN[j:],
              st.integers(0, len(_GOLDEN)), st.integers(0, len(_GOLDEN)),
              st.binary(max_size=8))))
def test_arbitrary_bytes_never_raise(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.sppda"
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["verify", str(path)]) in (0, 1, 2)
            assert main(["simulate", str(path), "--synthetic", "5,60,0",
                         "--worst-case"]) in (0, 1, 2)


_LEDGER_SCRIPT = load_script("cli_ledger")


@pytest.mark.parametrize("session", json.loads(_LEDGER_SCRIPT.LEDGER.read_text())["sessions"],
                         ids=lambda session: session["name"])
def test_cli_transcript(session, tmp_path):
    """Replaying a session of tests/cli_transcripts.json through ``main``
    reproduces its exit codes, stdout, stderr and written files byte for
    byte.  ``scripts/cli_ledger.py --write`` re-records the ledger."""
    commands = [run["argv"] for run in session["runs"]]
    replay = _LEDGER_SCRIPT.transcript(session["name"], session["inputs"], commands,
                                       tmp_path / "session")
    assert replay == session
