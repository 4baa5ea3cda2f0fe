#!/usr/bin/env python3
"""Record the CLI transcript ledger, ``tests/cli_transcripts.json``.

The ledger pins the bytes the command line produces.  Each session starts in
a fresh directory holding its input files and runs its commands there, in
order, through ``sppda.cli.main``, so a later command may read what an
earlier one wrote.  Per command the ledger keeps the argv, the exit code,
stdout, stderr, and each file the command wrote or changed.  Text under 4 KB
is kept verbatim, longer text as its SHA-256 and byte length.

    PYTHONPATH=src python3 scripts/cli_ledger.py --write   # rewrite the ledger
    PYTHONPATH=src python3 scripts/cli_ledger.py           # print it instead

``tests/test_cli.py::test_cli_transcript`` replays the ledger the same way.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from sppda import cli

LEDGER = Path(__file__).resolve().parents[1] / "tests" / "cli_transcripts.json"
VERBATIM_BYTES = 4096

GOLDEN = "sppda 5 2 6 4 3 3\nL: 3 2\npi: id\n"
GOLDEN_GRID = "* * * * 1\n* * * 1 *\n* * * 2 3\n* 1 2 * *\n1 * 3 * *\n2 3 * * *\n"
GOLDEN_JSON_ROWS = ["****1", "***1*", "***23", "*12**", "1*3**", "23***"]


def _golden_json(**changes) -> str:
    doc = {"type": "sppda", "k": 5, "num_helpers": 2, "f": 6, "z": 4, "zh": 3, "s": 3,
           "profile": [3, 2], "pi": "id", "grid": [list(row) for row in GOLDEN_JSON_ROWS]}
    doc.update(changes)
    return json.dumps(doc, indent=2) + "\n"


GOLDEN_SIM = ["--synthetic", "5,60,0", "--worst-case"]
SKEWED = ["man:8,4", "man:10,3", "--profile", "10,4,2,2,2,2,1,1"]
SEARCH = ["--profile", "3,2,2,1"]
EDGE7 = ("pda 7 14 4 34\n"
         "* 1 * 2 3 4 5\n* 6 3 7 * 8 9\n* 10 4 11 8 * 12\n* 13 5 14 9 12 *\n"
         "1 * * 15 16 17 18\n6 * 16 19 * 20 21\n10 * 17 22 20 * 23\n13 * 18 24 21 23 *\n"
         "2 15 * * 25 26 27\n5 18 * 27 28 29 *\n7 19 25 * * 30 31\n11 22 26 * 30 * 32\n"
         "14 24 27 * 31 32 *\n8 20 33 30 * * 34\n")

# (name, input files, argv of each command)
SESSIONS = [
    ("golden", {}, [
        ["construct", "man:2,1", "man:3,1", "--profile", "3,2"],
        ["construct", "man:2,1", "man:3,1", "--profile", "3,2", "-o", "golden.sppda"],
        ["construct", "man:2,1", "man:3,1", "--profile", "3,2", "--json", "-o", "golden.json"],
        ["verify", "golden.sppda"],
        ["verify", "golden.json"],
        ["simulate", "golden.json", *GOLDEN_SIM, "--log", "tx.log"],
    ]),
    ("skewed-large", {}, [
        ["construct", *SKEWED, "-o", "skewed.sppda"],
        ["construct", *SKEWED, "--json", "-o", "skewed.json"],
        ["verify", "skewed.sppda"],
        ["verify", "skewed.json"],
        ["simulate", "skewed.sppda", "--synthetic", "24,16384,7", "--worst-case",
         "--log", "tx.log"],
    ]),
    ("c3-broken", {"broken.pda": "pda 2 2 0 1\n1 2\n2 1\n"}, [
        ["verify", "broken.pda"],
        ["simulate", "broken.pda", "--synthetic", "2,60,0", "--worst-case"],
    ]),
    ("violation-cap", {
        "exact.txt": "101\n",
        "huge.txt": "1000000000\n",
        "ones.txt": "1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1\n" * 16,
        "huge.sppda": "sppda 1 1 1 0 0 1\nL: 1\npi: id\n1000000000\n",
    }, [
        ["verify", "exact.txt"],
        ["verify", "huge.txt"],
        ["verify", "ones.txt"],
        ["verify", "huge.sppda"],
        ["simulate", "huge.sppda", "--synthetic", "1,60,0", "--worst-case"],
    ]),
    ("golden-variants", {
        "zh5.sppda": GOLDEN.replace(" 4 3 3", " 4 5 3") + GOLDEN_GRID,
        "zh7.sppda": GOLDEN.replace(" 4 3 3", " 4 7 3") + GOLDEN_GRID,
        "s99.sppda": GOLDEN.replace(" 3 3\n", " 3 99\n") + GOLDEN_GRID,
        "l33.sppda": GOLDEN.replace("L: 3 2", "L: 3 3") + GOLDEN_GRID,
        "pi12345.sppda": GOLDEN.replace("pi: id", "pi: 1 2 3 4 5") + GOLDEN_GRID,
        "pi13524.sppda": GOLDEN.replace("pi: id", "pi: 1 3 5 2 4") + GOLDEN_GRID,
        "pi13524-zh1.sppda": GOLDEN.replace(" 4 3 3", " 4 1 3").replace("pi: id", "pi: 1 3 5 2 4")
        + GOLDEN_GRID,
    }, [
        ["verify", "zh5.sppda"],
        ["simulate", "zh5.sppda", *GOLDEN_SIM],
        ["verify", "zh7.sppda"],
        ["verify", "s99.sppda"],
        ["verify", "l33.sppda"],
        ["verify", "pi12345.sppda"],
        ["verify", "pi13524.sppda"],
        ["simulate", "pi13524.sppda", *GOLDEN_SIM],
        ["verify", "pi13524-zh1.sppda"],
        ["simulate", "pi13524-zh1.sppda", *GOLDEN_SIM, "--log", "tx.log"],
    ]),
    ("small-documents", {
        "short.sppda": "sppda 2 1 2 0 0 1\nL: 3\npi: id\n1 1\n2 2\n",
        "header.pda": "pda 3 3 1 99\n* 1 2\n1 * 3\n2 3 *\n",
        "bare.txt": "1 1\n* *\n",
    }, [
        ["verify", "short.sppda"],
        ["verify", "header.pda"],
        ["verify", "bare.txt"],
    ]),
    ("negative-entry", {
        "negative.pda": "pda 3 3 1 3\n* 1 -2\n1 * 3\n-2 -3 *\n",
        "negative.txt": "1 2\n2 -1\n",
    }, [
        ["verify", "negative.pda"],
        ["verify", "negative.txt"],
    ]),
    ("sweep", {}, [
        ["sweep", "--profile", "3,3,3,3,3,3,3,3", "--mh-ratio", "1/2"],
        ["sweep", "--profile", "10,4,2,2,2,2,1,1", "--mh-ratio", "1/4"],
        ["sweep", "--profile", ",".join(["4"] * 16), "--mh-ratio", "1/2"],
    ]),
    ("sweep-empty-inputs", {}, [
        ["sweep", "--profile", "3,3,3,3", "--mh-ratio", "1/2", "--t2", "2:1"],
        ["sweep", "--profile", "3,3,3,3", "--mh-ratio", "1/2", "--verify-cap", "-5"],
        ["sweep", "--profile", "0,0,0,0", "--mh-ratio", "1/2"],
    ]),
    ("search", {}, [
        ["search", "man:4,1", "man:3,1", *SEARCH],
        ["search", "man:4,1", "man:3,1", *SEARCH, "--greedy"],
        ["search", "consa:2,1", "man:3,1", *SEARCH],
        ["search", "consa:2,1", "man:3,1", *SEARCH, "--greedy"],
        ["search", "man:4,1", "man:3,1", *SEARCH, "--budget", "-3"],
    ]),
    # the 20 smallest of this pairing's 36 class pairs tie at S = 51, so both cuts fall in a tie;
    # --top 0 prints only the extremes; under equal parts every class ties, and
    # --top 1 prints the extremes' best pair
    ("search-ties", {}, [
        ["search", "consa:3,2", "man:3,1", "--profile", "3,3,2,2,1,1,1,1,1"],
        ["search", "consa:3,2", "man:3,1", "--profile", "3,3,2,2,1,1,1,1,1", "--top", "3"],
        ["search", "consa:3,2", "man:3,1", "--profile", "3,3,2,2,1,1,1,1,1", "--top", "0"],
        ["search", "consa:3,2", "man:3,1", "--profile", ",".join(["3"] * 9), "--top", "1"],
    ]),
    # a 7-column first array with one row per edge of a graph, under a profile where no
    # chain passes a least- or largest-phi subset at every weighted width, so both
    # extremes take the subset DP and pi1 its tight steps (tests/test_permsearch.py's
    # FALLBACKS[0])
    ("search-fallback", {"edge7.pda": EDGE7}, [
        ["search", "edge7.pda", "man:4,0", "--profile", "4,4,4,3,2,2,1", "--top", top]
        for top in ("0", "1", "3")
    ]),
    ("formulas", {}, [
        ["formulas", "man", "--profile", "3,2", "--t1", "1", "--t2", "1"],
        ["formulas", "consa", "--profile", "2,2,1,1", "--q", "2", "--m", "1", "--t2", "1"],
    ]),
    ("formulas-empty-profile", {}, [
        ["formulas", "man", "--profile", "0,0", "--t1", "1", "--t2", "0"],
        ["formulas", "consa", "--profile", "0,0,0,0", "--q", "2", "--m", "1", "--t2", "0"],
    ]),
    ("bad-profile", {}, [
        ["construct", "man:2,1", "man:3,1", "--profile", "3,x"],
        ["search", "man:4,1", "man:3,1", "--profile", ""],
        ["sweep", "--profile", "3 3,x", "--mh-ratio", "1/2"],
        ["formulas", "man", "--profile", "3,x", "--t1", "1", "--t2", "1"],
        ["formulas", "man", "--profile", "3 2", "--t1", "1", "--t2", "1"],
    ]),
    ("json-strings-for-lists", {
        "grid.json": '{"type": "pda", "k": 1, "f": 2, "z": 0, "s": 2, "grid": "12"}\n',
        "rows.json": _golden_json(grid=GOLDEN_JSON_ROWS, profile="32"),
        "profile.json": _golden_json(profile="32"),
        "pi.json": _golden_json(pi="12345"),
    }, [
        ["verify", "grid.json"],
        ["verify", "rows.json"],
        ["simulate", "rows.json", *GOLDEN_SIM],
        ["verify", "profile.json"],
        ["verify", "pi.json"],
    ]),
    ("json-header-types", {
        "strings.json": '{"type": "pda", "k": "1", "f": " 2", "z": "0", "s": "2", "grid": [["1"], ["2"]]}\n',
        "bool.json": '{"type": "pda", "k": true, "f": 2, "z": 0, "s": 2, "grid": [["1"], ["2"]]}\n',
        "float.json": '{"type": "pda", "k": 1, "f": 2.0, "z": 0, "s": 2, "grid": [["1"], ["2"]]}\n',
        "int-tokens.json": '{"type": "pda", "k": 1, "f": 2, "z": 0, "s": 2, "grid": [[1], [2]]}\n',
        "zh.json": _golden_json(zh="3"),
    }, [
        ["verify", "strings.json"],
        ["verify", "bool.json"],
        ["verify", "float.json"],
        ["verify", "int-tokens.json"],
        ["verify", "zh.json"],
        ["simulate", "zh.json", *GOLDEN_SIM],
    ]),
]


def _kept(text: str):
    """``text`` itself under VERBATIM_BYTES bytes, otherwise its digest."""
    data = text.encode()
    if len(data) < VERBATIM_BYTES:
        return text
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir() if path.is_file()}


def transcript(name: str, inputs: dict[str, str], commands, directory: Path) -> dict:
    """Run ``commands`` in ``directory`` (created, and seeded with ``inputs``)
    and return the session's ledger entry."""
    directory.mkdir(parents=True)
    for file, text in inputs.items():
        (directory / file).write_text(text)
    runs = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in commands:
            before = _snapshot(directory)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            written = {file: _kept(data.decode()) for file, data in sorted(_snapshot(directory).items())
                       if before.get(file) != data}
            runs.append({"argv": list(argv), "exit": code, "stdout": _kept(out.getvalue()),
                         "stderr": _kept(err.getvalue()), "files": written})
    finally:
        os.chdir(cwd)
    return {"name": name, "inputs": dict(inputs), "runs": runs}


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {"sessions": [transcript(name, inputs, commands, Path(tmp) / name)
                             for name, inputs, commands in SESSIONS]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {LEDGER.name} instead of printing the ledger")
    args = parser.parse_args(argv)
    text = json.dumps(record(), indent=1) + "\n"
    if args.write:
        LEDGER.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
