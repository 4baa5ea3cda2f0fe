"""Text and JSON serialization round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import json
import time

from sppda import textio
from sppda.arrays import (
    AssociationProfile,
    InvalidPdaError,
    PdaArray,
    man_pda,
    permute_columns,
    verify_pda,
)
from sppda.construct import SpPdaArray, construct_sppda, verify_sppda
from sppda.textio import (
    ConditionError,
    FormatError,
    parse_pda,
    parse_sppda,
    pda_to_json,
    read_array,
    sppda_to_json,
    write_pda,
    write_sppda,
)

import grid_oracle
import textio_oracle as oracle
from conftest import GOLDEN_SP, GOLDEN_SP_TEXT, grid, random_pda, random_profile


@pytest.fixture
def golden_sp():
    return construct_sppda(man_pda(2, 1), man_pda(3, 1), AssociationProfile((3, 2)))


class TestPdaText:
    def test_write_golden(self):
        text = write_pda(man_pda(3, 1))
        assert text == "pda 3 3 1 3\n* 1 2\n1 * 3\n2 3 *\n"

    def test_roundtrip_is_byte_identical(self):
        for pda in (man_pda(3, 1), man_pda(5, 2), PdaArray.from_grid(GOLDEN_SP)):
            text = write_pda(pda)
            assert write_pda(parse_pda(text)) == text

    def test_header_cross_checked(self):
        with pytest.raises(FormatError):
            parse_pda("pda 3 3 1 4\n* 1 2\n1 * 3\n2 3 *\n")

    def test_invalid_grid_rejected(self):
        with pytest.raises(InvalidPdaError):
            parse_pda("pda 2 2 0 1\n1 1\n2 2\n")

    def test_bad_token(self):
        with pytest.raises(FormatError):
            grid("* 1 x\n")

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_pda("* 1\n1 *\n")
        with pytest.raises(FormatError):
            parse_pda("")

    def test_blank_lines_ignored(self):
        assert grid("\n* 1\n\n1 *\n\n") == ((0, 1), (1, 0))


class TestSpPdaText:
    def test_write_golden(self, golden_sp):
        assert write_sppda(golden_sp) == GOLDEN_SP_TEXT

    def test_roundtrip_is_byte_identical(self, golden_sp):
        text = write_sppda(golden_sp)
        assert write_sppda(parse_sppda(text)) == text

    def test_roundtrip_with_explicit_witness(self):
        perm = (0, 2, 4, 1, 3)
        scrambled = permute_columns(PdaArray.from_grid(GOLDEN_SP), perm)
        profile = AssociationProfile((3, 2))
        # scrambled column j is GOLDEN_SP's column perm.index(j): its grouped position
        grouping = tuple(perm.index(j) for j in range(len(perm)))
        sp = SpPdaArray(scrambled, profile, 3, grouping)
        text = write_sppda(sp)
        assert "pi: " in text and "pi: id" not in text
        back = parse_sppda(text)
        assert back == sp
        assert write_sppda(back) == text

    def test_header_cross_checked(self, golden_sp):
        text = write_sppda(golden_sp).replace("sppda 5 2 6 4 3 3", "sppda 5 2 6 4 3 4")
        with pytest.raises(FormatError):
            parse_sppda(text)

    def test_d2_failure_rejected(self, golden_sp):
        text = write_sppda(golden_sp).replace("sppda 5 2 6 4 3 3", "sppda 5 2 6 4 4 3")
        with pytest.raises(FormatError, match="D2"):
            parse_sppda(text)

    def test_invalid_pda_rejected(self):
        with pytest.raises(InvalidPdaError):
            parse_sppda("sppda 2 1 2 0 0 1\nL: 2\npi: id\n1 1\n2 2\n")

    def test_missing_sections(self):
        with pytest.raises(FormatError):
            parse_sppda("sppda 5 2 6 4 3 3\n* 1\n")


class TestJson:
    def test_pda_roundtrip(self):
        pda = man_pda(4, 2)
        assert parse_pda(pda_to_json(pda)) == pda
        assert read_array(pda_to_json(pda)) == pda

    def test_sppda_roundtrip(self, golden_sp):
        assert parse_sppda(sppda_to_json(golden_sp)) == golden_sp
        assert read_array(" \n" + sppda_to_json(golden_sp)) == golden_sp

    def test_wrong_document_type(self, golden_sp):
        with pytest.raises(FormatError, match="not of type 'pda'$"):
            parse_pda(sppda_to_json(golden_sp))
        with pytest.raises(FormatError, match="not of type 'sppda'$"):
            parse_sppda(pda_to_json(man_pda(3, 1)))
        for doc in ('{"type": "grid"}', '{"type": []}', "{}"):
            with pytest.raises(FormatError, match="not of type 'pda' or 'sppda'$"):
                read_array(doc)

    def test_malformed_json(self):
        for doc in ("{", "{" * 100000, '{"type": "pda", "k": 1}'):
            with pytest.raises(FormatError):
                read_array(doc)

    def test_pda_json_params_cross_checked(self):
        text = pda_to_json(man_pda(3, 1)).replace('"s": 3', '"s": 7')
        with pytest.raises(FormatError):
            parse_pda(text)

    def test_sppda_json_enforces_d2(self, golden_sp):
        text = sppda_to_json(golden_sp).replace('"zh": 3', '"zh": 4')
        with pytest.raises(FormatError, match="D2"):
            parse_sppda(text)

    def test_sppda_json_header_cross_checked(self, golden_sp):
        text = sppda_to_json(golden_sp).replace('"s": 3', '"s": 99')
        with pytest.raises(FormatError, match="header"):
            read_array(text)

    def test_string_for_list_refused(self, golden_sp):
        # read one character at a time, each string would pass as the list
        doc = json.loads(sppda_to_json(golden_sp))
        for bad, what in (({"type": "pda", "k": 1, "f": 2, "z": 0, "s": 2, "grid": "12"}, "grid"),
                          ({**doc, "grid": ["".join(row) for row in doc["grid"]]}, "grid row"),
                          ({**doc, "profile": "32"}, "profile"),
                          ({**doc, "pi": "12345"}, "pi")):
            with pytest.raises(FormatError, match=f"'{what} is str, not a list'"):
                read_array(json.dumps(bad))
        assert read_array(json.dumps({**doc, "pi": [1, 2, 3, 4, 5]})).helpers == (1, 1, 1, 2, 2)

    def test_header_values_are_json_integers(self, golden_sp):
        # the writer writes integers; a string, bool, float or null is refused,
        # while grid tokens may still be strings or integers
        doc = json.loads(sppda_to_json(golden_sp))
        for key, value, shown in (("k", "5", '"5"'), ("f", " 6", '" 6"'), ("zh", True, "true"),
                                  ("s", 3.0, "3.0"), ("num_helpers", None, "null")):
            with pytest.raises(FormatError, match=f"^bad json sppda header: {key} is {shown}, "
                                                  "expected an integer$"):
                read_array(json.dumps({**doc, key: value}))
        pda = {"type": "pda", "k": 1, "f": 2, "z": 0, "s": 2, "grid": [[1], ["2"]]}
        assert read_array(json.dumps(pda)) == PdaArray(((1,), (2,)))



def _sppda_documents(rng):
    """A random small SP-PDA document as text and as JSON, and its grid,
    profile, Z^(h) and grouping.  The grid is a construction's, with a cell
    overwritten a third of the time; Z^(h) is the construction's, one more,
    or random, and the grouping random half of the time.  The header holds
    the grid's own width, height, first-column stars and distinct codes."""
    p1 = random_pda(rng, max_cols=3, max_rows=6)
    p2 = random_pda(rng, max_cols=3, max_rows=6)
    profile = random_profile(rng, p1.k, p2.k)
    sp = construct_sppda(p1, p2, profile)
    rows = [list(row) for row in sp.pda.grid]
    if rng.random() < 1 / 3:
        rows[rng.randrange(sp.pda.f)][rng.randrange(sp.pda.k)] = rng.randint(0, sp.pda.s)
    grid = tuple(map(tuple, rows))
    k, f, z, s = grid_oracle.params(grid)
    zh = min(f, rng.choice((sp.helper_stars, sp.helper_stars + 1, rng.randint(0, f))))
    grouping = rng.choice((None, tuple(rng.sample(range(k), k))))
    pi = "id" if grouping is None else " ".join(str(x + 1) for x in grouping)
    lines = textio._grid_lines(grid, sp.pda.s)  # the mutation writes codes 0..S
    text = "\n".join([f"sppda {k} {profile.num_groups} {f} {z} {zh} {s}",
                      "L: " + " ".join(map(str, profile.parts)), f"pi: {pi}", *lines]) + "\n"
    doc = json.dumps({"type": "sppda", "k": k, "num_helpers": profile.num_groups, "f": f,
                      "z": z, "zh": zh, "s": s, "profile": list(profile.parts),
                      "pi": "id" if grouping is None else [x + 1 for x in grouping],
                      "grid": [line.split() for line in lines]})
    return (text, doc), grid, profile, zh, grouping


class TestLoaderMatchesVerify:
    """The loader builds the arrays itself, so nothing but this test keeps
    its verdicts in step with ``verify_pda`` and ``verify_sppda``."""

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_documents(self, rng):
        documents, grid, profile, zh, grouping = _sppda_documents(rng)
        violations = verify_pda(grid)
        failures = () if violations else verify_sppda(grid, profile, zh, grouping)
        for document in documents:
            if violations:
                with pytest.raises(InvalidPdaError) as info:
                    read_array(document)
                assert info.value.violations == violations
            elif failures:
                with pytest.raises(ConditionError) as info:
                    read_array(document)
                assert info.value.violations == tuple(map(str, failures))
            else:
                assert read_array(document) == SpPdaArray(PdaArray(grid), profile, zh, grouping)


# tokens int() reads in surprising ways (signs, zero padding, underscores,
# non-ASCII digits), tokens it refuses, and codes past a machine word
TOKENS = st.one_of(
    st.sampled_from(["*", "**", "007", "+3", "1_0", "_1", "1__0", "-1", "0", "x", "\u0663",
                     "\uff11\uff12", "\u00b2", "12345678901234567890123", "1e3", "0x1"]),
    st.integers(min_value=-5, max_value=2 ** 70).map(str),
    st.text(alphabet="*0123456789_+-x\u0663", max_size=4),
)


def _outcome(read, rows):
    try:
        return read(rows)
    except FormatError as exc:
        return f"FormatError: {exc}"


class TestTokenMemo:
    """The memoized grid reader and writer against the per-token ones in
    textio_oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(TOKENS, max_size=6), max_size=6),
           st.one_of(st.integers(-2, 40), st.just(10 ** 12)))
    def test_grid_matches_per_token_reader(self, rows, s):
        # a seed of any size, a lying one included, changes no outcome
        expected = _outcome(oracle.grid, rows)
        assert _outcome(textio._grid, rows) == expected
        assert _outcome(lambda rows: textio._grid(rows, s), rows) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_lines_match_per_token_writer(self, rng):
        # the writer's domain: checked arrays, whose entries are 0..S
        if rng.random() < 0.5:
            pda = random_pda(rng, max_cols=6, max_rows=9)
        else:
            p1 = random_pda(rng, max_cols=4, max_rows=6)
            p2 = random_pda(rng, max_cols=4, max_rows=6)
            pda = construct_sppda(p1, p2, random_profile(rng, p1.k, p2.k)).pda
        assert textio._grid_lines(pda.grid, pda.s) == oracle.grid_lines(pda.grid)
        assert ([list(row) for row in textio._token_rows(pda.grid, pda.s)]
                == [[oracle.token(e) for e in row] for row in pda.grid])

    def test_equal_tokens_share_one_int(self):
        rows = grid("100000 * 100000\n* 100000 *\n")
        assert rows == ((100000, 0, 100000), (0, 100000, 0))
        assert rows[0][0] is rows[0][2] is rows[1][1]
        # a code read before the seed reaches it keeps its int once seeded
        rows = textio._grid([["300"], ["*"] * 400, ["300"]], 1000)
        assert rows[0][0] is rows[2][0]

    def test_seeded_reader_parses_only_other_tokens(self, monkeypatch):
        # with its true S, a written array's only unseeded token is "*"
        sp = construct_sppda(man_pda(4, 2), man_pda(3, 1), AssociationProfile((3, 2, 2, 1)))
        parsed = []
        cell = textio._cell
        monkeypatch.setattr(textio, "_cell", lambda token: parsed.append(token) or cell(token))
        for text in (write_sppda(sp), sppda_to_json(sp)):
            parsed.clear()
            assert read_array(text) == sp
            assert parsed == ["*"]
        # padded codes are read on their first lookup, to the same array
        lines = write_sppda(sp).splitlines()
        cells = [line.split() for line in lines[3:]]
        for code, padded in (("1", "01"), ("7", "007")):
            row = next(row for row in cells if code in row)
            row[row.index(code)] = padded
        parsed.clear()
        assert read_array("\n".join(lines[:3] + list(map(" ".join, cells)))) == sp
        assert sorted(parsed) == ["*", "007", "01"]


def _lie_about_s(text: str, lie: int) -> str:
    """The document with its header's S replaced by ``lie``."""
    if text.startswith("{"):
        return json.dumps({**json.loads(text), "s": lie})
    head, rest = text.split("\n", 1)
    return " ".join([*head.split()[:-1], str(lie)]) + "\n" + rest


def _read_outcome(read, text):
    try:
        return read(text)
    except (FormatError, InvalidPdaError) as exc:
        return type(exc).__name__, str(exc)


class TestSeededReader:
    """A header's S seeds the reader's memo; whatever S it claims, the
    outcome is the per-token reader's."""

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_lying_headers_match_per_token_reader(self, rng):
        # SP-PDA documents with a cell overwritten a third of the time, and a
        # valid PDA, each as text and as JSON, under their true S and the lies
        documents, grid, *_ = _sppda_documents(rng)
        pda = random_pda(rng, max_cols=5, max_rows=9)
        s = grid_oracle.params(grid)[3]
        for document, true_s in ((documents[0], s), (documents[1], s),
                                 (write_pda(pda), pda.s), (pda_to_json(pda), pda.s)):
            for lie in (true_s, 0, true_s - 1, true_s + 1, 10 ** 12):
                text = _lie_about_s(document, lie)
                assert _read_outcome(read_array, text) == _read_outcome(oracle.read_array, text), lie

    def test_bad_header_keeps_error_precedence(self):
        # the seed reads S ahead of the grid but raises nothing, so a grid
        # error still comes before the header's own
        for head in ("pda 2 2 1 x", "pda 2 2 1 1.5", "pda 2 2 1", "pda", "pda 2 2 1 " + "9" * 5000):
            for grid_text in ("* 1\n1 *", "* 1\n1 y"):
                text = f"{head}\n{grid_text}\n"
                outcome = _read_outcome(read_array, text)
                assert outcome == _read_outcome(oracle.read_array, text)
                assert outcome[0].endswith("Error"), (head, outcome)
            assert outcome[1].startswith("bad token in grid row"), (head, outcome)

    def test_seed_is_capped_by_the_cells(self):
        # one row of 80 000 codes: a header claiming S = 10^12 seeds no more
        # than the 80 000 cells, so the grid reads about as fast as with the
        # true S.  Only the grid is read: the C1-C3 check of an 80 000-column
        # grid takes over a second and about 430 MiB of its own.
        lying = f"pda 80000 1 0 {10 ** 12}"
        rows = [list(map(str, range(1, 80_001)))]
        assert textio._seed_size(lying.split()[1:]) == 10 ** 12
        times = {}
        for s in (80_000, 10 ** 12) * 3:
            start = time.perf_counter()
            assert textio._grid(rows, s) == (tuple(range(1, 80_001)),)
            times[s] = min(times.get(s, 1e9), time.perf_counter() - start)
        assert times[10 ** 12] < 2 * times[80_000] + 0.05, times
