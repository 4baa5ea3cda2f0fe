"""Text and JSON serialization round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import json

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
    lines = textio._grid_lines(grid)
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
    @given(st.lists(st.lists(TOKENS, max_size=6), max_size=6))
    def test_grid_matches_per_token_reader(self, rows):
        assert _outcome(textio._grid, rows) == _outcome(oracle.grid, rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.one_of(st.just(0), st.integers(1, 12),
                                       st.integers(1, 2 ** 80)), max_size=6), max_size=6))
    def test_lines_match_per_token_writer(self, grid):
        assert textio._grid_lines(grid) == oracle.grid_lines(grid)
        assert ([list(row) for row in textio._token_rows(grid)]
                == [[oracle.token(e) for e in row] for row in grid])

    def test_equal_tokens_share_one_int(self):
        rows = grid("100000 * 100000\n* 100000 *\n")
        assert rows == ((100000, 0, 100000), (0, 100000, 0))
        assert rows[0][0] is rows[0][2] is rows[1][1]
