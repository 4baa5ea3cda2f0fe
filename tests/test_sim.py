"""Bit-exact delivery and decoding for both cache architectures."""

import gc
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sppda.arrays import AssociationProfile, InvalidPdaError, ParameterError, PdaArray, man_pda, verify_pda
from sppda.construct import InsufficientStarRowsError, SpPdaArray, construct_sppda
from sppda.sim import (
    CacheLayout,
    DemandOutOfRangeError,
    DimensionError,
    FileLibrary,
    MissingComponentError,
    Transmission,
    dedicated_run,
    format_report,
    format_transmission_log,
    report_csv_row,
    sp_decode,
    sp_deliver,
    sp_place,
    sp_run,
)

import grid_oracle
import sim_oracle as oracle
from conftest import GOLDEN_SP, ODD_GC_THRESHOLD, random_pda, random_profile


def xor_all(chunks):
    return bytes(reduce(lambda a, b: a ^ b, col) for col in zip(*chunks))


def flip_byte(t, index):
    """The transmission with bit 0 of payload byte ``index`` flipped."""
    payload = bytearray(t.payload)
    payload[index] ^= 1
    return replace(t, payload=bytes(payload))


def random_run(rng, dedicated):
    """A random instance of either scheme, a library whose length often needs
    padding, demands with repeats allowed, and the engine's report."""
    if dedicated:
        pda = random_pda(rng, max_cols=5, max_rows=10)
        sp = SpPdaArray(pda, AssociationProfile((1,) * pda.k), 0)
    else:
        p1 = random_pda(rng, max_cols=4, max_rows=8)
        p2 = random_pda(rng, max_cols=4, max_rows=8)
        sp = construct_sppda(p1, p2, random_profile(rng, p1.k, p2.k))
    f = sp.pda.f
    library = FileLibrary.synthetic(rng.randint(1, sp.pda.k), rng.randint(0, 4 * f), f,
                                    seed=rng.randrange(100))
    demands = [rng.randint(1, library.n) for _ in range(sp.pda.k)]
    report = dedicated_run(sp.pda, library, demands) if dedicated else sp_run(sp, library, demands)
    return sp, library, demands, report


@pytest.fixture
def golden_sp():
    return SpPdaArray(PdaArray.from_grid(GOLDEN_SP), AssociationProfile((3, 2)), 3)


@pytest.fixture
def golden_library():
    return FileLibrary.synthetic(n=5, size=60, f=6, seed=7)


class TestGoldenReplay:
    DEMANDS = (1, 2, 3, 4, 5)

    def test_cache_layout(self, golden_sp, golden_library):
        layout = sp_place(golden_sp, golden_library)
        assert layout.helper_masks == (0b000111, 0b111000)
        assert layout.private_masks == tuple(1 << (r - 1) for r in (4, 5, 6, 1, 2))
        assert layout.helper_sets == (frozenset({1, 2, 3}), frozenset({4, 5, 6}))
        assert layout.private_sets == tuple(
            frozenset({r}) for r in (4, 5, 6, 1, 2))
        assert layout.user_to_helper == (1, 1, 1, 2, 2)

    def test_transmission_components(self, golden_sp, golden_library):
        txs = sp_deliver(golden_sp, golden_library, self.DEMANDS)
        assert [t.components for t in txs] == [
            ((5, 1), (4, 2), (2, 4), (1, 5)),
            ((4, 3), (3, 4), (1, 6)),
            ((5, 3), (3, 5), (2, 6)),
        ]

    def test_payloads_are_the_expected_xors(self, golden_sp, golden_library):
        txs = sp_deliver(golden_sp, golden_library, self.DEMANDS)
        for t in txs:
            expected = xor_all([oracle.subfile(golden_library, self.DEMANDS[k - 1], j)
                                for k, j in t.components])
            assert t.payload == expected

    def test_transmissions_have_no_dict(self, golden_sp, golden_library):
        txs = sp_deliver(golden_sp, golden_library, self.DEMANDS)
        assert not any(hasattr(t, "__dict__") for t in txs)

    def test_transmission_is_an_immutable_record(self, golden_sp, golden_library):
        txs = sp_deliver(golden_sp, golden_library, self.DEMANDS)
        t = txs[1]
        for name in ("code", "payload", "cells"):
            with pytest.raises(AttributeError):  # FrozenInstanceError
                setattr(t, name, None)
        assert (t.code, t.payload, t.cells) == (2, t.payload, (4, 3, 3, 4, 1, 6))
        # equal to the oracle's record, field by field and as a whole
        sent = oracle.deliver(golden_sp, golden_library, self.DEMANDS)
        assert txs == sent and {type(x) for x in txs + sent} == {Transmission}
        assert hash(t) == hash(sent[1])
        assert flip_byte(t, 0) != t and flip_byte(flip_byte(t, 0), 0) == t

    @pytest.mark.usefixtures("odd_gc_state")
    def test_runs_at_the_callers_gc_threshold(self, golden_sp, golden_library, monkeypatch):
        # only the command line raises the threshold; a library call keeps the caller's
        seen = []

        def deliver(*args):
            seen.append(gc.get_threshold())
            return sp_deliver(*args)

        monkeypatch.setattr("sppda.sim.sp_deliver", deliver)
        assert sp_run(golden_sp, golden_library, self.DEMANDS).all_decoded
        assert seen == [ODD_GC_THRESHOLD]

    def test_full_run(self, golden_sp, golden_library):
        report = sp_run(golden_sp, golden_library, self.DEMANDS)
        assert report.all_decoded
        assert len(report.transmissions) == 3
        assert report.rate == Fraction(1, 2)
        assert report.mh_ratio == Fraction(1, 2)
        assert report.mp_ratio == Fraction(1, 6)
        assert report.subpacketization == 6
        assert report.distinct_demands


class TestDedicated:
    def test_man_array_decodes(self):
        pda = man_pda(4, 2)
        library = FileLibrary.synthetic(n=4, size=48, f=pda.f, seed=1)
        report = dedicated_run(pda, library, (1, 2, 3, 4))
        assert report.all_decoded
        assert report.rate == Fraction(4, 6)
        assert report.mh_ratio == 0
        assert report.mp_ratio == Fraction(pda.z, pda.f)

    def test_all_star_array_needs_no_transmissions(self):
        pda = man_pda(2, 2)
        library = FileLibrary.synthetic(n=2, size=8, f=1, seed=0)
        report = dedicated_run(pda, library, (2, 2))
        assert report.all_decoded
        assert report.transmissions == ()
        assert not report.distinct_demands

    def test_repeated_demands_decode(self):
        pda = man_pda(4, 1)
        library = FileLibrary.synthetic(n=2, size=16, f=pda.f, seed=3)
        report = dedicated_run(pda, library, (2, 1, 2, 2))
        assert report.all_decoded
        assert not report.distinct_demands

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_shared_cache_run_degenerates_to_dedicated(self, rng):
        # single-user groups with no helper memory reduce to the dedicated scheme
        pda = random_pda(rng, max_cols=5, max_rows=10)
        sp = SpPdaArray(pda, AssociationProfile((1,) * pda.k), 0)
        library = FileLibrary.synthetic(pda.k, 4 * pda.f, pda.f, seed=rng.randint(0, 99))
        demands = list(range(1, pda.k + 1))
        rng.shuffle(demands)
        a = dedicated_run(pda, library, demands)
        b = sp_run(sp, library, demands)
        assert a.transmissions == b.transmissions
        assert a.decoded == b.decoded and b.all_decoded
        assert a.rate == b.rate


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_constructed_arrays_decode(self, rng):
        p1 = random_pda(rng, max_cols=4, max_rows=8)
        p2 = random_pda(rng, max_cols=4, max_rows=8)
        profile = random_profile(rng, p1.k, p2.k)
        sp = construct_sppda(p1, p2, profile)
        k, f = sp.pda.k, sp.pda.f
        library = FileLibrary.synthetic(k, 4 * f, f, seed=rng.randint(0, 99))
        demands = [rng.randint(1, k) for _ in range(k)]  # repeats allowed
        report = sp_run(sp, library, demands)
        assert report.all_decoded
        assert len(report.transmissions) == sp.pda.s
        assert all(len(t.payload) == library.piece_size for t in report.transmissions)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_cache_budgets(self, rng):
        p1 = random_pda(rng, max_cols=4, max_rows=8)
        p2 = random_pda(rng, max_cols=4, max_rows=8)
        profile = random_profile(rng, p1.k, p2.k)
        sp = construct_sppda(p1, p2, profile)
        library = FileLibrary.synthetic(3, 4 * sp.pda.f, sp.pda.f, seed=0)
        layout = sp_place(sp, library)
        assert all(len(h) == sp.helper_stars for h in layout.helper_sets)
        # closed forms: Z^(h) = Z1*F2 and Z = Z1*F2 + (F1 - Z1)*Z2
        zh = p1.z * p2.f
        z = zh + (p1.f - p1.z) * p2.z
        assert all(h.bit_count() == zh for h in layout.helper_masks)
        for user in range(1, sp.pda.k + 1):
            private = layout.private_sets[user - 1]
            helper = layout.helper_sets[layout.user_to_helper[user - 1] - 1]
            assert len(private) == sp.pda.z - sp.helper_stars
            assert not private & helper
            assert private | helper == grid_oracle.star_rows(sp.pda, user)
            private_mask = layout.private_masks[user - 1]
            helper_mask = layout.helper_masks[layout.user_to_helper[user - 1] - 1]
            assert private_mask.bit_count() == z - zh
            assert not private_mask & helper_mask
            assert private_mask | helper_mask == sp.pda.star_masks[user - 1]


class TestAgainstOracle:
    """The engine against the byte-slicing per-user decoder in sim_oracle."""

    DEMANDS = (1, 2, 3, 4, 5)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_engine_matches_oracle(self, rng, dedicated):
        sp, library, demands, report = random_run(rng, dedicated)
        layout = sp_place(sp, library)
        sent = oracle.deliver(sp, library, demands)
        assert report.transmissions == sent
        assert report.decoded == oracle.verdicts(layout, sent, sp, library, demands)
        if sent:  # a flipped byte may fall in the padding, which neither verdict reads
            i = rng.randrange(len(sent))
            tampered = list(sent)
            tampered[i] = flip_byte(sent[i], rng.randrange(len(sent[i].payload)))
            assert (sp_decode(layout, tuple(tampered), sp, library, demands)
                    == oracle.verdicts(layout, tampered, sp, library, demands))

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_cells_are_flat_and_components_pair_them(self, rng, dedicated):
        sp, _, _, report = random_run(rng, dedicated)
        for t, cells in zip(report.transmissions, sp.pda.code_cells, strict=True):
            assert t.cells is cells
            assert t.components == tuple(zip(t.cells[::2], t.cells[1::2]))
            assert len(t.components) == len(t.cells) // 2
            assert type(cells) is tuple and len(cells) % 2 == 0
            assert {int}.issuperset(map(type, cells))
            rows = cells[1::2]
            assert list(rows) == sorted(rows)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_broadcast_bytes_match_rate(self, rng, dedicated):
        sp, library, _, report = random_run(rng, dedicated)
        sent = sum(len(t.payload) for t in report.transmissions)
        assert sent == sp.pda.s * library.piece_size
        assert sent == report.rate * library.padded_length

    def test_tampered_payload_fails_exactly_its_recipients(self, golden_sp, golden_library):
        layout = sp_place(golden_sp, golden_library)
        sent = sp_deliver(golden_sp, golden_library, self.DEMANDS)
        for i, t in enumerate(sent):
            recipients = {k for k, _ in t.components}
            for index in (0, len(t.payload) - 1):
                tampered = sent[:i] + (flip_byte(t, index),) + sent[i + 1:]
                verdicts = sp_decode(layout, tampered, golden_sp, golden_library, self.DEMANDS)
                assert verdicts == tuple(k not in recipients for k in range(1, 6))
                assert verdicts == oracle.verdicts(layout, tampered, golden_sp, golden_library,
                                                   self.DEMANDS)

    def test_unreachable_rows_raise(self, golden_sp, golden_library):
        layout = sp_place(golden_sp, golden_library)
        sent = sp_deliver(golden_sp, golden_library, self.DEMANDS)
        no_helper_row = replace(layout, helper_masks=(0b110, layout.helper_masks[1]))
        # user 5's private row 2 is first needed as a foreign component of code 1 in row 1
        no_private_row = replace(layout, private_masks=layout.private_masks[:4] + (0,))
        for bad in (no_helper_row, no_private_row):
            with pytest.raises(MissingComponentError):
                sp_decode(bad, sent, golden_sp, golden_library, self.DEMANDS)
            with pytest.raises(MissingComponentError):
                oracle.verdicts(bad, sent, golden_sp, golden_library, self.DEMANDS)
        with pytest.raises(MissingComponentError, match="foreign"):
            oracle.verdicts(no_private_row, sent, golden_sp, golden_library, self.DEMANDS)
        # an all-star array sends nothing, so only the cached-row check can see a lost row
        all_star = SpPdaArray(man_pda(2, 2), AssociationProfile((1, 1)), 0)
        library = FileLibrary.synthetic(2, 4, 1, seed=0)
        layout = replace(sp_place(all_star, library), private_masks=(0, 0b1))
        for decode in (sp_decode, oracle.verdicts):
            with pytest.raises(MissingComponentError, match="cached"):
                decode(layout, (), all_star, library, (1, 2))

    def test_c3_violation_raises_when_built(self):
        # code 1 sits at (row 1, user 1) and (row 2, user 2) with no stars across,
        # so no array that breaks C3 reaches the engine, which relies on C3
        grid = ((1, 2), (2, 1))
        with pytest.raises(InvalidPdaError) as info:
            PdaArray(grid)
        assert [v.kind for v in info.value.violations] == ["C3b", "C3b"]
        assert info.value.violations == verify_pda(grid)


def perturbed_layout(rng, layout, f):
    """The layout, or a random one over the same users, with rows added to
    some masks and sometimes one row dropped from one mask."""
    if rng.random() < 0.5:
        helpers = rng.randint(1, len(layout.user_to_helper))
        layout = CacheLayout(
            tuple(rng.getrandbits(f) & rng.getrandbits(f) for _ in range(helpers)),
            layout.private_masks,
            tuple(rng.randint(1, helpers) for _ in layout.user_to_helper))
    masks = [[m | rng.getrandbits(f) if rng.random() < 0.3 else m for m in group]
             for group in (layout.helper_masks, layout.private_masks)]
    if rng.random() < 0.3:
        group = rng.choice(masks)
        i = rng.randrange(len(group))
        group[i] &= ~(1 << rng.randrange(f))
    return CacheLayout(tuple(masks[0]), tuple(masks[1]), layout.user_to_helper)


class TestDecodeChecks:
    """``sp_decode``'s one diff per code and cached-row check against the
    per-recipient decoder in sim_oracle, which also checks every foreign row:
    on a valid array, C3 makes that check redundant."""

    @staticmethod
    def _outcome(decode, *args):
        try:
            return decode(*args)
        except MissingComponentError as exc:
            return f"MissingComponentError: {exc}"

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_per_recipient_decoder(self, rng):
        if rng.random() < 0.6:
            pda = random_pda(rng, max_cols=6, max_rows=12)
            sp = SpPdaArray(pda, AssociationProfile((1,) * pda.k), 0)
        else:
            p1 = random_pda(rng, max_cols=3, max_rows=6)
            p2 = random_pda(rng, max_cols=3, max_rows=6)
            sp = construct_sppda(p1, p2, random_profile(rng, p1.k, p2.k))
        f = sp.pda.f
        library = FileLibrary.synthetic(rng.randint(1, 3), rng.randint(0, 3 * f), f,
                                        seed=rng.randrange(100))
        demands = [rng.randint(1, library.n) for _ in range(sp.pda.k)]
        layout = sp_place(sp, library)
        if rng.random() < 0.5:
            layout = perturbed_layout(rng, layout, f)
        sent = sp_deliver(sp, library, demands)
        if sent and rng.random() < 0.5:
            i = rng.randrange(len(sent))
            sent = sent[:i] + (flip_byte(sent[i], rng.randrange(len(sent[i].payload))),) + sent[i + 1:]
        args = (layout, sent, sp, library, demands)
        assert self._outcome(sp_decode, *args) == self._outcome(oracle.per_recipient_verdicts, *args)


def tampered_verdicts(sent, code, index, library, users):
    """The verdicts after payload byte ``index`` of ``code`` is flipped: a
    recipient fails iff that byte is one of its piece's real bytes, the
    piece's first ``true_length - (j - 1) * piece`` ones."""
    piece = library.piece_size
    failed = {k for k, j in sent[code - 1].components
              if index < library.true_length - (j - 1) * piece}
    return tuple(k not in failed for k in range(1, users + 1))


class TestUnpaddedLibrary:
    """A library keeps its files unpadded and reads the missing tail as zeros:
    it must behave exactly as its explicitly zero-padded twin."""

    @staticmethod
    def twins(rng, f, n):
        piece_count = rng.randint(1, 3)
        length = rng.choice((0, 1, rng.randrange(f) if f > 1 else 0, piece_count * f,
                             piece_count * f + rng.randint(1, f - 1) if f > 1 else f))
        files = [rng.randbytes(length) for _ in range(n)]
        unpadded = FileLibrary.from_bytes(files, f)
        size = unpadded.piece_size * f
        padded = FileLibrary(tuple(x.ljust(size, b"\0") for x in files), f, length)
        assert padded.piece_size == unpadded.piece_size
        return unpadded, padded

    def check_last_piece_flips(self, sp, library, demands):
        """Flip each byte of every code that carries a piece of the last row,
        or of the row that holds the last real byte."""
        layout = sp_place(sp, library)
        sent = sp_deliver(sp, library, demands)
        rows = {sp.pda.f, -(-library.true_length // library.piece_size)}
        for t in sent:
            if rows.isdisjoint(t.cells[1::2]):
                continue
            for index in range(len(t.payload)):
                tampered = sent[:t.code - 1] + (flip_byte(t, index),) + sent[t.code:]
                expected = tampered_verdicts(sent, t.code, index, library, sp.pda.k)
                assert sp_decode(layout, tampered, sp, library, demands) == expected
                assert oracle.verdicts(layout, tampered, sp, library, demands) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_matches_padded_twin_and_oracle(self, rng, dedicated):
        if dedicated:
            pda = random_pda(rng, max_cols=5, max_rows=10)
            sp = SpPdaArray(pda, AssociationProfile((1,) * pda.k), 0)
        else:
            p1 = random_pda(rng, max_cols=4, max_rows=8)
            p2 = random_pda(rng, max_cols=4, max_rows=8)
            sp = construct_sppda(p1, p2, random_profile(rng, p1.k, p2.k))
        libraries = self.twins(rng, sp.pda.f, rng.randint(1, sp.pda.k))
        demands = [rng.randint(1, libraries[0].n) for _ in range(sp.pda.k)]
        reports = [dedicated_run(sp.pda, lib, demands) if dedicated else sp_run(sp, lib, demands)
                   for lib in libraries]
        assert reports[0].transmissions == reports[1].transmissions
        assert reports[0].decoded == reports[1].decoded
        for library, report in zip(libraries, reports):
            layout = sp_place(sp, library)
            sent = oracle.deliver(sp, library, demands)
            assert report.transmissions == sent
            assert report.decoded == oracle.verdicts(layout, sent, sp, library, demands)
            assert report.all_decoded
            self.check_last_piece_flips(sp, library, demands)

    def test_golden_last_piece(self, golden_sp):
        # 16 bytes over F=6: pieces of 3, and row 6 keeps one real byte and two zeros
        library = FileLibrary.synthetic(5, 16, 6, seed=2)
        assert (library.piece_size, len(library.files[0])) == (3, 16)
        demands = (1, 2, 3, 4, 5)
        sent = sp_deliver(golden_sp, library, demands)
        code = next(t.code for t in sent if (1, 6) in t.components)
        assert tampered_verdicts(sent, code, 0, library, 5)[0] is False
        assert tampered_verdicts(sent, code, 1, library, 5)[0] is True
        self.check_last_piece_flips(golden_sp, library, demands)


class TestFileLibrary:
    def test_padding_and_true_length(self):
        lib = FileLibrary.from_bytes([b"0123456789", b"abcdefghij"], f=4)
        assert lib.padded_length == 12
        assert lib.piece_size == 3
        assert lib.true_length == 10
        assert oracle.subfile(lib, 2, 4) == b"j\0\0"
        assert oracle.original(lib, 1) == b"0123456789"

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ParameterError):
            FileLibrary.from_bytes([b"ab", b"abc"], f=2)

    def test_empty_library_rejected(self):
        with pytest.raises(ParameterError):
            FileLibrary.from_bytes([], f=2)

    def test_inconsistent_fields_rejected(self):
        for make in (lambda: FileLibrary.from_bytes([b"ab"], 0),
                     lambda: FileLibrary((b"abcd",), 0, 4),
                     lambda: FileLibrary((b"ab", b"abcd"), 2, 2),
                     lambda: FileLibrary((b"abcd",), 2, 5),
                     lambda: FileLibrary((b"abcd",), 2, -1),
                     lambda: FileLibrary((), 2, 0)):
            with pytest.raises(ParameterError):
                make()

    def test_length_need_not_be_a_multiple_of_f(self):
        lib = FileLibrary((b"abcde", b"fghij"), 2, 5)  # 5 bytes, F=2: the padding is implicit
        assert lib.piece_size == 3
        assert lib.padded_length == 6

    def test_files_are_shared_not_copied(self):
        data = [bytes([i]) * (1 << 20) for i in range(24)]
        a = FileLibrary.from_bytes(data, 7)
        b = FileLibrary.from_bytes(data, 210)
        assert all(x is y is z for x, y, z in zip(a.files, b.files, data, strict=True))
        tracemalloc.start()
        try:
            FileLibrary.from_bytes(data, 8400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_synthetic_is_seeded(self):
        assert FileLibrary.synthetic(3, 32, 4, seed=9) == FileLibrary.synthetic(3, 32, 4, seed=9)
        assert FileLibrary.synthetic(3, 32, 4, seed=9) != FileLibrary.synthetic(3, 32, 4, seed=10)

    def test_from_dir(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"xxxx")
        (tmp_path / "b.bin").write_bytes(b"yy")
        lib = FileLibrary.from_dir(tmp_path, f=2)
        assert lib.n == 2
        assert oracle.original(lib, 1) == b"xxxx"
        assert lib.files[1] == b"yy\0\0"

    def test_from_empty_dir(self, tmp_path):
        with pytest.raises(ParameterError):
            FileLibrary.from_dir(tmp_path, f=2)


class TestErrors:
    def test_library_split_mismatch(self, golden_sp):
        library = FileLibrary.synthetic(5, 60, 5, seed=0)
        with pytest.raises(DimensionError):
            sp_run(golden_sp, library, (1, 2, 3, 4, 5))

    def test_demand_vector_length(self, golden_sp, golden_library):
        with pytest.raises(DimensionError):
            sp_run(golden_sp, golden_library, (1, 2, 3))

    def test_demand_out_of_range(self, golden_sp, golden_library):
        with pytest.raises(DemandOutOfRangeError):
            sp_run(golden_sp, golden_library, (1, 2, 3, 4, 6))

    def test_insufficient_all_star_rows(self):
        # D2 is checked when the SP-PDA is built, so no placement can see it fail
        with pytest.raises(InsufficientStarRowsError):
            SpPdaArray(man_pda(2, 1), AssociationProfile((2,)), 1)


class TestFormatting:
    def test_transmission_log(self, golden_sp, golden_library):
        txs = sp_deliver(golden_sp, golden_library, (1, 2, 3, 4, 5))
        log = format_transmission_log(txs)
        lines = log.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("code=1 payload=")
        assert lines[0].endswith("components=5,1;4,2;2,4;1,5")
        assert format_transmission_log(()) == ""

    def test_report_text_and_csv(self, golden_sp, golden_library):
        report = sp_run(golden_sp, golden_library, (1, 2, 3, 4, 5))
        text = format_report(report)
        assert "rate: 1/2" in text
        assert "all_decoded: yes" in text
        csv = report_csv_row(report)
        header, row = csv.strip().splitlines()
        assert header.startswith("subpacketization,")
        assert row.split(",")[0] == "6"
