"""The A/B script's aggregation, fed canned last lines of ``bench/run.py``,
so no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def last_line(wall, setup=0.15, rss=21.9, failed=0, attempted=500):
    """A ``bench/run.py --trace 0`` last line, as ``json.loads`` reads it."""
    return json.loads(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "setup_s": {"value": setup, "unit": "s"},
                    "peak_rss_MiB": {"value": rss, "unit": "MiB"}}}))


def rows_by_metric(bench_ab, pairs):
    return {row["metric"]: row for row in bench_ab.aggregate(pairs, SPEC)}


OLD_WALLS = [0.0069, 0.0070, 0.0068, 0.0071, 0.0069, 0.0070, 0.0069, 0.0072, 0.0068, 0.0070]


def test_claim_holds_on_nine_wins_and_a_gap_past_the_spread(bench_ab):
    # NEW is lower in 9 of 10 pairs, by far more than OLD's quartile spread
    new_walls = [0.0062, 0.0061, 0.0063, 0.0062, 0.0060, 0.0062, 0.0075, 0.0061, 0.0062, 0.0063]
    pairs = {"sweep-reference": [(last_line(o), last_line(n)) for o, n in zip(OLD_WALLS, new_walls)]}
    rows = rows_by_metric(bench_ab, pairs)
    wall = rows["wall_s"]
    assert (wall["wins"], wall["pairs"], wall["claim"], wall["worse"]) == (9, 10, True, False)
    assert wall["old"][1] == pytest.approx(0.00695) and wall["new"][1] == pytest.approx(0.0062)
    # equal setup and memory: no wins, no claim, nothing worse
    for name in ("setup_s", "peak_rss_MiB"):
        assert (rows[name]["wins"], rows[name]["claim"], rows[name]["worse"]) == (0, False, False)


def test_claim_fails_on_eight_wins(bench_ab):
    new_walls = [0.0062] * 8 + [0.0080, 0.0080]
    pairs = {"w": [(last_line(o), last_line(n)) for o, n in zip(OLD_WALLS, new_walls)]}
    wall = rows_by_metric(bench_ab, pairs)["wall_s"]
    assert (wall["wins"], wall["claim"]) == (8, False)


def test_claim_fails_when_the_gap_is_inside_the_spread(bench_ab):
    # NEW wins every pair by a hair, less than OLD's interquartile range
    pairs = {"w": [(last_line(o), last_line(o - 0.00001)) for o in OLD_WALLS]}
    wall = rows_by_metric(bench_ab, pairs)["wall_s"]
    q1, _, q3 = wall["old"]
    assert wall["wins"] == 10 and q3 - q1 > 0.00001 and not wall["claim"]


def test_higher_is_better_metrics_win_upwards(bench_ab):
    spec = {"end_to_end": [{"name": "wall_s", "unit": "ops", "better": "higher", "bound": 0.1}]}
    pairs = {"w": [(last_line(o), last_line(o * 2)) for o in OLD_WALLS]}
    (row,) = bench_ab.aggregate(pairs, spec)
    assert (row["wins"], row["claim"], row["worse"]) == (10, True, False)


def test_regressions_past_the_bound_and_failures_are_listed(bench_ab):
    # peak RSS 12 % higher passes its 10 % bound; wall_s 19 % higher stays inside 20 %
    pairs = {"sweep-reference": [(last_line(0.0070, rss=20.0), last_line(0.00833, rss=22.4))] * 3,
             "search-exact": [(last_line(0.009), last_line(0.009, failed=5))] * 2}
    rows = bench_ab.aggregate(pairs, SPEC)
    assert [(r["workload"], r["metric"]) for r in rows if r["worse"]] == \
        [("sweep-reference", "peak_rss_MiB")]
    assert bench_ab.fail_shares(pairs) == {"sweep-reference": (0.0, 0.0),
                                           "search-exact": (0.0, 0.01)}
    text = bench_ab.report(pairs, SPEC)
    assert "| sweep-reference | `wall_s` | 0.007 [0.007-0.007] | 0.00833 [0.00833-0.00833] " \
           "| 0/3 | no |" in text
    assert "  sweep-reference peak_rss_MiB: median 20 -> 22.4 MiB, past the bound of 10%" in text
    assert "  search-exact: failed share 0 -> 0.01" in text


def test_one_pair_is_its_own_spread(bench_ab):
    assert bench_ab.spread([0.5]) == (0.5, 0.5, 0.5)
    assert bench_ab.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
