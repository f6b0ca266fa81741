import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtensor.errors import ConfigError, UndefinedMetricError
from fairtensor.metrics import (
    GroupedScores,
    MetricsReport,
    RunMetrics,
    f1_at_k,
    ks,
    mad,
    precision_at_k,
    recall_at_k,
)


def exact_ecdf_area(r0, r1):
    """|integral of (F0 - F1)| over [min, max], summed over sorted breakpoints.

    Independent oracle: the ECDFs are piecewise constant, so the integral is
    exact with no discretisation at all.
    """
    r0, r1 = np.sort(r0), np.sort(r1)
    points = np.unique(np.concatenate([r0, r1]))
    total = 0.0
    for x, x_next in zip(points[:-1], points[1:]):
        f0 = np.searchsorted(r0, x, side="right") / r0.size
        f1 = np.searchsorted(r1, x, side="right") / r1.size
        total += (x_next - x) * (f0 - f1)
    return abs(total)


class TestPrecisionRecall:
    def test_all_hits(self):
        assert precision_at_k({1: ["a", "b"]}, {1: {"a", "b"}}, 2) == 1.0

    def test_no_hits(self):
        assert precision_at_k({1: ["a", "b"]}, {1: {"c"}}, 2) == 0.0

    def test_mean_over_users(self):
        tops = {1: ["a", "b"], 2: ["a", "b"]}
        pos = {1: {"a", "b"}, 2: {"a", "x"}}
        assert precision_at_k(tops, pos, 2) == 0.75

    def test_recall_half(self):
        assert recall_at_k({1: ["a", "b"]}, {1: {"a", "b", "c", "d"}}, 2) == 0.5

    def test_recall_full(self):
        assert recall_at_k({1: ["a", "b"]}, {1: {"a", "b"}}, 2) == 1.0

    def test_recall_mean(self):
        tops = {1: ["a"], 2: ["z"]}
        pos = {1: {"a"}, 2: {"b"}}
        assert recall_at_k(tops, pos, 1) == 0.5

    def test_zero_positive_users_excluded(self):
        tops = {1: ["a"], 2: ["b"]}
        pos = {1: {"a"}, 2: set()}
        assert precision_at_k(tops, pos, 1) == 1.0
        assert recall_at_k(tops, pos, 1) == 1.0

    def test_no_eligible_users(self):
        with pytest.raises(UndefinedMetricError):
            precision_at_k({1: ["a"]}, {1: set()}, 1)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            items = list(range(10))
            tops = {u: list(rng.permutation(items))[:5] for u in range(4)}
            pos = {
                u: set(rng.choice(items, size=rng.integers(1, 6), replace=False))
                for u in range(4)
            }
            p = precision_at_k(tops, pos, 5)
            r = recall_at_k(tops, pos, 5)
            assert 0.0 <= p <= 1.0
            assert 0.0 <= r <= 1.0
            f = f1_at_k(p, r)
            assert f <= max(p, r)
            assert min(p, r) <= f or f == 0.0


class TestF1:
    def test_equal(self):
        assert f1_at_k(0.5, 0.5) == 0.5

    def test_degenerate_zero(self):
        assert f1_at_k(0.0, 0.0) == 0.0

    def test_reported_operating_point(self):
        # consistency with the published precision/recall pair
        assert f1_at_k(0.0958, 0.4384) == pytest.approx(0.1572, abs=5e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            f1_at_k(-0.1, 0.5)


class TestMad:
    def test_hand_case(self):
        assert mad(GroupedScores([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])) == 1.0

    def test_identical(self):
        assert mad(GroupedScores([1.0, 2.0], [1.0, 2.0])) == 0.0

    def test_uneven_sizes(self):
        assert mad(GroupedScores([0.0, 0.0], [1.0])) == 1.0

    def test_empty_group(self):
        with pytest.raises(UndefinedMetricError):
            mad(GroupedScores([], [1.0]))

    def test_swap_symmetric_and_shift_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=rng.integers(1, 8))
            b = rng.normal(size=rng.integers(1, 8))
            v = mad(GroupedScores(a, b))
            assert mad(GroupedScores(b, a)) == v
            shift = float(rng.normal())
            assert mad(GroupedScores(a + shift, b + shift)) == pytest.approx(v, abs=1e-12)


class TestKs:
    def test_identical_distributions(self):
        assert ks(GroupedScores([0.2, 0.9], [0.2, 0.9]), 50) == 0.0

    def test_hand_case_098(self):
        assert ks(GroupedScores([0.0, 0.0], [1.0, 1.0]), 50) == 0.98

    def test_hand_case_049(self):
        assert ks(GroupedScores([0.0, 1.0], [1.0, 1.0]), 50) == 0.49

    def test_degenerate_range(self):
        assert ks(GroupedScores([3.0], [3.0, 3.0]), 50) == 0.0

    def test_empty_group(self):
        with pytest.raises(UndefinedMetricError):
            ks(GroupedScores([1.0], []), 50)

    @pytest.mark.parametrize("intervals", [10**12, 2**70])
    def test_oversized_intervals_rejected(self, intervals):
        # numpy refuses both sizes at once, so a missing check allocates nothing
        with pytest.raises(ConfigError, match="MAX_DENSE_CELLS"):
            ks(GroupedScores([0.0, 1.0], [1.0, 2.0]), intervals)

    def test_swap_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=rng.integers(1, 7))
            b = rng.normal(size=rng.integers(1, 7))
            assert ks(GroupedScores(a, b), 50) == ks(GroupedScores(b, a), 50)

    def test_shift_invariant_and_scale_equivariant(self):
        # shifting all scores moves the range with them; rescaling by a > 0
        # rescales the range and widths together, so the area scales by a
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=rng.integers(2, 7))
            b = rng.normal(size=rng.integers(2, 7))
            v = ks(GroupedScores(a, b), 50)
            shift = float(rng.normal()) * 3
            assert ks(GroupedScores(a + shift, b + shift), 50) == pytest.approx(v, rel=1e-9, abs=1e-12)
            scale = float(rng.random()) * 4 + 0.5
            assert ks(GroupedScores(a * scale, b * scale), 50) == pytest.approx(
                scale * v, rel=1e-9, abs=1e-12
            )

    def test_bounded_by_range(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a = rng.normal(size=rng.integers(1, 7))
            b = rng.normal(size=rng.integers(1, 7))
            lo = min(a.min(), b.min())
            hi = max(a.max(), b.max())
            assert ks(GroupedScores(a, b), 50) <= (hi - lo) + 1e-12

    def test_matches_exact_breakpoint_area(self):
        # discretisation error is at most one interval width
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.random(rng.integers(1, 7)) * 2
            b = rng.random(rng.integers(1, 7)) * 2
            got = ks(GroupedScores(a, b), 50)
            want = exact_ecdf_area(a, b)
            lo = min(a.min(), b.min())
            hi = max(a.max(), b.max())
            width = (hi - lo) / 50
            assert abs(got - want) <= width * 1.0 + 1e-12


# derandomized and bounded, so every run draws the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=100, database=None)
finite_scores = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=30
)
# multiples of 1/8 in [-8, 8]: with a power-of-two ``intervals`` every
# boundary lo + width * i is exact, and so is any dyadic shift of it
dyadic_scores = st.lists(st.integers(-64, 64).map(lambda x: x / 8), min_size=1, max_size=30)


class TestKsProperties:
    @PROPERTY
    @given(finite_scores, finite_scores, st.integers(1, 200))
    def test_swap_symmetry(self, g0, g1, intervals):
        assert ks(GroupedScores(g0, g1), intervals) == ks(GroupedScores(g1, g0), intervals)

    @PROPERTY
    @given(dyadic_scores, dyadic_scores, st.integers(0, 7), st.integers(-64, 64))
    def test_shift_invariance_on_dyadic_scores(self, g0, g1, log2_intervals, shift):
        c = shift / 8
        intervals = 2**log2_intervals
        shifted = GroupedScores(np.add(g0, c), np.add(g1, c))
        assert ks(shifted, intervals) == ks(GroupedScores(g0, g1), intervals)


class TestReport:
    def rows(self):
        return (
            RunMetrics("OTC", 1, 1, 0.5, 0.4, 0.44, 0.1, 0.2),
            RunMetrics("OTC", 2, 2, 0.3, 0.2, 0.24, 0.3, 0.4),
            RunMetrics("FT", 1, 1, 0.5, 0.5, 0.5, 0.01, 0.02),
        )

    def test_rows_sorted_and_means(self):
        report = MetricsReport(k=15, intervals=50, rows=self.rows(), config={})
        assert [r.model for r in report.rows] == ["FT", "OTC", "OTC"]
        means = report.model_means()
        assert means["OTC"]["p_at_k"] == pytest.approx(0.4)
        assert means["OTC"]["ks"] == pytest.approx(0.3)
        assert means["FT"]["mad"] == pytest.approx(0.01)

    def test_csv_layout(self):
        report = MetricsReport(k=15, intervals=50, rows=self.rows(), config={})
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "model,run,seed,p_at_k,r_at_k,f1_at_k,mad,ks"
        assert lines[1].startswith("FT,1,1,")
        assert lines[2].startswith("FT,mean,,")
        assert lines[3].startswith("OTC,1,1,")
        assert lines[5].startswith("OTC,mean,,")
        # every non-mean data cell parses back as a float
        for line in (lines[1], lines[3], lines[4]):
            for tok in line.split(",")[3:]:
                float(tok)

    def test_error_row(self):
        rows = (RunMetrics("RTC", 1, 1, error="fairness: one group empty"),)
        report = MetricsReport(k=15, intervals=50, rows=rows, config={})
        assert not report.complete()
        csv_text = report.to_csv()
        assert "RTC,1,1,,,,," in csv_text
        doc = report.to_json()
        assert doc["rows"][0]["error"] == "fairness: one group empty"
        assert doc["means"]["RTC"]["p_at_k"] is None
