"""The batch update rate curve: interpolation, monotonicity, errors."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import WorkloadError
from repro.units import HOUR, KB, MINUTE
from repro.workload import BatchUpdateCurve


@pytest.fixture
def cello_curve():
    return BatchUpdateCurve(
        {
            "1 min": 727 * KB,
            "12 hr": 350 * KB,
            "24 hr": 317 * KB,
            "48 hr": 317 * KB,
            "1 wk": 317 * KB,
        },
        short_window_rate=799 * KB,
    )


class TestConstruction:
    def test_accepts_strings_and_numbers(self):
        curve = BatchUpdateCurve({60.0: 800 * KB, "1 hr": "500 KB/s"})
        assert curve.rate(60) == 800 * KB

    def test_empty_curve_rejected(self):
        with pytest.raises(WorkloadError):
            BatchUpdateCurve({})

    def test_duplicate_windows_rejected(self):
        with pytest.raises(WorkloadError):
            BatchUpdateCurve({"60 s": 100, "1 min": 200})

    def test_increasing_rate_rejected(self):
        # Rates must be non-increasing in the window.
        with pytest.raises(WorkloadError):
            BatchUpdateCurve({"1 min": 100, "1 hr": 200})

    def test_decreasing_unique_bytes_rejected(self):
        # 1 min at 100 B/s = 6000 B; 2 min at 40 B/s = 4800 B < 6000.
        with pytest.raises(WorkloadError):
            BatchUpdateCurve({"1 min": 100, "2 min": 40})

    def test_rounding_drop_in_unique_bytes_is_removed(self):
        # 499993 s * 67111.86228007192 B/s is one ulp below 401857 s *
        # 83501 B/s: accepted as rounding, and the rate is raised so
        # unique bytes do not fall.
        curve = BatchUpdateCurve({401857.0: 83501.0, 499993.0: 67111.86228007192})
        (w0, r0), (w1, r1) = curve.points
        assert w1 * r1 >= w0 * r0
        assert r1 == pytest.approx(67111.86228007192, rel=1e-15)
        assert curve.unique_bytes(w1) >= curve.unique_bytes(w0)

    def test_negative_rate_rejected(self):
        with pytest.raises(WorkloadError):
            BatchUpdateCurve({"1 min": -5})

    def test_zero_window_rejected(self):
        with pytest.raises(WorkloadError):
            BatchUpdateCurve({0: 100})

    def test_short_window_rate_below_first_sample_rejected(self):
        with pytest.raises(WorkloadError):
            BatchUpdateCurve({"1 min": 100}, short_window_rate=50)

    def test_default_short_window_rate_is_first_sample(self):
        curve = BatchUpdateCurve({"1 min": 100})
        assert curve.short_window_rate == 100


class TestQueries:
    def test_exact_sample_points(self, cello_curve):
        assert cello_curve.rate("1 min") == pytest.approx(727 * KB)
        assert cello_curve.rate("12 hr") == pytest.approx(350 * KB)
        assert cello_curve.rate("1 wk") == pytest.approx(317 * KB)

    def test_interpolation_between_samples(self, cello_curve):
        # Between 12 h and 24 h the rate must land between the samples.
        rate = cello_curve.rate("18 hr")
        assert 317 * KB <= rate <= 350 * KB

    def test_extrapolation_beyond_largest_window(self, cello_curve):
        # Beyond 1 week the largest-window rate persists (60 h resilver
        # window in the baseline uses this).
        assert cello_curve.rate("60 hr") == pytest.approx(317 * KB, rel=0.01)
        assert cello_curve.rate("8 wk") == pytest.approx(317 * KB)

    def test_below_smallest_window_uses_short_rate(self, cello_curve):
        assert cello_curve.rate("10 s") == pytest.approx(799 * KB)

    def test_zero_window_gives_zero_bytes(self, cello_curve):
        assert cello_curve.unique_bytes(0) == 0.0
        assert cello_curve.rate(0) == cello_curve.short_window_rate

    def test_negative_window_rejected(self, cello_curve):
        with pytest.raises(WorkloadError):
            cello_curve.unique_bytes(-5)

    def test_sample_windows_sorted(self, cello_curve):
        windows = cello_curve.sample_windows()
        assert list(windows) == sorted(windows)
        assert windows[0] == MINUTE

    def test_as_dict(self, cello_curve):
        mapping = cello_curve.as_dict()
        assert mapping[12 * HOUR] == pytest.approx(350 * KB)

    def test_iteration(self, cello_curve):
        points = list(cello_curve)
        assert len(points) == 5


class TestScaling:
    def test_scaled_rates(self, cello_curve):
        doubled = cello_curve.scaled(2.0)
        assert doubled.rate("12 hr") == pytest.approx(700 * KB)
        assert doubled.short_window_rate == pytest.approx(2 * 799 * KB)

    def test_scale_by_zero(self, cello_curve):
        silent = cello_curve.scaled(0.0)
        assert silent.rate("12 hr") == 0.0

    def test_negative_scale_rejected(self, cello_curve):
        with pytest.raises(WorkloadError):
            cello_curve.scaled(-1.0)


class TestCurveInvariants:
    """Property-based checks of the two monotonicity invariants."""

    @staticmethod
    @st.composite
    def curves(draw):
        n = draw(st.integers(min_value=1, max_value=6))
        windows = sorted(
            draw(
                st.lists(
                    st.floats(min_value=1.0, max_value=1e6),
                    min_size=n,
                    max_size=n,
                    unique=True,
                )
            )
        )
        # Build rates that respect both invariants: start from a rate and
        # shrink it while keeping window*rate non-decreasing.
        first_rate = draw(st.floats(min_value=1.0, max_value=1e6))
        points = {windows[0]: first_rate}
        prev_w, prev_r = windows[0], first_rate
        for w in windows[1:]:
            lo = prev_w * prev_r / w  # keeps unique bytes non-decreasing
            rate = draw(st.floats(min_value=lo, max_value=prev_r))
            points[w] = rate
            prev_w, prev_r = w, rate
        return BatchUpdateCurve(points)

    @given(curve=curves(), fraction=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=80, deadline=None)
    # A rate drawn at the strategy's lower bound: 499993 * 67111.86228007192
    # is one ulp below 401857 * 83501 in floats.
    @example(
        curve=BatchUpdateCurve(
            {401857.0: 83501.0, 499993.0: 67111.86228007192, 803714.0: 41750.5}
        ),
        fraction=0.5,
    )
    def test_unique_bytes_monotone_in_window(self, curve, fraction):
        w_max = curve.sample_windows()[-1]
        a = fraction * w_max
        b = a * 1.5 + 1.0
        assert curve.unique_bytes(b) >= curve.unique_bytes(a) - 1e-6

    @given(curve=curves(), fraction=st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=80, deadline=None)
    def test_rate_never_exceeds_short_window_rate(self, curve, fraction):
        w_max = curve.sample_windows()[-1]
        window = fraction * w_max
        assert curve.rate(window) <= curve.short_window_rate * (1 + 1e-9)
