"""The residual rule every identity report is measured and decided by."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coslab.reports import RunReport, make_report, max_errors

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestResidualRule:
    @given(st.lists(st.tuples(finite, finite), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_relative_error_is_at_most_the_absolute_error(self, pairs):
        max_abs, max_rel = max_errors(pairs)
        assert 0.0 <= max_rel <= max_abs

    @given(st.lists(st.tuples(finite, st.floats(min_value=-1.0, max_value=1.0)),
                    max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_relative_equals_absolute_where_expected_is_at_most_1(self, pairs):
        max_abs, max_rel = max_errors(pairs)
        assert max_rel == max_abs

    def test_relative_error_divides_by_the_expected_magnitude(self):
        assert max_errors([(-30.0, -20.0)]) == (10.0, 0.5)
        assert max_errors([(3.0, 4.0), (0.5, 0.25)]) == (1.0, 0.25)

    def test_scalar_and_array_sides_broadcast(self):
        values = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert max_errors([(values, 2.0)]) == (4.0, 2.0)
        assert max_errors([(0.0, values)]) == (6.0, 1.0)
        assert max_errors([(values, np.array([1.0, 2.0, 8.0]))]) == (5.0, 3.0)
        assert max_errors([(values, np.array([[4.0], [8.0]]))]) == (4.0, 0.75)

    def test_empty_input_gives_0_and_passes(self):
        assert max_errors([]) == (0.0, 0.0)
        assert max_errors([(np.zeros((0, 3)), 1.0)]) == (0.0, 0.0)
        report = make_report("x", {}, [], 0.0)
        assert (report.max_abs_err, report.max_rel_err, report.passed) == (0.0, 0.0, True)

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_a_nan_anywhere_fails_the_report(self, where):
        pairs = [(1e-15, 0.0), (np.array([1.0, 1.0 + 1e-15]), 1.0), (-2.0, -2.0)]
        value, expected = pairs[where]
        pairs[where] = (np.where(np.arange(np.size(value)) == 0, np.nan, value), expected)
        report = make_report("x", {}, pairs, 1e-8)
        assert math.isnan(report.max_abs_err) and math.isnan(report.max_rel_err)
        assert not report.passed

    @pytest.mark.parametrize("pair", [(np.inf, 1.0), (1.0, np.inf)])
    def test_an_infinite_side_fails_the_report(self, pair):
        assert not make_report("x", {}, [(0.0, 0.0), pair], 1e-8).passed

    def test_passes_iff_the_relative_error_is_within_tolerance(self):
        # an absolute error of 2 on an expected value of 400 is 0.005 relative
        assert make_report("x", {}, [(402.0, 400.0)], 0.005).passed
        assert not make_report("x", {}, [(402.0, 400.0)], 0.004).passed

    def test_run_counts_a_report_by_its_pass_flag_and_a_verdict_as_passing(self):
        run = RunReport("verify", {}, [make_report("ok", {}, [(1.0, 1.0)], 0.0),
                                       make_report("bad", {}, [(2.0, 1.0)], 0.5),
                                       {"alpha": 0.5, "member": "no"}])
        assert (run.pass_count, run.fail_count) == (2, 1)
