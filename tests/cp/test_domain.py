"""Tests of finite integer domains (sparse-set and interval representations)."""

import pytest

from repro.cp.domain import Domain, IntervalDomain
from repro.model.errors import InconsistencyError


class TestConstruction:
    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Domain([])

    def test_duplicates_collapse(self):
        assert len(Domain([1, 1, 2])) == 2

    def test_min_max(self):
        domain = Domain([5, 1, 9])
        assert domain.min == 1 and domain.max == 9

    def test_values_and_raw_values(self):
        domain = Domain([3, 1])
        assert domain.values() == (1, 3)
        assert set(domain.raw_values()) == {1, 3}


class TestMutations:
    def test_remove_returns_removed_count(self):
        domain = Domain([1, 2, 3])
        assert domain.remove(2) == 1
        assert 2 not in domain

    def test_remove_absent_value_is_noop(self):
        domain = Domain([1, 2])
        assert domain.remove(9) == 0
        assert len(domain) == 2

    def test_remove_last_value_raises(self):
        with pytest.raises(InconsistencyError):
            Domain([1]).remove(1)

    def test_remove_many(self):
        domain = Domain(range(5))
        assert domain.remove_many([0, 1, 7]) == 2
        assert domain.values() == (2, 3, 4)

    def test_remove_many_emptying_raises(self):
        with pytest.raises(InconsistencyError):
            Domain([1, 2]).remove_many([1, 2])

    def test_assign(self):
        domain = Domain([1, 2, 3])
        assert domain.assign(2) == 2
        assert domain.is_singleton and domain.value == 2

    def test_assign_missing_value_raises(self):
        with pytest.raises(InconsistencyError):
            Domain([1, 2]).assign(7)

    def test_remove_above_and_below(self):
        domain = Domain(range(10))
        domain.remove_above(6)
        domain.remove_below(3)
        assert domain.values() == (3, 4, 5, 6)

    def test_min_max_track_removals(self):
        domain = Domain(range(10))
        domain.remove(0)
        domain.remove(9)
        assert domain.min == 1 and domain.max == 8

    def test_value_of_non_singleton_raises(self):
        with pytest.raises(ValueError):
            Domain([1, 2]).value

    def test_copy_is_independent(self):
        domain = Domain([1, 2, 3])
        clone = domain.copy()
        clone.remove(1)
        assert 1 in domain and 1 not in clone


class TestTrailSupport:
    """mark()/restore_to() back the solver trail with O(1) state restores."""

    def test_restore_brings_removed_values_back(self):
        domain = Domain([1, 2, 3, 4])
        token = domain.mark()
        domain.remove(2)
        domain.remove_many([1, 4])
        domain.restore_to(token)
        assert domain.values() == (1, 2, 3, 4)

    def test_restore_after_assign(self):
        domain = Domain([1, 2, 3])
        token = domain.mark()
        domain.assign(3)
        domain.restore_to(token)
        assert domain.values() == (1, 2, 3)

    def test_nested_marks_restore_in_reverse_order(self):
        domain = Domain(range(6))
        outer = domain.mark()
        domain.remove(0)
        inner = domain.mark()
        domain.remove_many([1, 2])
        domain.restore_to(inner)
        assert domain.values() == (1, 2, 3, 4, 5)
        domain.restore_to(outer)
        assert domain.values() == (0, 1, 2, 3, 4, 5)


class TestIntervalDomain:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalDomain(5, 3)

    def test_queries(self):
        domain = IntervalDomain(2, 5)
        assert len(domain) == 4
        assert domain.min == 2 and domain.max == 5
        assert 3 in domain and 6 not in domain
        assert domain.values() == (2, 3, 4, 5)

    def test_bound_tightening(self):
        domain = IntervalDomain(0, 100)
        assert domain.remove_above(10) == 90
        assert domain.remove_below(5) == 5
        assert domain.values() == (5, 6, 7, 8, 9, 10)

    def test_bound_tightening_noop(self):
        domain = IntervalDomain(0, 10)
        assert domain.remove_above(10) == 0
        assert domain.remove_below(0) == 0

    def test_emptying_bounds_raise(self):
        with pytest.raises(InconsistencyError):
            IntervalDomain(5, 10).remove_above(4)
        with pytest.raises(InconsistencyError):
            IntervalDomain(5, 10).remove_below(11)

    def test_assign_and_singleton(self):
        domain = IntervalDomain(0, 9)
        assert domain.assign(4) == 9
        assert domain.is_singleton and domain.value == 4
        with pytest.raises(InconsistencyError):
            IntervalDomain(0, 3).assign(7)

    def test_mark_restore(self):
        domain = IntervalDomain(0, 100)
        token = domain.mark()
        domain.remove_above(10)
        domain.remove_below(5)
        domain.restore_to(token)
        assert domain.min == 0 and domain.max == 100
