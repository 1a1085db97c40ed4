"""Tests of the resource vector arithmetic."""

import pytest

from repro.model.resources import ResourceVector


class TestArithmetic:
    def test_addition(self):
        assert ResourceVector(1, 512) + ResourceVector(2, 256) == ResourceVector(3, 768)

    def test_subtraction(self):
        assert ResourceVector(3, 768) - ResourceVector(2, 256) == ResourceVector(1, 512)

    def test_subtraction_can_go_negative(self):
        result = ResourceVector(1, 100) - ResourceVector(2, 300)
        assert result == ResourceVector(-1, -200)

    def test_scalar_multiplication(self):
        assert ResourceVector(1, 512) * 3 == ResourceVector(3, 1536)
        assert 2 * ResourceVector(2, 10) == ResourceVector(4, 20)

    def test_negation(self):
        assert -ResourceVector(1, 2) == ResourceVector(-1, -2)

    def test_total(self):
        vectors = [ResourceVector(1, 100), ResourceVector(0, 200), ResourceVector(2, 50)]
        assert ResourceVector.total(vectors) == ResourceVector(3, 350)

    def test_total_of_empty_iterable_is_zero(self):
        assert ResourceVector.total([]) == ResourceVector(0, 0)


class TestComparisons:
    def test_fits_in_true_when_both_dimensions_fit(self):
        assert ResourceVector(1, 512).fits_in(ResourceVector(2, 1024))

    def test_fits_in_false_when_cpu_exceeds(self):
        assert not ResourceVector(3, 512).fits_in(ResourceVector(2, 1024))

    def test_fits_in_false_when_memory_exceeds(self):
        assert not ResourceVector(1, 2048).fits_in(ResourceVector(2, 1024))

    def test_fits_in_accepts_equality(self):
        assert ResourceVector(2, 1024).fits_in(ResourceVector(2, 1024))


class TestHelpers:
    def test_as_tuple_and_iter(self):
        vector = ResourceVector(2, 4096)
        assert vector.as_tuple() == (2, 4096)
        assert tuple(vector) == (2, 4096)

    def test_immutability(self):
        vector = ResourceVector(1, 2)
        with pytest.raises(AttributeError):
            vector.cpu = 5  # type: ignore[misc]

    def test_defaults_are_zero(self):
        assert ResourceVector() == ResourceVector(0, 0)
