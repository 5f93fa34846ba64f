"""Stretch-length searches past the range of the reference representatives.

Confirms by exhaustion that no classes exist at lengths 21 to 24; a few
seconds each on two cores.  Lengths 25 and 26 take about a minute each
and are left to manual runs of `nsq search --n <N>`."""

import pytest

from nsq.search import enumerate_classes


@pytest.mark.parametrize("n", [21, 22, 23, 24])
def test_searched_emptiness_at_stretch_lengths(n):
    assert enumerate_classes(n) == []
