"""Stretch-length searches past the range of the reference representatives.

Confirms by exhaustion that no classes exist at lengths 21 and 22; a few
seconds each on two cores.  Lengths beyond 22 grow steeply and are left to
manual runs of `nsq search --n <N>`."""

import pytest

from nsq.search import enumerate_classes


@pytest.mark.parametrize("n", [21, 22])
def test_searched_emptiness_at_stretch_lengths(n):
    assert enumerate_classes(n) == []
