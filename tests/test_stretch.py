"""Stretch-length searches past the range of most reference
representatives.

Confirms by exhaustion that no classes exist at lengths 21 to 24, that
lengths 25 and 29 have exactly the 4 and 2 bundled representatives, all
sporadic, and that length 26 has 2 classes, both of Golay type, as
class_counts.txt records: under a second each for 21 to 24, about 2 s
for 25 and 26 and 9 s for 29 in one process on two cores.  Lengths 27,
28, 30 and 31 hold no class; `nsq summary --from 27 --to 31 --threads 2`
confirms that in about a minute.  The Golay pairs of length 26, whose
embeddings give those 2 classes, take about 3 s in one process and 2 s
on two workers."""

import pytest

from nsq.equivalence import canonical_raw
from nsq.golay import embed, golay_pairs, golay_type_class_count
from nsq.search import enumerate_classes
from nsq.tables import load_tables


@pytest.mark.parametrize("n", [21, 22, 23, 24])
def test_searched_emptiness_at_stretch_lengths(n):
    assert enumerate_classes(n) == []


@pytest.mark.parametrize("n, classes", [(25, 4), (29, 2)])
def test_classes_are_the_bundled_rows(n, classes):
    records = enumerate_classes(n)
    rows = load_tables().reps_for(n)
    assert len(rows) == load_tables().counts[n].equ == classes
    assert sorted((r.p_code, r.q_code) for r in records) == sorted((r.p_code, r.q_code) for r in rows)
    assert not any(r.golay_type for r in records)


def test_length_26_class_count():
    records = enumerate_classes(26)
    count = load_tables().counts[26]
    assert (len(records), sum(r.golay_type for r in records)) == (count.equ, count.gol) == (2, 2)


def test_golay_pairs_of_length_26():
    # Serially, then through the worker pool, which splits the search into
    # shards from n = 17 up.  The count embeds one pair per orbit; every
    # pair's embeddings meet the same classes.
    pairs = golay_pairs(26)
    assert len(pairs) == 64
    every = {canonical_raw(quad.raw()) for pair in pairs for quad in embed(pair)}
    assert golay_type_class_count(26, workers=2) == len(every)
    assert len(every) == load_tables().counts[26].gol == 2
