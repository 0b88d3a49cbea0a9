from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tandem.seeding import rng_for


def test_same_labels_give_identical_streams():
    a = rng_for(7, "batch").standard_normal(16)
    b = rng_for(7, "batch").standard_normal(16)
    assert np.array_equal(a, b)


def test_different_labels_give_different_streams():
    a = rng_for(7, "batch").standard_normal(16)
    b = rng_for(7, "init-theta").standard_normal(16)
    assert not np.array_equal(a, b)


def test_different_seeds_give_different_streams():
    a = rng_for(0, "batch").standard_normal(16)
    b = rng_for(1, "batch").standard_normal(16)
    assert not np.array_equal(a, b)


def test_integer_labels_extend_the_stream_name():
    a = rng_for(3, "gnf", 0).standard_normal(4)
    b = rng_for(3, "gnf", 1).standard_normal(4)
    c = rng_for(3, "gnf", 0).standard_normal(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        rng_for(-1, "batch")


def test_negative_integer_label_rejected():
    with pytest.raises(ValueError):
        rng_for(0, "gnf", -2)


def label_tuples(length):
    """Labels as the package uses them: a name, then ``length`` indices."""
    return st.tuples(st.text(max_size=8),
                     st.lists(st.integers(0, 2**32 - 1), min_size=length,
                              max_size=length))


# The tuples compared have equal length and indices below 2**32: a stream's
# entropy is the seed and label codes as 32-bit words, so a trailing zero
# index, or an index split into two words, would name another tuple's stream.
@given(st.integers(0, 2**32 - 1),
       st.integers(0, 2).flatmap(lambda n: st.tuples(label_tuples(n), label_tuples(n))))
def test_streams_are_equal_for_equal_labels_and_differ_otherwise(seed, pair):
    (name_a, idx_a), (name_b, idx_b) = pair
    a = rng_for(seed, name_a, *idx_a).standard_normal(4)
    assert np.array_equal(a, rng_for(seed, name_a, *idx_a).standard_normal(4))
    codes_a = [zlib.crc32(name_a.encode("utf-8")), *idx_a]
    codes_b = [zlib.crc32(name_b.encode("utf-8")), *idx_b]
    assume(codes_a != codes_b)
    assert a[0] != rng_for(seed, name_b, *idx_b).standard_normal(4)[0]


@given(st.integers(0, 2**64),
       st.lists(st.one_of(st.text(max_size=8), st.integers(0, 2**40)), max_size=3))
def test_streams_draw_what_the_seed_sequence_of_their_entropy_list_draws(seed, labels):
    codes = [l if isinstance(l, int) else zlib.crc32(l.encode("utf-8")) for l in labels]
    expected = np.random.default_rng(np.random.SeedSequence([seed, *codes]))
    ours = rng_for(seed, *labels)
    assert ours.standard_normal(6).tobytes() == expected.standard_normal(6).tobytes()
    assert np.array_equal(ours.integers(0, 2**63, 4), expected.integers(0, 2**63, 4))
