import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from entcesaro.partitions import (
    Partition,
    canonicalize,
    enumerate_pair_partitions,
    is_crossing,
    parse_partition,
    remove_last_class,
    render_partition,
)

from conftest import crossing_by_quadruple_scan


def test_parse_examples():
    p = parse_partition("1,2,2,1")
    assert p.labels == (1, 2, 2, 1)
    assert (p.m, p.k) == (4, 2)
    assert p.class_pairs == ((1, 4), (2, 3))

    p = parse_partition("1,1")
    assert (p.m, p.k) == (2, 1)

    assert parse_partition("2,1,2,1").labels == (1, 2, 1, 2)


def test_parse_accepts_non_surjective_labels():
    assert parse_partition("1,3,1,3").labels == (1, 2, 1, 2)
    assert parse_partition("5,5,9,9").labels == (1, 1, 2, 2)


PAIR_MESSAGE = "class {} has {} elements, pair partition required"


@pytest.mark.parametrize("build, lab, count", [
    (lambda: Partition((1, 1, 1)), 1, 3),
    (lambda: Partition((1, 2, 2, 3, 3)), 1, 1),
    (lambda: parse_partition("1,3"), 1, 1),
    (lambda: parse_partition("1,2,2,2,1"), 2, 3),
    (lambda: canonicalize([5, 5, 9]), 2, 1),
    (lambda: canonicalize([7]), 1, 1),
])
def test_a_class_without_two_positions_is_refused(build, lab, count):
    # A Partition is a pair partition by construction: every way to build one checks it.
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == PAIR_MESSAGE.format(lab, count)


@pytest.mark.parametrize("text", ["", " ", "1,,2", "1,x", "0,1", "-1,1", "1.5,2"])
def test_parse_rejects_bad_input(text):
    with pytest.raises(ValueError):
        parse_partition(text)


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_numpy_integer_labels_give_the_tuple_partition(dtype):
    want = Partition((1, 2, 1, 2))
    for p in (Partition(np.array([1, 2, 1, 2], dtype=dtype)), canonicalize(np.array([3, 5, 3, 5], dtype=dtype))):
        assert p == want and hash(p) == hash(want)
        assert [type(lab) for lab in p.labels] == [int] * 4


@pytest.mark.parametrize("bad", [True, np.float64(1.0)])
def test_a_bool_or_float_label_is_refused(bad):
    for build in (Partition, canonicalize):
        with pytest.raises(ValueError, match=re.escape(f"label at position 1 is not an integer: {bad!r}")):
            build([bad, 1])


def test_partition_constructor_requires_canonical_labels():
    with pytest.raises(ValueError):
        Partition((2, 1))
    with pytest.raises(ValueError):
        Partition((1, 3))
    with pytest.raises(ValueError):
        Partition(())


def test_class_pairs_examples():
    assert parse_partition("1,2,1,2").class_pairs == ((1, 3), (2, 4))
    assert parse_partition("1,2,2,1").class_pairs == ((1, 4), (2, 3))
    assert parse_partition("1,1").class_pairs == ((1, 2),)


def test_class_pairs_tile_all_positions():
    for p in enumerate_pair_partitions(3):
        flat = sorted(pos for pair in p.class_pairs for pos in pair)
        assert flat == list(range(1, p.m + 1))
        assert all(i < j for i, j in p.class_pairs)
        assert [p.labels[i - 1] for i, _ in p.class_pairs] == list(range(1, p.k + 1))


def test_crossing_examples():
    assert is_crossing(parse_partition("1,2,1,2")) is True
    assert is_crossing(parse_partition("1,2,2,1")) is False
    assert is_crossing(parse_partition("1,1,2,2")) is False
    assert is_crossing(parse_partition("1,2,1,3,2,3")) is True


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_crossing_matches_quadruple_scan(k):
    for p in enumerate_pair_partitions(k):
        assert is_crossing(p) == crossing_by_quadruple_scan(p), p.labels


def test_enumeration_counts_match_double_factorial():
    expected = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945}
    for k, count in expected.items():
        parts = enumerate_pair_partitions(k)
        assert len(parts) == count
        assert len(set(parts)) == count
        assert all(p.m == 2 * k and len(p.class_pairs) == k for p in parts)
        assert [p.labels for p in parts] == sorted(p.labels for p in parts)


def test_enumeration_contains_known_partitions():
    assert Partition((1, 1)) in enumerate_pair_partitions(1)
    assert Partition((1, 2, 1, 3, 2, 3)) in enumerate_pair_partitions(3)


def test_enumeration_works_at_the_cap():
    assert len(enumerate_pair_partitions(6)) == 10395


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_pair_partitions(0)
    with pytest.raises(ValueError):
        enumerate_pair_partitions(7)


def test_remove_last_class_examples():
    assert remove_last_class(parse_partition("1,2,2,1")) == (Partition((1, 1)), 2)
    assert remove_last_class(parse_partition("1,2,1,2")) == (Partition((1, 1)), 2)
    assert remove_last_class(parse_partition("1,2,1,3,2,3")) == (Partition((1, 2, 1, 2)), 4)
    with pytest.raises(ValueError):
        remove_last_class(parse_partition("1,1"))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_remove_last_class_chain_terminates(k):
    for p in enumerate_pair_partitions(k):
        current = p
        for _ in range(k - 1):
            current, k_beta = remove_last_class(current)
            assert 1 <= k_beta <= p.m
        assert current == Partition((1, 1))


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=12))
@example([5, 5, 9, 9])
@example([3, 1, 6, 3, 1, 6])
def test_canonicalize_idempotent(labels):
    # Arbitrary label lists: canonicalize succeeds exactly on those where every label occurs twice.
    if any(labels.count(lab) != 2 for lab in labels):
        with pytest.raises(ValueError, match="pair partition required"):
            canonicalize(labels)
        return
    p = canonicalize(labels)
    assert parse_partition(render_partition(p)) == p
    assert canonicalize(p.labels) == p
    # relabeling preserves class membership
    for i in range(len(labels)):
        for j in range(len(labels)):
            assert (labels[i] == labels[j]) == (p.labels[i] == p.labels[j])
