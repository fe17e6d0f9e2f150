"""Pair partitions of {1,...,2k} in canonical form, with their crossing structure.

A partition is stored as its label sequence: position i (1-based) belongs
to class ``labels[i-1]``.  Canonical form numbers classes by order of first
occurrence, so set-level equality of partitions is plain sequence equality.
Every class has exactly two positions: a ``Partition`` is a pair partition
by construction.
"""

from __future__ import annotations

import operator

from ._record import ValueRecord

__all__ = [
    "Partition",
    "canonicalize",
    "parse_partition",
    "render_partition",
    "is_crossing",
    "enumerate_pair_partitions",
    "remove_last_class",
]

ENUMERATION_MAX_K = 6  # (2k-1)!! = 10395 at k=6; larger sweeps are not useful at desk scale


def _labels(labels) -> tuple[int, ...]:
    """``labels`` as a tuple of positive Python ints; a label may be any integer but a bool, such as a numpy
    integer (one with ``__index__``).  A tuple of Python ints is returned as it is."""
    labels = tuple(labels)
    for pos, lab in enumerate(labels, start=1):
        if isinstance(lab, bool) or not hasattr(lab, "__index__"):
            raise ValueError(f"label at position {pos} is not an integer: {lab!r}")
        if lab < 1:
            raise ValueError(f"label at position {pos} must be positive, got {lab}")
    return labels if all(type(lab) is int for lab in labels) else tuple(map(operator.index, labels))


class Partition(ValueRecord):
    """A canonical pair partition of {1,...,2k} into k classes; ``labels`` is kept as a tuple.

    ``class_pairs`` holds the positions (i, j), i < j, of each class, indexed by class label - 1.
    A class with other than two positions is refused.
    """

    _fields = ("labels",)

    def __init__(self, labels):
        labels = _labels(labels)
        if not labels:
            raise ValueError("partition must have at least one element")
        positions: list[list[int]] = []
        for pos, lab in enumerate(labels, start=1):
            if lab > len(positions) + 1:
                raise ValueError(
                    f"labels are not canonical at position {pos}: "
                    f"got {lab}, expected a value <= {len(positions) + 1}"
                )
            if lab == len(positions) + 1:
                positions.append([])
            positions[lab - 1].append(pos)
        for lab, ps in enumerate(positions, start=1):
            if len(ps) != 2:
                raise ValueError(f"class {lab} has {len(ps)} elements, pair partition required")
        self.__dict__.update(labels=labels, class_pairs=tuple(map(tuple, positions)))

    def _values(self) -> tuple:
        return (self.labels,)

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def k(self) -> int:
        return len(self.class_pairs)

    def __str__(self):
        return render_partition(self)


def canonicalize(labels) -> Partition:
    """Relabel classes by order of first occurrence (1, 2, ...) into a pair partition."""
    relabel: dict[int, int] = {}  # each label's class number, in order of first occurrence
    return Partition([relabel.setdefault(lab, len(relabel) + 1) for lab in _labels(labels)])


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated label list such as "1,2,1,2"."""
    tokens = [t.strip() for t in text.split(",")]
    if tokens == [""]:
        raise ValueError("empty partition text")
    labels = []
    for tok in tokens:
        if not tok:
            raise ValueError(f"empty token in partition text: {text!r}")
        try:
            labels.append(int(tok))
        except ValueError:
            raise ValueError(f"non-integer token {tok!r} in partition text") from None
    return canonicalize(labels)


def render_partition(p: Partition) -> str:
    return ",".join(str(lab) for lab in p.labels)


def is_crossing(p: Partition) -> bool:
    """True iff positions a<b<c<d exist with a,c in one class and b,d in another.

    Uses the parenthesis-matching scan: a pair partition is non-crossing exactly
    when every second occurrence closes the most recently opened class.  The
    O(m^4) quadruple scan is kept in the test suite as the independent oracle.
    """
    stack: list[int] = []
    seen: set[int] = set()
    for lab in p.labels:
        if lab not in seen:
            seen.add(lab)
            stack.append(lab)
        else:
            if stack[-1] != lab:
                return True
            stack.pop()
    return False


def _matchings(positions: tuple[int, ...]):
    """Yield all pairings of the given sorted positions."""
    if not positions:
        yield ()
        return
    first = positions[0]
    for idx in range(1, len(positions)):
        partner = positions[idx]
        rest = positions[1:idx] + positions[idx + 1 :]
        for sub in _matchings(rest):
            yield ((first, partner),) + sub


def enumerate_pair_partitions(k: int) -> list[Partition]:
    """All canonical pair partitions of {1,...,2k}, lexicographically ordered."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > ENUMERATION_MAX_K:
        raise ValueError(f"k={k} exceeds the enumeration cap {ENUMERATION_MAX_K}")
    out = []
    for pairing in _matchings(tuple(range(1, 2 * k + 1))):
        labels = [0] * (2 * k)
        for lab, (i, j) in enumerate(pairing, start=1):
            labels[i - 1] = lab
            labels[j - 1] = lab
        out.append(Partition(tuple(labels)))
    out.sort(key=lambda p: p.labels)
    return out


def remove_last_class(p: Partition) -> tuple[Partition, int]:
    """Delete both positions of the last class of a pair partition.

    Returns the re-canonicalized partition on 2k-2 elements together with
    k_beta, the first position of the deleted class in the original partition.
    """
    if p.k < 2:
        raise ValueError("need at least two classes to remove one")
    i_k, j_k = p.class_pairs[-1]
    labels = [lab for pos, lab in enumerate(p.labels, start=1) if pos not in (i_k, j_k)]
    return canonicalize(labels), i_k
