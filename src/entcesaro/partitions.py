"""Partitions of {1,...,m} in canonical form, with pair/crossing structure.

A partition is stored as its label sequence: position i (1-based) belongs
to class ``labels[i-1]``.  Canonical form numbers classes by order of first
occurrence, so set-level equality of partitions is plain sequence equality.
"""

from __future__ import annotations

from typing import NamedTuple

from ._record import ValueRecord

__all__ = [
    "Partition",
    "PartitionStructure",
    "canonicalize",
    "parse_partition",
    "render_partition",
    "require_pair",
    "is_crossing",
    "enumerate_pair_partitions",
    "remove_last_class",
]

ENUMERATION_MAX_K = 6  # (2k-1)!! = 10395 at k=6; larger sweeps are not useful at desk scale


class Partition(ValueRecord):
    """A canonical partition of {1,...,m} into k classes; ``labels`` is kept as a tuple."""

    _fields = ("labels",)

    def __init__(self, labels):
        labels = tuple(labels)
        if not labels:
            raise ValueError("partition must have at least one element")
        next_new = 1
        for pos, lab in enumerate(labels, start=1):
            if not isinstance(lab, int) or isinstance(lab, bool):
                raise ValueError(f"label at position {pos} is not an integer: {lab!r}")
            if lab < 1:
                raise ValueError(f"label at position {pos} must be positive, got {lab}")
            if lab > next_new:
                raise ValueError(
                    f"labels are not canonical at position {pos}: "
                    f"got {lab}, expected a value <= {next_new}"
                )
            if lab == next_new:
                next_new += 1
        self.__dict__["labels"] = labels

    def _values(self) -> tuple:
        return (self.labels,)

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def k(self) -> int:
        return max(self.labels)

    def class_positions(self) -> list[tuple[int, ...]]:
        """1-based positions of each class, indexed by class label - 1."""
        out: list[list[int]] = [[] for _ in range(self.k)]
        for pos, lab in enumerate(self.labels, start=1):
            out[lab - 1].append(pos)
        return [tuple(ps) for ps in out]

    def is_pair(self) -> bool:
        return all(len(ps) == 2 for ps in self.class_positions())

    def __str__(self):
        return render_partition(self)


class PartitionStructure(NamedTuple):
    """Class pairs (i_l, j_l) of a pair partition, with i_l < j_l.

    ``i_max`` is the largest first element over all classes; every position
    after it is a second element, so ``j_next = i_max + 1`` always exists.
    ``j_next`` is bookkeeping only, no engine behavior depends on it.
    """

    class_pairs: tuple[tuple[int, int], ...]
    i_max: int
    j_next: int


def canonicalize(labels) -> Partition:
    """Relabel classes by order of first occurrence (1, 2, ...)."""
    seq = list(labels)
    if not seq:
        raise ValueError("partition must have at least one element")
    relabel: dict[int, int] = {}
    out = []
    for pos, lab in enumerate(seq, start=1):
        if not isinstance(lab, int) or isinstance(lab, bool):
            raise ValueError(f"label at position {pos} is not an integer: {lab!r}")
        if lab < 1:
            raise ValueError(f"label at position {pos} must be positive, got {lab}")
        if lab not in relabel:
            relabel[lab] = len(relabel) + 1
        out.append(relabel[lab])
    return Partition(tuple(out))


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


def require_pair(p: Partition) -> PartitionStructure:
    """Return the (i_l, j_l) class pairs of a pair partition, sorted by class."""
    pairs = []
    for lab, positions in enumerate(p.class_positions(), start=1):
        if len(positions) != 2:
            raise ValueError(
                f"class {lab} has {len(positions)} elements, pair partition required"
            )
        pairs.append((positions[0], positions[1]))
    i_max = max(i for i, _ in pairs)
    return PartitionStructure(tuple(pairs), i_max, i_max + 1)


def is_crossing(p: Partition) -> bool:
    """True iff positions a<b<c<d exist with a,c in one class and b,d in another.

    Uses the parenthesis-matching scan: a pair partition is non-crossing exactly
    when every second occurrence closes the most recently opened class.  The
    O(m^4) quadruple scan is kept in the test suite as the independent oracle.
    """
    require_pair(p)
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
    structure = require_pair(p)
    if p.k < 2:
        raise ValueError("need at least two classes to remove one")
    i_k, j_k = structure.class_pairs[p.k - 1]
    labels = [lab for pos, lab in enumerate(p.labels, start=1) if pos not in (i_k, j_k)]
    return canonicalize(labels), i_k
