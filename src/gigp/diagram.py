"""Frequency tables, Young diagram boundaries and the empirical processes.

A frequency table {j: M_j} of counts-of-counts is read as a Young
diagram: Y(x) = #{sources with value >= x} is its upper boundary, a
right-continuous step function with total width M = sum M_j and area
N = sum j M_j (where j = 0 entries add sources but no area).
"""

from __future__ import annotations

import operator
from typing import Iterable, Mapping

import numpy as np


_INT64_MAX = 2 ** 63 - 1


def _int64_column(values, what: str) -> np.ndarray:
    """values as an int64 array; ValueError unless each is an integer in [0, 2**63)."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        ok = np.all(np.isfinite(arr) & (arr == np.floor(arr)) & (arr < 2.0 ** 63))
    else:
        ok = arr.dtype.kind in "biu" and (arr.size == 0 or arr.max() <= _INT64_MAX)
    if not ok or arr.ndim != 1 or np.any(arr < 0):
        raise ValueError(f"table {what} must be nonnegative integers below 2**63")
    return arr.astype(np.int64, copy=False)


class FrequencyTable:
    """Immutable counts-of-counts {value j >= 0: multiplicity M_j >= 1}.

    Held as read-only int64 arrays in increasing j, `support` (the
    values j), `mult` (their multiplicities M_j) and `suffix` (the
    Young diagram Y at each support value, then 0), with the exact
    integer totals M = sum M_j and N = sum j M_j. `counts` gives the
    same table as a dict.
    """

    __slots__ = ("support", "mult", "suffix", "M", "N")

    def __init__(self, counts: Mapping[int, int]):
        support = _int64_column(list(counts.keys()), "keys")
        mult = _int64_column(list(counts.values()), "counts")
        keep = mult > 0
        order = np.argsort(support[keep])
        self._fill(support[keep][order], mult[keep][order])

    @classmethod
    def _from_sorted(cls, support: np.ndarray, mult: np.ndarray) -> "FrequencyTable":
        """A table from int64 arrays already increasing in j, with every M_j >= 1."""
        table = cls.__new__(cls)
        table._fill(support, mult)
        return table

    def _fill(self, support: np.ndarray, mult: np.ndarray) -> None:
        self.M = sum(mult.tolist())
        if self.M > _INT64_MAX:
            raise ValueError("table counts must sum below 2**63")
        self.N = sum(map(operator.mul, support.tolist(), mult.tolist()))
        suffix = np.concatenate([np.cumsum(mult[::-1])[::-1], [0]])
        for arr in (support, mult, suffix):
            arr.flags.writeable = False
        self.support, self.mult, self.suffix = support, mult, suffix

    @property
    def counts(self) -> dict[int, int]:
        """The table as a dict {j: M_j} in increasing j, built on each access."""
        return dict(zip(self.support.tolist(), self.mult.tolist()))

    def __eq__(self, other):
        return (isinstance(other, FrequencyTable)
                and np.array_equal(self.support, other.support)
                and np.array_equal(self.mult, other.mult))

    def __repr__(self):
        return f"FrequencyTable(M={self.M}, N={self.N}, distinct={len(self.support)})"


def table_from_sample(values: Iterable[int]) -> FrequencyTable:
    """Aggregate raw draws into a frequency table."""
    arr = _int64_column(values if isinstance(values, np.ndarray) else list(values), "values")
    if arr.size == 0:
        raise ValueError("values must be nonempty")
    # sorted draws come in runs, one per support value; draws already sorted
    # (as sample makes them) are counted in place
    if np.any(arr[1:] < arr[:-1]):
        arr = np.sort(arr)
    starts = np.concatenate([[0], np.flatnonzero(arr[1:] != arr[:-1]) + 1])
    return FrequencyTable._from_sorted(arr[starts], np.diff(starts, append=arr.size))


def young_y(table: FrequencyTable, x):
    """Boundary height Y(x) = #{sources with value >= x}: an int for a
    number x, an int64 array for an array of them."""
    out = table.suffix[np.searchsorted(table.support, np.asarray(x), side="left")]
    return int(out) if np.ndim(x) == 0 else out
