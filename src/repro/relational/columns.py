"""Column storage for the in-memory columnar engine.

Two concrete column types exist, matching the paper's data model:

* :class:`CategoricalColumn` — dictionary-encoded strings: a tuple of unique
  category labels plus an ``int32`` code array.  Dictionary encoding makes
  group-by and equality selection cheap (integer comparisons) and keeps the
  memory footprint predictable, which Algorithm 2's memory-budgeted
  aggregate cache relies on.
* :class:`MeasureColumn` — a ``float64`` array; ``NaN`` encodes SQL ``NULL``.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from repro.errors import SchemaError

#: Sentinel label used to display a NULL categorical value.
NULL_LABEL = ""


class CategoricalColumn:
    """Dictionary-encoded column of string categories.

    Parameters
    ----------
    codes:
        ``int32`` array of indices into ``categories``; ``-1`` encodes NULL.
    categories:
        Unique labels, in code order.
    """

    __slots__ = ("codes", "categories", "_category_index")

    def __init__(self, codes: np.ndarray, categories: Sequence[str]):
        codes = np.asarray(codes, dtype=np.int32)
        cats = tuple(str(c) for c in categories)
        if len(set(cats)) != len(cats):
            raise SchemaError("categorical categories must be unique")
        if codes.size and (codes.max(initial=-1) >= len(cats) or codes.min(initial=0) < -1):
            raise SchemaError("categorical codes out of range")
        self.codes = codes
        self.categories = cats
        self._category_index: dict[str, int] | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_values(cls, values: Iterable[object]) -> "CategoricalColumn":
        """Build a column from raw values; ``None`` and ``""`` become NULL
        (code ``-1``), never a dictionary entry."""
        labels = [NULL_LABEL if v is None else str(v) for v in values]
        categories: list[str] = []
        index: dict[str, int] = {}
        codes = np.empty(len(labels), dtype=np.int32)
        for i, label in enumerate(labels):
            if label == NULL_LABEL:
                codes[i] = -1
                continue
            code = index.get(label)
            if code is None:
                code = len(categories)
                index[label] = code
                categories.append(label)
            codes[i] = code
        return cls(codes, categories)

    # -- basic protocol -------------------------------------------------------

    def __len__(self) -> int:
        return int(self.codes.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CategoricalColumn):
            return NotImplemented
        return self.to_list() == other.to_list()

    def __repr__(self) -> str:
        return f"CategoricalColumn(n={len(self)}, n_categories={len(self.categories)})"

    @property
    def is_categorical(self) -> bool:
        return True

    # -- accessors ------------------------------------------------------------

    def code_of(self, label: str) -> int:
        """Code for ``label``, or ``-1`` if the label is not in the dictionary."""
        if self._category_index is None:
            self._category_index = {c: i for i, c in enumerate(self.categories)}
        return self._category_index.get(str(label), -1)

    def values(self) -> np.ndarray:
        """Materialize labels as an object array (NULL codes map to '')."""
        lookup = np.array(self.categories + (NULL_LABEL,), dtype=object)
        return lookup[self.codes]

    def to_list(self) -> list[str]:
        return list(self.values())

    def n_distinct(self) -> int:
        """Number of distinct non-null values actually present."""
        present = self.codes[self.codes >= 0]
        return int(np.unique(present).size)

    def equals_mask(self, label: str) -> np.ndarray:
        """Boolean mask of rows equal to ``label`` (vectorized)."""
        code = self.code_of(label)
        if code < 0:
            return np.zeros(len(self), dtype=bool)
        return self.codes == code

    def take(self, indices: np.ndarray) -> "CategoricalColumn":
        """Row subset (categories dictionary is shared, not compacted)."""
        return CategoricalColumn(self.codes[indices], self.categories)

    def compact(self) -> "CategoricalColumn":
        """Re-encode so the dictionary only contains present categories."""
        present = np.unique(self.codes[self.codes >= 0])
        remap = np.full(len(self.categories) + 1, -1, dtype=np.int32)
        for new_code, old_code in enumerate(present):
            remap[old_code] = new_code
        codes = remap[self.codes]  # codes==-1 indexes remap[-1] == -1, still NULL
        categories = [self.categories[c] for c in present]
        return CategoricalColumn(codes, categories)

    def estimated_bytes(self) -> int:
        """Approximate memory footprint (codes + dictionary)."""
        dictionary = sum(len(c) for c in self.categories) + 50 * len(self.categories)
        return int(self.codes.nbytes) + dictionary


class MeasureColumn:
    """Numeric column stored as ``float64``; ``NaN`` encodes NULL."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)

    @classmethod
    def from_values(cls, values: Iterable[object]) -> "MeasureColumn":
        """Build a column from raw values; ``None``/'' become NaN."""
        out = []
        for v in values:
            if v is None or (isinstance(v, str) and not v.strip()):
                out.append(np.nan)
            else:
                out.append(float(v))
        return cls(np.array(out, dtype=np.float64))

    def __len__(self) -> int:
        return int(self.data.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeasureColumn):
            return NotImplemented
        if len(self) != len(other):
            return False
        a, b = self.data, other.data
        both_nan = np.isnan(a) & np.isnan(b)
        return bool(np.all(both_nan | (a == b)))

    def __repr__(self) -> str:
        return f"MeasureColumn(n={len(self)})"

    @property
    def is_categorical(self) -> bool:
        return False

    def values(self) -> np.ndarray:
        return self.data

    def to_list(self) -> list[float]:
        return list(self.data)

    def n_distinct(self) -> int:
        finite = self.data[~np.isnan(self.data)]
        return int(np.unique(finite).size)

    def take(self, indices: np.ndarray) -> "MeasureColumn":
        return MeasureColumn(self.data[indices])

    def estimated_bytes(self) -> int:
        return int(self.data.nbytes)


Column = Union[CategoricalColumn, MeasureColumn]


def column_from_values(values: Sequence[object], is_measure: bool) -> Column:
    """Dispatch constructor used by the CSV reader and table builders."""
    if is_measure:
        return MeasureColumn.from_values(values)
    return CategoricalColumn.from_values(values)
