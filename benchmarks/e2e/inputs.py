"""Seeded inputs: ENEDIS-like and Flights-like tables as CSV and row blocks.

The benchmark makes its own inputs so that a change to the program's
dataset module cannot change what is measured.  The shapes follow the
paper's Table 2 datasets as the repository scales them (domain sizes,
Zipf-like value skew, planted per-value mean and spread effects).

Rows come in blocks.  Block 0 is the base table; block ``k >= 1`` is the
``k``-th appended block.  A block depends only on ``(seed, k)``, and the
planted effects only on ``seed``, so an appended block is drawn from the
same distribution as the base rows and any block can be rebuilt later
for a cold comparison run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Table shape: ``(name, domain size, skew)`` categoricals and
    ``(name, base, noise)`` measures."""

    name: str
    categoricals: tuple[tuple[str, int, float], ...]
    measures: tuple[tuple[str, float, float], ...]
    #: Log-normal sigma of the per-value mean and spread multipliers.
    effect_sigma: float = 0.35

    @property
    def columns(self) -> list[str]:
        return [c[0] for c in self.categoricals] + [m[0] for m in self.measures]


ENEDIS = Shape(
    "enedis",
    categoricals=(
        ("year", 3, 0.0), ("category", 4, 0.6), ("sector", 8, 0.6),
        ("tariff", 5, 0.6), ("department", 16, 0.5), ("region", 12, 0.4),
        ("iris", 60, 0.9),
    ),
    measures=(("consumption_kwh", 900.0, 250.0), ("n_meters", 120.0, 35.0)),
)

FLIGHTS = Shape(
    "flights",
    categoricals=(
        ("day_of_week", 7, 0.1), ("carrier", 12, 0.7), ("month", 12, 0.1),
        ("origin_state", 25, 0.8), ("distance_band", 8, 0.3),
    ),
    measures=(
        ("dep_delay", 18.0, 22.0), ("arr_delay", 15.0, 25.0),
        ("taxi_time", 14.0, 5.0),
    ),
    effect_sigma=0.3,
)


def _zipf(n: int, skew: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -skew
    return weights / weights.sum()


def block(shape: Shape, seed: int, index: int, n_rows: int) -> dict[str, list]:
    """Rows of block ``index`` as column name -> values (str or float)."""
    effects = np.random.default_rng([seed, 0])
    rng = np.random.default_rng([seed, 1, index])
    codes = {}
    columns: dict[str, list] = {}
    for name, size, skew in shape.categoricals:
        codes[name] = rng.choice(size, size=n_rows, p=_zipf(size, skew))
        columns[name] = [f"{name}_{code}" for code in codes[name]]
    for name, base, noise in shape.measures:
        mean = np.ones(n_rows)
        spread = np.ones(n_rows)
        for attr, size, _ in shape.categoricals:
            mean *= effects.lognormal(0.0, shape.effect_sigma, size)[codes[attr]]
            spread *= effects.lognormal(0.0, shape.effect_sigma, size)[codes[attr]]
        values = base * mean + rng.normal(0.0, noise, n_rows) * spread
        columns[name] = [float(v) for v in values]
    return columns


def concat(blocks: list[dict[str, list]]) -> dict[str, list]:
    return {name: [v for b in blocks for v in b[name]] for name in blocks[0]}


def write_csv(columns: dict[str, list], path: Path) -> Path:
    """Write columns as CSV; floats use ``repr`` so they read back exactly."""
    names = list(columns)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        writer.writerows(zip(*(columns[n] for n in names)))
    return path
