"""Top-level configuration: one object for the whole pipeline.

:class:`ReproConfig` unifies every knob surface that previously had to be
threaded separately — :class:`~repro.generation.config.GenerationConfig`
(with its nested :class:`~repro.insights.significance.SignificanceConfig`
and :class:`~repro.parallel.config.ParallelConfig`) plus the TAP-side
settings (notebook budget ``eps_t``, distance bound ``eps_d``, solver
choice, deadline).  It is what the :mod:`repro.api` facade and the CLI
consume, and it round-trips through JSON-friendly dicts
(:meth:`to_dict` / :meth:`from_dict`).  :func:`repro.generation.preset` returns the paper's
named Table 3/7 configurations as instances of it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ReproError
from repro.generation.config import GenerationConfig, SamplingSpec
from repro.insights.significance import SignificanceConfig
from repro.parallel.config import ParallelConfig
from repro.queries.distance import DistanceWeights
from repro.queries.interestingness import InterestingnessConfig

__all__ = ["ReproConfig"]

#: TAP solver names accepted by ``ReproConfig.solver``.
SOLVER_NAMES: tuple[str, ...] = ("heuristic", "exact")


def _plain(obj) -> dict:
    """A flat dataclass as a JSON-friendly dict (tuples become lists)."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _build(cls, payload: Mapping, label: str):
    """Construct a flat dataclass from a mapping, rejecting unknown keys."""
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ReproError(
            f"unknown {label} keys {sorted(unknown)}; known: {sorted(known)}"
        )
    return cls(**payload)


@dataclass(frozen=True, slots=True)
class ReproConfig:
    """Everything one end-to-end run needs, in one immutable object.

    Attributes
    ----------
    generation:
        Query-generation settings (aggregates, insight types, statistical
        tests, evaluator, execution backend, parallel layer).
    budget:
        Notebook length ``eps_t`` — the TAP time budget.
    epsilon_distance:
        TAP distance bound ``eps_d``; ``None`` derives the default
        (4 per transition, as the pipeline has always done).
    solver:
        ``"heuristic"`` (Algorithm 3) or ``"exact"`` (branch-and-bound).
    exact_timeout:
        Wall-clock limit for the exact solver, seconds (None = unbounded).
    max_exact_queries:
        Instance-size guard for the exact solver's distance matrix.
    deadline_seconds:
        Wall-clock budget for the whole run; stages degrade through the
        runtime ladder instead of overrunning (None = no deadline).
    """

    generation: GenerationConfig = field(default_factory=GenerationConfig)
    budget: float = 10.0
    epsilon_distance: float | None = None
    solver: str = "heuristic"
    exact_timeout: float | None = 60.0
    max_exact_queries: int = 2000
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.solver not in SOLVER_NAMES:
            raise ReproError(f"unknown solver {self.solver!r}; known: {SOLVER_NAMES}")
        if self.budget <= 0:
            raise ReproError(f"budget must be positive, got {self.budget}")
        if self.epsilon_distance is not None and self.epsilon_distance < 0:
            raise ReproError("epsilon_distance cannot be negative")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ReproError("deadline_seconds must be positive when set")
        if self.max_exact_queries < 1:
            raise ReproError("max_exact_queries must be at least 1")

    # -- convenience views ---------------------------------------------------

    @property
    def significance(self) -> SignificanceConfig:
        return self.generation.significance

    @property
    def parallel(self) -> ParallelConfig:
        return self.generation.parallel

    @property
    def backend(self) -> str:
        return self.generation.backend

    # -- functional updates --------------------------------------------------

    def replace(self, **changes) -> "ReproConfig":
        """A copy with top-level fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_generation(self, **changes) -> "ReproConfig":
        """A copy with fields of ``generation`` replaced."""
        return self.replace(
            generation=dataclasses.replace(self.generation, **changes)
        )

    def with_significance(self, **changes) -> "ReproConfig":
        """A copy with fields of ``generation.significance`` replaced."""
        return self.with_generation(
            significance=dataclasses.replace(self.generation.significance, **changes)
        )

    def with_parallel(self, **changes) -> "ReproConfig":
        """A copy with fields of ``generation.parallel`` replaced."""
        return self.with_generation(
            parallel=dataclasses.replace(self.parallel, **changes)
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-friendly dict that :meth:`from_dict` round-trips."""
        gen = self.generation
        return {
            "generation": {
                "aggregates": list(gen.aggregates),
                "insight_types": list(gen.insight_types),
                "significance": _plain(gen.significance),
                "interestingness": _plain(gen.interestingness),
                "distance_weights": _plain(gen.distance_weights),
                "sampling": _plain(gen.sampling) if gen.sampling else None,
                "exclude_functional_dependencies": gen.exclude_functional_dependencies,
                "prune_transitive": gen.prune_transitive,
                "evaluator": gen.evaluator,
                "backend": gen.backend,
                "memory_budget_bytes": gen.memory_budget_bytes,
                "parallel": gen.parallel.as_dict(),
                "max_pairs_per_attribute": gen.max_pairs_per_attribute,
            },
            "budget": self.budget,
            "epsilon_distance": self.epsilon_distance,
            "solver": self.solver,
            "exact_timeout": self.exact_timeout,
            "max_exact_queries": self.max_exact_queries,
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ReproConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise :class:`~repro.errors.ReproError` at every
        level — a typo'd setting must never be silently ignored.
        """
        top = dict(data)
        gen_data = dict(top.pop("generation", None) or {})
        top_known = {
            "budget", "epsilon_distance", "solver", "exact_timeout",
            "max_exact_queries", "deadline_seconds",
        }
        unknown = set(top) - top_known
        if unknown:
            raise ReproError(
                f"unknown ReproConfig keys {sorted(unknown)}; "
                f"known: {sorted(top_known | {'generation'})}"
            )

        gen_kwargs: dict = {}
        if "aggregates" in gen_data:
            gen_kwargs["aggregates"] = tuple(gen_data.pop("aggregates"))
        if "insight_types" in gen_data:
            gen_kwargs["insight_types"] = tuple(gen_data.pop("insight_types"))
        for key, sub in (
            ("significance", SignificanceConfig),
            ("interestingness", InterestingnessConfig),
            ("distance_weights", DistanceWeights),
        ):
            if key in gen_data:
                gen_kwargs[key] = _build(sub, gen_data.pop(key), key)
        if "sampling" in gen_data:
            payload = gen_data.pop("sampling")
            gen_kwargs["sampling"] = (
                _build(SamplingSpec, payload, "sampling") if payload else None
            )
        payload = gen_data.pop("parallel", None)
        if payload:
            gen_kwargs["parallel"] = ParallelConfig.from_dict(payload)
        gen_known = {f.name for f in dataclasses.fields(GenerationConfig)}
        unknown = set(gen_data) - gen_known
        if unknown:
            raise ReproError(
                f"unknown generation keys {sorted(unknown)}; "
                f"known: {sorted(gen_known)}"
            )
        gen_kwargs.update(gen_data)
        return cls(generation=GenerationConfig(**gen_kwargs), **top)

