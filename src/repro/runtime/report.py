"""Structured run reports: what each stage did, how long, and how degraded.

A :class:`RunReport` is built by the resilient controller as the run
progresses, attached to the resulting
:class:`~repro.generation.pipeline.NotebookRun`, surfaced by the CLI, and
serialized with saved runs (see :mod:`repro.persistence`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RunReport", "StageReport"]

#: Stage statuses, in increasing order of trouble.
STATUS_COMPLETED = "completed"   # the stage's first rung succeeded
STATUS_RESUMED = "resumed"       # restored from a checkpoint, not re-run
STATUS_DEGRADED = "degraded"     # a fallback rung produced the result
STATUS_FAILED = "failed"         # every rung failed; an empty result stands in


@dataclass(slots=True)
class StageReport:
    """Outcome of one pipeline stage."""

    name: str
    status: str = STATUS_COMPLETED
    rung: str = ""                 # label of the ladder rung that produced the result
    seconds: float = 0.0
    retries: int = 0               # failed attempts before the final one
    degradations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    error: str | None = None       # last error message when status == failed

    @property
    def ok(self) -> bool:
        return self.status != STATUS_FAILED

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "rung": self.rung,
            "seconds": self.seconds,
            "retries": self.retries,
            "degradations": list(self.degradations),
            "warnings": list(self.warnings),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StageReport":
        return cls(
            name=data["name"],
            status=data.get("status", STATUS_COMPLETED),
            rung=data.get("rung", ""),
            seconds=float(data.get("seconds", 0.0)),
            retries=int(data.get("retries", 0)),
            degradations=list(data.get("degradations", [])),
            warnings=list(data.get("warnings", [])),
            error=data.get("error"),
        )


@dataclass(slots=True)
class RunReport:
    """Per-stage accounting for one resilient run."""

    stages: list[StageReport] = field(default_factory=list)
    deadline_seconds: float | None = None
    total_seconds: float = 0.0
    resumed_from: str | None = None
    #: Execution backend the run used ("columnar"/"sqlite"); checkpoints
    #: persist it so a resume refuses to silently switch engines.
    backend: str | None = None
    #: SQL statements the backend actually sent to an external engine.
    backend_statements: int = 0
    #: Worker count of the sharded execution layer (1 = in-process).  A
    #: "worker field" in the invariance sense: results never depend on it.
    workers: int = 1
    #: The chosen multi-query plan: ``{"batches": n, "sets": m}`` — how
    #: many per-grouping-attribute batches covered how many group-by sets.
    #: ``None`` until the support stage has run (or for old checkpoints).
    mqo_plan: dict | None = None

    def stage(self, name: str) -> StageReport | None:
        for entry in self.stages:
            if entry.name == name:
                return entry
        return None

    @property
    def degraded(self) -> bool:
        """True when any stage fell back from its first rung (or failed)."""
        return any(s.status in (STATUS_DEGRADED, STATUS_FAILED) for s in self.stages)

    @property
    def degradations(self) -> list[str]:
        notes: list[str] = []
        for entry in self.stages:
            notes.extend(f"{entry.name}: {d}" for d in entry.degradations)
        return notes

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.stages)

    def as_dict(self) -> dict:
        return {
            "stages": [s.as_dict() for s in self.stages],
            "deadline_seconds": self.deadline_seconds,
            "total_seconds": self.total_seconds,
            "resumed_from": self.resumed_from,
            "backend": self.backend,
            "backend_statements": self.backend_statements,
            "workers": self.workers,
            "mqo_plan": dict(self.mqo_plan) if self.mqo_plan else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        # Reports written before the single execution path also carry
        # now-constant "stats_kernel" and "mqo" keys; they are ignored.
        return cls(
            stages=[StageReport.from_dict(s) for s in data.get("stages", [])],
            deadline_seconds=data.get("deadline_seconds"),
            total_seconds=float(data.get("total_seconds", 0.0)),
            resumed_from=data.get("resumed_from"),
            backend=data.get("backend"),
            backend_statements=int(data.get("backend_statements", 0)),
            workers=int(data.get("workers", 1)),
            mqo_plan=data.get("mqo_plan"),
        )

    def summary_lines(self) -> list[str]:
        """Human-readable per-stage lines for the CLI."""
        head = f"run report: {self.total_seconds:.2f}s total"
        if self.deadline_seconds is not None:
            head += f" (deadline {self.deadline_seconds:g}s)"
        if self.resumed_from:
            head += f", resumed from {self.resumed_from}"
        lines = [head]
        if self.backend:
            line = f"  backend      {self.backend:<10} statements={self.backend_statements}"
            if self.workers > 1:
                line += f"  workers={self.workers}"
            if self.mqo_plan:
                line += (
                    f"  mqo={self.mqo_plan.get('sets', 0)} sets"
                    f"/{self.mqo_plan.get('batches', 0)} batches"
                )
            lines.append(line)
        for entry in self.stages:
            line = (
                f"  {entry.name:<12} {entry.status:<10} {entry.seconds:6.2f}s"
            )
            if entry.rung:
                line += f"  rung={entry.rung}"
            if entry.retries:
                line += f"  retries={entry.retries}"
            lines.append(line)
            for note in entry.degradations:
                lines.append(f"    ~ {note}")
            for note in entry.warnings:
                lines.append(f"    ! {note}")
            if entry.error:
                lines.append(f"    x {entry.error}")
        return lines
