"""Warn-once plumbing for the legacy entry points.

The old :class:`~repro.generation.pipeline.NotebookGenerator` constructor
keeps working as a shim over :mod:`repro.api` /
:class:`~repro.config.ReproConfig`, but emits one
:class:`DeprecationWarning` per process — loud enough to notice,
quiet enough not to flood a loop that constructs thousands of configs.
"""

from __future__ import annotations

import warnings

_emitted: set[str] = set()


def warn_once(key: str, message: str, *, stacklevel: int = 3) -> None:
    """Emit ``message`` as a DeprecationWarning, once per ``key``."""
    if key in _emitted:
        return
    _emitted.add(key)
    warnings.warn(message, DeprecationWarning, stacklevel=stacklevel)


def reset() -> None:
    """Forget which warnings fired (test isolation hook)."""
    _emitted.clear()
