"""Kill a ``repro`` CLI run right after its k-th ``stats-partial`` checkpoint.

Usage::

    PYTHONPATH=src python tests/runtime/kill_mid_stats.py K \\
        generate data.csv --checkpoint ck.json [repro generate flags...]

Wraps :func:`repro.persistence.save_checkpoint` so that once the K-th
mid-stage (``stats-partial``) checkpoint is on disk the process ends with
``os._exit(KILL_EXIT_CODE)``: no cleanup, no later stage, exactly as a
crash between two stats shards.  Rerunning the same command with
``--resume ck.json`` picks the run up from that checkpoint.  A run that
writes fewer than K partial checkpoints finishes normally.
"""

from __future__ import annotations

import os
import sys

#: Exit status of a killed run.
KILL_EXIT_CODE = 17


def main(argv: list[str]) -> int:
    import repro.persistence as persistence
    from repro.cli import main as cli_main

    kill_after = int(argv[0])
    save_checkpoint = persistence.save_checkpoint
    written = 0

    def save_then_kill(path, stats=None, outcome=None, **kwargs):
        nonlocal written
        save_checkpoint(path, stats=stats, outcome=outcome, **kwargs)
        if stats is None and outcome is None:
            written += 1
            if written == kill_after:
                os._exit(KILL_EXIT_CODE)

    persistence.save_checkpoint = save_then_kill
    return cli_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
