"""Mechanics of the work-stealing, crash-isolated shard pool."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.errors import DeadlineExceeded, ReproError
from repro.parallel import ShardPool, pool as pool_module
from repro.runtime.deadline import Deadline


@pytest.fixture(autouse=True)
def isolated_obs():
    with obs.capture() as (tracer, metrics):
        yield tracer, metrics


def _counters():
    return obs.current_metrics().snapshot()["counters"]


# Task functions must live at module level (they cross the process
# boundary under spawn).

def _double(ctx, payload):
    return payload * 2


def _sleepy(ctx, payload):
    value, seconds = payload
    time.sleep(seconds)
    return value


def _crash_once(ctx, payload):
    value, marker = payload
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return value * 3


def _crash_in_subprocess(ctx, payload):
    value, parent_pid = payload
    if os.getpid() != parent_pid:
        os._exit(7)
    return value + 100


def _ship_or_exit(ctx, payload):
    size, marker = payload
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return b"x" * size


def _raise_value_error(ctx, payload):
    raise ValueError("boom")


def _raise_deadline(ctx, payload):
    raise DeadlineExceeded("synthetic expiry", stage="shards")


def _raise_memory(ctx, payload):
    raise MemoryError("pretend OOM")


def _state_plus(ctx, payload):
    return ctx.state + payload


def _labeled_counting(ctx, payload):
    flavor = "even" if payload % 2 == 0 else "odd"
    obs.counter("pooltest.tasks", {"flavor": flavor}).inc()
    return payload


def _bad_init(payload):
    raise RuntimeError("init exploded")


def test_results_come_back_in_payload_order():
    pool = ShardPool(4, task_fn=_double)
    assert pool.run(list(range(10))) == [i * 2 for i in range(10)]


def test_single_worker_runs_in_process_without_pool_counters():
    pool = ShardPool(1, task_fn=_double)
    assert pool.run([1, 2, 3]) == [2, 4, 6]
    counters = _counters()
    assert "parallel.tasks_stolen" not in counters
    assert "parallel.tasks_inprocess" not in counters


def test_init_payload_becomes_state():
    pool = ShardPool(2, task_fn=_state_plus, init_payload=10)
    assert pool.run([1, 2, 3, 4]) == [11, 12, 13, 14]


def test_idle_worker_steals_from_the_busy_one():
    # Worker 0's first shard sleeps; worker 1 drains its own deque and
    # must steal the rest of worker 0's block to finish the run.
    payloads = [(0, 0.5)] + [(i, 0.0) for i in range(1, 8)]
    pool = ShardPool(2, task_fn=_sleepy)
    assert pool.run(payloads) == list(range(8))
    assert _counters().get("parallel.tasks_stolen", 0) >= 1


def test_crashed_worker_is_replaced_and_its_shard_requeued(tmp_path, monkeypatch):
    monkeypatch.setattr(pool_module, "MAX_WORKER_RESTARTS", 2)
    marker = str(tmp_path / "crashed-once")
    payloads = [(i, marker if i == 1 else "") for i in range(6)]
    pool = ShardPool(2, task_fn=_crash_once)
    assert pool.run(payloads) == [i * 3 for i in range(6)]
    assert _counters().get("parallel.worker_restarts", 0) >= 1


#: Each trial: a worker ships a 1 kB result, then dies on its next task
#: right away.  A crash in that window once could leave a result channel
#: shared by every worker unusable, hanging the scheduler for good.
_CRASH_AFTER_SHIP_TRIALS = """
import os, sys, tempfile
from repro.parallel import ShardPool, pool as pool_module
from tests.parallel.test_pool import _ship_or_exit

pool_module.IPC_BLOCK_SIZE = 1

with tempfile.TemporaryDirectory() as markers:
    for trial in range(int(sys.argv[1])):
        marker = os.path.join(markers, f"exit-{trial}")
        payloads = [(1024, ""), (0, marker), (1024, ""), (1024, "")]
        pool = ShardPool(2, task_fn=_ship_or_exit)
        results = pool.run(payloads)
        assert results == [b"x" * 1024, b"", b"x" * 1024, b"x" * 1024], trial
print("ok")
"""


def test_crash_right_after_a_ship_never_hangs_the_pool():
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    env.pop("REPRO_FAULTS", None)
    child = subprocess.Popen(
        [sys.executable, "-c", _CRASH_AFTER_SHIP_TRIALS, "40"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        # Take the stuck scheduler and its workers down together.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("shard pool hung after a worker crashed right after a ship")
    assert child.returncode == 0, err
    assert out.strip() == "ok"


def _payload_size(ctx, payload):
    return len(payload)


def _exit_once_in_init(marker_dir):
    """Worker init that kills the first worker to run it over ``marker_dir``."""
    try:
        fd = os.open(os.path.join(marker_dir, "exited"),
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return None
    os.close(fd)
    time.sleep(0.2)  # let the parent's block write fill the pipe buffer
    os._exit(13)


#: Each trial: the first worker dies in its stage init while the parent is
#: writing it a 1 MB block, far past the pipe buffer.  A task channel whose
#: read end the parent also held never broke that write: it blocked forever.
_DIE_DURING_BIG_SEND_TRIALS = """
import sys, tempfile
from repro.parallel import ShardPool, pool as pool_module
from tests.parallel.test_pool import _exit_once_in_init, _payload_size

pool_module.IPC_BLOCK_SIZE = 1

big = b"x" * (1 << 20)
for trial in range(int(sys.argv[1])):
    with tempfile.TemporaryDirectory() as markers:
        pool = ShardPool(2, task_fn=_payload_size, worker_init=_exit_once_in_init,
                         init_payload=markers)
        assert pool.run([big] * 4) == [len(big)] * 4, trial
print("ok")
"""


def test_worker_death_during_a_large_send_never_hangs_the_pool():
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    env.pop("REPRO_FAULTS", None)
    child = subprocess.Popen(
        [sys.executable, "-c", _DIE_DURING_BIG_SEND_TRIALS, "3"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("shard pool hung writing to a worker that died")
    assert child.returncode == 0, err
    assert out.strip() == "ok"


def test_restart_budget_exhausted_degrades_to_in_process(monkeypatch):
    # Every subprocess attempt dies; once the restart budget is spent the
    # remaining shards must complete in the parent process.
    monkeypatch.setattr(pool_module, "MAX_WORKER_RESTARTS", 1)
    payloads = [(i, os.getpid()) for i in range(5)]
    pool = ShardPool(2, task_fn=_crash_in_subprocess)
    assert pool.run(payloads) == [i + 100 for i in range(5)]
    assert _counters().get("parallel.tasks_inprocess", 0) >= 1


def test_worker_exception_reraises_as_repro_error():
    pool = ShardPool(2, task_fn=_raise_value_error)
    with pytest.raises(ReproError, match="ValueError.*boom"):
        pool.run([1, 2, 3, 4])


def test_worker_deadline_keeps_its_type():
    pool = ShardPool(2, task_fn=_raise_deadline)
    with pytest.raises(DeadlineExceeded):
        pool.run([1, 2, 3, 4])


def test_worker_memory_error_keeps_its_type():
    pool = ShardPool(2, task_fn=_raise_memory)
    with pytest.raises(MemoryError):
        pool.run([1, 2, 3, 4])


def test_worker_init_failure_surfaces():
    pool = ShardPool(2, task_fn=_double, worker_init=_bad_init)
    with pytest.raises(ReproError, match="RuntimeError.*init exploded"):
        pool.run([1, 2, 3, 4])


def test_near_deadline_skips_the_pool_entirely(monkeypatch):
    # Remaining deadline is below the margin from the start: the pool must
    # finish in-process (where real expiry raises for the runtime ladder).
    monkeypatch.setattr(pool_module, "DEADLINE_MARGIN", 3600.0)
    pool = ShardPool(2, task_fn=_double, deadline=Deadline(30.0))
    assert pool.run([1, 2, 3]) == [2, 4, 6]
    assert _counters().get("parallel.tasks_inprocess", 0) == 3
    assert "parallel.tasks_stolen" not in _counters()


def test_on_result_fires_per_completed_shard():
    seen: dict[int, int] = {}
    pool = ShardPool(2, task_fn=_double)
    pool.run([5, 6, 7], on_result=lambda i, v: seen.__setitem__(i, v))
    assert seen == {0: 10, 1: 12, 2: 14}


def test_worker_spans_are_adopted_into_the_main_trace(isolated_obs):
    tracer, _ = isolated_obs
    pool = ShardPool(2, task_fn=_double, label="adopt")
    pool.run([1, 2, 3, 4])
    names = [span.name for span in tracer.spans()]
    assert "parallel.adopt" in names
    assert "parallel.task" in names


def test_crashed_task_spans_adopted_exactly_once(isolated_obs, monkeypatch):
    """A killed worker's in-flight task re-runs — and its span subtree is
    adopted exactly once (the crashed attempt's spans die with the
    process; the retry's ship with its result): neither lost nor doubled.
    """
    tracer, _ = isolated_obs
    monkeypatch.setenv("REPRO_FAULTS", "parallel.worker:kill:x1")
    monkeypatch.setattr(pool_module, "MAX_WORKER_RESTARTS", 2)
    pool = ShardPool(2, task_fn=_double, label="faulty")
    payloads = list(range(8))
    assert pool.run(payloads) == [i * 2 for i in payloads]
    assert _counters().get("parallel.worker_restarts", 0) >= 1

    wrappers = [s for s in tracer.spans() if s.name == "parallel.task"]
    by_task: dict[int, int] = {}
    for span in wrappers:
        by_task[span.attrs["task"]] = by_task.get(span.attrs["task"], 0) + 1
    # Every task shipped exactly one subtree — including the one whose
    # first attempt died with its worker.
    assert by_task == {task_id: 1 for task_id in range(len(payloads))}


def test_worker_labeled_metrics_merge_across_the_process_boundary(
    isolated_obs,
):
    _, metrics = isolated_obs
    pool = ShardPool(2, task_fn=_labeled_counting)
    assert pool.run([1, 2, 3, 4]) == [1, 2, 3, 4]
    snapshot = metrics.snapshot()["counters"]
    assert snapshot.get("pooltest.tasks{flavor=even}", 0) == 2
    assert snapshot.get("pooltest.tasks{flavor=odd}", 0) == 2
