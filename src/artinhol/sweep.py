"""Exhaustive instance sweeps over order-vector boxes, with deterministic output.

A sweep fixes a degree vector and enumerates every order vector in the box
[-B, B]^r in lexicographic order, runs the full condition report on each,
streams one JSON line per instance to the output file, and aggregates a
summary.  Inadmissible instances are recorded with their reasons but never
asserted against.  A SweepPlan makes every check a sweep needs, the box's
size against INSTANCE_CAP included, when it is built.

Every basis of a sweep comes from one type table (conditions.build_type_table),
which the sweep's own process builds before any chunk runs: the engines
run once per table support (a rank 1 table has none), never per
canonical vector, and never in a pool worker forked from it, which
inherits the table, so an engine failure names a support and B.  A
sweep walks its box once, through
enumerate_order_vectors: _chunk_tasks cuts that walk into contiguous
chunks of CHUNK_SIZE vectors, and a task is the plan and one chunk's
vectors.  The process that checks a chunk canonicalizes each vector
through check_instance, expands each canonical vector's basis from the
table once into a bounded cache, renders its records and runs summarize
on the reports; the parent only enumerates, writes each chunk's records
and adds its summary, in chunk order, so the output bytes do not depend
on the worker count.  The worker count only chooses the mapper: with one
worker, a box of one chunk or a platform without os.fork, the builtin map
runs the chunks in this process, and sweep_reports walks the same
stream.  Otherwise the chunks go through Pool, whose workers are forked
from this process with two raw pipes each, one for tasks and one for
results, and are fed from this process's one thread, at most _IN_FLIGHT
chunks per worker; a worker that dies fails the sweep with
WorkerDiedError.  No run imports multiprocessing.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter, deque
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import serialize
from .conditions import ConditionReport, build_type_table, check_instance
from .core import DegreeVector, Instance, _int_value, _setattr, _Value, check_flags
from .errors import CapExceededError, MixedPlansError, WorkerDiedError

INSTANCE_CAP = 10_000_000

#: Records per task, a contiguous run of the enumeration.
CHUNK_SIZE = 256


class SweepPlan(_Value):
    """One sweep: degrees (a DegreeVector, or a sequence of ints converted
    to one), box radius, flags, parallelism, output path."""

    __slots__ = (
        "degrees",
        "order_bound",
        "require_dedekind",
        "require_trivial_nonneg",
        "worker_count",
        "out_path",
        "group",
    )
    degrees: DegreeVector
    order_bound: int
    require_dedekind: bool
    require_trivial_nonneg: bool
    worker_count: int
    out_path: str | Path | None
    group: str | None

    def __init__(
        self,
        degrees: DegreeVector | Sequence[int],
        order_bound: int,
        require_dedekind: bool = True,
        require_trivial_nonneg: bool = False,
        worker_count: int = 1,
        out_path: str | Path | None = None,
        group: str | None = None,
    ):
        if not isinstance(degrees, DegreeVector):
            try:
                degrees = DegreeVector(degrees)
            except TypeError as err:
                raise TypeError(
                    f"degrees must be a DegreeVector or a sequence of ints, got {degrees!r}"
                ) from err
        _setattr(self, "degrees", degrees)
        _setattr(self, "order_bound", order_bound)
        _setattr(self, "require_dedekind", require_dedekind)
        _setattr(self, "require_trivial_nonneg", require_trivial_nonneg)
        _setattr(self, "worker_count", worker_count)
        _setattr(self, "out_path", out_path)
        _setattr(self, "group", group)
        for name in ("order_bound", "worker_count"):
            if _int_value(getattr(self, name), name) < 1:
                raise ValueError(f"{name.replace('_', ' ')} must be >= 1")
        check_flags(self, "group")
        _box_size(self.degrees.rank, self.order_bound)


class SweepSummary(_Value):
    """Aggregate counts for one sweep.

    Condition statistics and the size histogram cover admissible instances
    only; inadmissible ones are counted but not asserted against.  The sum
    of two summaries is the summary of the first one's records followed by
    the second one's.
    """

    __slots__ = (
        "total", "cond_i_true", "factorial_not_i", "hilbert_histogram", "counterexamples"
    )
    total: int
    cond_i_true: int
    factorial_not_i: int
    hilbert_histogram: tuple[tuple[int, int], ...]
    counterexamples: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        total: int,
        cond_i_true: int,
        factorial_not_i: int,
        hilbert_histogram: tuple[tuple[int, int], ...],
        counterexamples: tuple[tuple[int, ...], ...],
    ):
        _setattr(self, "total", total)
        _setattr(self, "cond_i_true", cond_i_true)
        _setattr(self, "factorial_not_i", factorial_not_i)
        _setattr(self, "hilbert_histogram", hilbert_histogram)
        _setattr(self, "counterexamples", counterexamples)

    def __add__(self, other: SweepSummary) -> SweepSummary:
        histogram = Counter(dict(self.hilbert_histogram))
        histogram.update(dict(other.hilbert_histogram))
        return SweepSummary(
            total=self.total + other.total,
            cond_i_true=self.cond_i_true + other.cond_i_true,
            factorial_not_i=self.factorial_not_i + other.factorial_not_i,
            hilbert_histogram=tuple(sorted(histogram.items())),
            counterexamples=self.counterexamples + other.counterexamples,
        )

    @property
    def admissible(self) -> int:
        """The histogram's total, which counts exactly the admissible records."""
        return sum(n for _, n in self.hilbert_histogram)

    @property
    def inadmissible(self) -> int:
        return self.total - self.admissible

    @property
    def cond_i_false(self) -> int:
        return self.admissible - self.cond_i_true


def _box_size(r: int, bound: int) -> int:
    """(2B+1)^r, the number of vectors in the box [-B, B]^r; raises
    CapExceededError if r * (2B+1)^r exceeds INSTANCE_CAP: at once, the
    size unbuilt and named as a power, where r >= 13 (13 * 3^13 is over)
    or 2B+1 alone is over, when 2B+1 is named by its bit length, which
    prints however large B is."""
    side = 2 * bound + 1
    if side > INSTANCE_CAP:
        raise CapExceededError(
            f"sweep of {r} x (2B+1)^{r} entries, 2B+1 of {side.bit_length()} bits, "
            f"exceeds cap {INSTANCE_CAP}"
        )
    if r >= 13:
        raise CapExceededError(f"sweep of {r} x {side}^{r} entries exceeds cap {INSTANCE_CAP}")
    size = side**r
    if r * size > INSTANCE_CAP:
        raise CapExceededError(
            f"sweep of {r} x {size} = {r * size} entries exceeds cap {INSTANCE_CAP}"
        )
    return size


def enumerate_order_vectors(r: int, bound: int) -> Iterator[tuple[int, ...]]:
    """All (2B+1)^r order vectors in the box, as tuples, lexicographically;
    r or B not an int or below 1, and a box over INSTANCE_CAP, raise up front."""
    if min(_int_value(r, "r"), _int_value(bound, "bound")) < 1:
        raise ValueError("need r >= 1 and bound >= 1")
    _box_size(r, bound)
    return itertools.product(range(-bound, bound + 1), repeat=r)


def _chunk_tasks(plan: SweepPlan) -> Iterator[tuple]:
    """The plan's tasks, in enumeration order: (plan, the next CHUNK_SIZE
    vectors of enumerate_order_vectors' box)."""
    box = enumerate_order_vectors(plan.degrees.rank, plan.order_bound)
    while chunk := list(itertools.islice(box, CHUNK_SIZE)):
        yield plan, chunk


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count; 1 where it cannot fork, so that a
    sweep there runs serially."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: Tasks a pool worker holds at once: the one it runs and one queued, so
#: that it starts its next chunk as soon as it has sent a result.
_IN_FLIGHT = 2


class Pool:
    """`processes` worker processes forked from the caller, each with two
    pipes of its own, tasks going down one and results coming up the
    other, fed from the caller's thread: the pool starts no thread.

    A pool serves one imap(func, tasks), which sends each worker at most
    _IN_FLIGHT tasks at once and yields func(task) in task order, so
    output does not depend on which worker ran a task.  A worker sends a
    task's result only once the pool's next message to it, a task or the
    stop message, has arrived; so the two ends of a worker's pipes never
    both wait to send, whatever the size of a task or a result.  A message
    is an 8-byte length and a pickle of that many bytes.  An exception
    raised by func, or by pickling its result, is raised from imap; a
    worker that exits without returning its task's result raises
    WorkerDiedError, naming its exit code and the first vector of the
    chunk it held.  Workers ignore SIGINT: an interrupt is the caller's
    to handle, and leaving the with block then kills them.

    close() sends each worker the stop message; join() then reads and
    drops the results still pending and waits for the workers to exit.
    terminate(), which leaving a with block calls, kills the workers
    with SIGTERM, waits for them and closes the pool's pipe ends: no lock
    or queue is shared, so that is safe at any moment.  A worker never
    returns into the caller's frames: it leaves through os._exit, so it
    flushes none of the buffers, stdio or output file, that it inherited.
    The caller runs no other thread that a fork could copy mid-operation.
    """

    def __init__(self, processes: int):
        import pickle  # noqa: F401  (loaded before the first fork, so no worker loads it)

        self._workers = []  # (pid, the fd tasks go down, the fd results come up)
        self._exitcodes = {}  # worker index -> exit code, once reaped
        self._pending = deque()  # (worker index, task) in task order
        self._open = set()  # workers not yet sent the stop message
        try:
            for i in range(processes):
                self._workers.append(self._start())
                self._open.add(i)
        except BaseException:
            self.terminate()
            raise

    def __enter__(self) -> Pool:
        return self

    def __exit__(self, *exc) -> None:
        self.terminate()

    def imap(self, func, iterable: Iterable) -> Iterator:
        tasks = iter(iterable)
        for _ in range(_IN_FLIGHT):
            for i in range(len(self._workers)):
                self._feed(i, func, tasks)
        while self._pending:
            i, task = self._pending.popleft()
            ok, value = self._receive(i, task)
            if not ok:
                exc, trace = value
                raise exc from _WorkerTraceback(trace)
            self._feed(i, func, tasks)
            yield value

    def close(self) -> None:
        """Send every worker the stop message: each returns the results of
        the tasks it holds and exits."""
        for i in sorted(self._open):
            self._stop(i)

    def join(self) -> None:
        """Read and drop the results still pending, then wait for every
        worker to exit.  close() must come first."""
        while self._pending:
            i, _ = self._pending.popleft()
            try:
                _read_message(self._workers[i][2])
            except EOFError:
                pass  # that worker has died; its later results raise the same
        for i in range(len(self._workers)):
            self._reap(i)

    def terminate(self) -> None:
        """Kill the workers, wait for them and close their pipes."""
        import signal

        self._open.clear()
        self._pending.clear()
        for i, (pid, _, _) in enumerate(self._workers):
            if i not in self._exitcodes:
                os.kill(pid, signal.SIGTERM)
        for i, (_, tasks, results) in enumerate(self._workers):
            self._reap(i)
            os.close(tasks)
            os.close(results)
        self._workers.clear()
        self._exitcodes.clear()

    def _start(self) -> tuple[int, int, int]:
        """Fork a worker; return its pid and the pool's ends of its pipes."""
        import signal

        fds = []
        try:
            fds += os.pipe()  # tasks: the worker reads fds[0], the pool writes fds[1]
            fds += os.pipe()  # results: the pool reads fds[2], the worker writes fds[3]
            pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                # The worker closes the pool's ends of its own pipes and of
                # every earlier worker's, so that it reads EOF once the
                # pool's process is gone.
                for fd in [fd for _, *ends in self._workers for fd in ends] + fds[1:3]:
                    os.close(fd)
                _serve(fds[0], fds[3])
                code = 0
            except BaseException:
                import traceback

                os.write(2, traceback.format_exc().encode())
            finally:
                os._exit(code)
        os.close(fds[0])
        os.close(fds[3])
        return pid, fds[1], fds[2]

    def _reap(self, i: int) -> int:
        """Wait for worker i to exit, once; return its exit code."""
        if i not in self._exitcodes:
            _, status = os.waitpid(self._workers[i][0], 0)
            self._exitcodes[i] = os.waitstatus_to_exitcode(status)
        return self._exitcodes[i]

    def _feed(self, i: int, func, tasks: Iterator) -> None:
        """Send worker i the next task, or the stop message if none is left."""
        if i not in self._open:
            return
        try:
            task = next(tasks)
        except StopIteration:
            return self._stop(i)
        self._pending.append((i, task))
        self._send(i, (func, task))

    def _stop(self, i: int) -> None:
        self._open.discard(i)
        self._send(i, None)

    def _send(self, i: int, message) -> None:
        import pickle

        try:
            _write_message(self._workers[i][1], pickle.dumps(message))
        except BrokenPipeError:
            pass  # the worker has died: reading its oldest pending result raises

    def _receive(self, i: int, task):
        import pickle

        try:
            return pickle.loads(_read_message(self._workers[i][2]))
        except EOFError:
            raise WorkerDiedError(
                f"worker process exited with code {self._reap(i)} "
                f"in the chunk that starts at v={task[1][0]}"
            ) from None


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a pool worker: the cause of
    the same exception raised again from Pool.imap."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


def _write_message(fd: int, message: bytes) -> None:
    """Write `message` to `fd`, after its length as 8 bytes."""
    data = memoryview(len(message).to_bytes(8, "little") + message)
    while data:
        data = data[os.write(fd, data) :]


def _read_exactly(fd: int, size: int) -> bytearray:
    """The next `size` bytes from `fd`; EOFError if it ends first."""
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _read_message(fd: int) -> bytearray:
    """The next message _write_message wrote to `fd`."""
    return _read_exactly(fd, int.from_bytes(_read_exactly(fd, 8), "little"))


def _serve(tasks: int, results: int) -> None:
    """A Pool worker: run each (func, task) it is sent and send back
    (True, func(task)) or (False, (the exception raised, its traceback)),
    each once the next message has arrived, until the stop message None."""
    import pickle

    try:
        message = pickle.loads(_read_message(tasks))
        while message is not None:
            func, task = message
            try:
                result = pickle.dumps((True, func(task)))
            except Exception as exc:
                import traceback

                result = pickle.dumps((False, (exc, traceback.format_exc())))
            message = pickle.loads(_read_message(tasks))
            _write_message(results, result)
    except (EOFError, BrokenPipeError):
        pass  # the pool's process is gone


def _chunk_reports(plan: SweepPlan, vectors: list[tuple[int, ...]]) -> Iterator[ConditionReport]:
    """Reports of one chunk's vectors, in order, their bases expanded from
    the type table of the plan's order bound."""
    for v in vectors:
        inst = Instance(
            plan.degrees,
            v,
            require_dedekind=plan.require_dedekind,
            require_trivial_nonneg=plan.require_trivial_nonneg,
            group=plan.group,
        )
        yield check_instance(inst, plan.order_bound)


def _run_chunk(task) -> tuple[list[str] | None, SweepSummary]:
    """One task of _chunk_tasks: the chunk's record lines (None
    without an output file) and its summary."""
    plan = task[0]
    reports = list(_chunk_reports(*task))
    lines = None
    if plan.out_path is not None:
        lines = [serialize.sweep_record_line(rep) for rep in reports]
    return lines, summarize(reports)


def sweep_reports(plan: SweepPlan) -> list[ConditionReport]:
    """Run the plan's instances in this process and return reports in
    enumeration order, through the same type table and tasks as a sweep."""
    build_type_table(plan.order_bound, plan.degrees.rank)
    return [rep for task in _chunk_tasks(plan) for rep in _chunk_reports(*task)]


def summarize(records: Iterable[ConditionReport]) -> SweepSummary:
    """Aggregate a record stream from a single plan into a SweepSummary.

    Raises MixedPlansError if records disagree on rank, degrees, or flags.
    """
    plan = None
    # The stored counts of a SweepSummary, by field name.
    counts = Counter(total=0, cond_i_true=0, factorial_not_i=0)
    histogram: Counter[int] = Counter()
    counterexamples: list[tuple[int, ...]] = []
    for rep in records:
        inst = rep.instance
        key = (inst.rank, inst.degrees.entries, inst.require_dedekind, inst.require_trivial_nonneg)
        if plan is None:
            plan = key
        elif plan != key:
            raise MixedPlansError(f"record {key} does not match plan {plan}")
        counts["total"] += 1
        if rep.admissible:
            if rep.cond_i:
                counts["cond_i_true"] += 1
            elif rep.factorial:
                counts["factorial_not_i"] += 1
            histogram[rep.hilbert_size] += 1
        if rep.equivalence_ok is False:
            counterexamples.append(inst.orders.entries)
    return SweepSummary(
        **counts,
        hilbert_histogram=tuple(sorted(histogram.items())),
        counterexamples=tuple(counterexamples),
    )


def _output_file(path: str | Path) -> Path:
    """The file that output to `path` replaces: `path` with its symlinks
    resolved.  An existing directory or other file that is not a regular
    file there is refused, and so is a name ending in a path separator,
    which realpath would strip but open() refuses.  The check stats
    `path` itself, following its links as open() would: realpath reads a
    link like /dev/stdout on a pipe as a name that does not exist."""
    name, given = str(path), Path(path)
    if name[-1:] in (os.sep, os.altsep):
        raise IsADirectoryError(f"output path {name!r} ends in a path separator")
    if given.is_dir():
        raise IsADirectoryError(f"output path {name!r} is a directory")
    if given.exists() and not given.is_file():
        raise OSError(f"output path {name!r} is not a regular file")
    return Path(os.path.realpath(path))


@contextmanager
def _replacing(path: str | Path | None):
    """Text file for `path` that replaces it only once the block succeeds.

    Text goes to a temp file in the same directory, renamed over `path`
    at the end; on any exception the temp file is removed and an existing
    file at `path` is left untouched, so a failed sweep never leaves a
    truncated output file.  Symlinks are resolved first, so the file a link
    names is replaced, not the link.  _output_file refuses a `path` that
    cannot be replaced, before parent directories are created and before
    the block runs.  Yields None when `path` is None.
    """
    if path is None:
        yield None
        return
    path = _output_file(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def run_sweep(plan: SweepPlan) -> SweepSummary:
    """Execute the plan: build its type table here, then write each
    chunk's records and add its summary, in chunk order.  The chunks run
    through the imap of one Pool of n processes, n the least of the
    workers, the chunks and the usable CPUs, if n > 1, started once the
    table is built, so that its workers inherit it; else through the
    builtin map, in this process.

    When a chunk fails in a pool, or writing its records does, the pool
    is sent no further task, and its workers finish the tasks they hold
    and exit before it is torn down.  Pool could be torn down at once, as
    its workers share no lock, but the same path serves a
    multiprocessing.Pool, which the benchmark's tracing swaps in: a worker
    of that pool terminated while it sends a result would leave its result
    queue's lock held, and the teardown would wait on it forever.
    """
    summary = summarize(())
    with _replacing(plan.out_path) as fh:
        chunks = -(-_box_size(plan.degrees.rank, plan.order_bound) // CHUNK_SIZE)
        n = min(plan.worker_count, chunks, _usable_cpus())
        failed = []
        tasks = itertools.takewhile(lambda _: not failed, _chunk_tasks(plan))
        build_type_table(plan.order_bound, plan.degrees.rank)
        with Pool(n) if n > 1 else nullcontext() as pool:
            try:
                for lines, part in (pool.imap if n > 1 else map)(_run_chunk, tasks):
                    if fh is not None:
                        fh.writelines(lines)
                    summary += part
            except Exception:
                if n > 1:
                    failed.append(True)
                    pool.close()
                    pool.join()
                raise
    return summary
