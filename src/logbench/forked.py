"""Score a study's runs in this process and in forked children of it.

`evaluation.evaluate_study` imports this module only when it splits the
runs over more than one process, so a serial study does not load it. The
children are forked after the study is loaded, so they share it without a
copy; only each run's result comes back, pickled through its child's pipe
as the run finishes.
A child inherits only the thread that forked it, so a program that runs
other threads (which may hold a lock the child then waits on) should
evaluate with `jobs=1`; the CLI runs one thread.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from typing import BinaryIO, Callable, Iterator, TypeVar

from .errors import LogbenchError

T = TypeVar("T")


class ChildTraceback(Exception):
    """The traceback of an exception raised in a forked child, chained to its copy in the parent."""


def _score_share(score: Callable[[int], T], share: range, write_fd: int) -> None:
    """In a forked child: score `share`, pickling each run's result to `write_fd` as the run finishes.

    An exception raised is sent in place of its run's result, and ends the
    share. One that does not survive pickling is sent as a LogbenchError
    carrying its type name and message.
    """
    with open(write_fd, "wb") as pipe:
        for r in share:
            try:
                reply = (score(r), None, "")
            except Exception as exc:
                reply = (None, exc, traceback.format_exc())
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    reply = (None, LogbenchError(f"{type(exc).__name__}: {exc}"), reply[2])
            pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
            pipe.flush()
            if reply[1] is not None:
                return


def forked_map(score: Callable[[int], T], runs: range, width: int) -> Iterator[T]:
    """`score(r)` for each of `runs`, in run order, from `width` processes: this one and `width - 1` children.

    Child `k` scores `runs[k::width]` and sends each result back through its
    own pipe as soon as the run finishes; this process scores `runs[::width]`,
    the first run included, each in its turn. So a result is yielded as soon
    as it and every earlier one are in. A child's exception is raised here,
    chained to the child's traceback; a child that ends without a result
    raises LogbenchError naming its runs (numbered from 1, as the progress
    lines number them). A child is reaped once its last result is read, so
    every child is reaped before the last result is yielded or an exception
    is raised. If this process fails first, or the iterator is closed
    early, it closes the pipes it still reads and kills the children it has
    not reaped, whose results nobody will read.
    """
    width = min(width, len(runs))
    pids: list[int] = []  # the children not yet reaped, by share; 0 once reaped
    pipes: list[BinaryIO] = []  # their pipes, in the same order
    try:
        for k in range(1, width):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        for pipe in pipes:
                            pipe.close()
                        _score_share(score, runs[k::width], write_fd)
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(write_fd)
            pids.append(pid)
        for i, r in enumerate(runs):
            k = i % width - 1  # the child that scores run r; -1 for this process
            if k < 0:
                yield score(r)
                continue
            try:
                reply = pickle.load(pipes[k])
            except (EOFError, pickle.UnpicklingError):
                reply = None
            if reply is None or i + width >= len(runs):  # the child sends nothing more
                pipes[k].close()
                code = os.waitstatus_to_exitcode(os.waitpid(pids[k], 0)[1])
                pids[k] = 0
                if reply is None or code != 0:
                    numbers = ", ".join(str(run + 1) for run in runs[k + 1 :: width])
                    ending = f"exit code {code}" if code >= 0 else f"signal {-code}"
                    raise LogbenchError(
                        f"the process scoring runs {numbers} of {len(runs)} ended without a result ({ending})"
                    )
            result, error, trace = reply
            if error is not None:
                raise error from ChildTraceback(trace)
            yield result
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in filter(None, pids):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
