"""Score a study's runs in this process and in forked children of it.

`evaluation.evaluate_study` imports this module only when it splits the
runs over more than one process, so a serial study does not load it. The
children are forked after the study is loaded, so they share it without a
copy; only each child's results come back, pickled through its own pipe.
A child inherits only the thread that forked it, so a program that runs
other threads (which may hold a lock the child then waits on) should
evaluate with `jobs=1`; the CLI runs one thread.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from typing import Callable, TypeVar

from .errors import LogbenchError

T = TypeVar("T")


class ChildTraceback(Exception):
    """The traceback of an exception raised in a forked child, chained to its copy in the parent."""


def _score_share(score: Callable[[int], T], share: range, write_fd: int) -> None:
    """In a forked child: score `share` and pickle the results, or the exception raised, to `write_fd`.

    An exception that does not survive pickling is sent as a LogbenchError
    carrying its type name and message.
    """
    try:
        reply = ([score(r) for r in share], None, "")
    except Exception as exc:
        reply = (None, exc, traceback.format_exc())
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            reply = (None, LogbenchError(f"{type(exc).__name__}: {exc}"), reply[2])
    with open(write_fd, "wb") as pipe:
        pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)


def forked_map(score: Callable[[int], T], runs: range, width: int) -> list[T]:
    """`[score(r) for r in runs]`, from `width` processes: this one and `width - 1` forked children.

    Child `k` scores `runs[k::width]` and sends its results back through its
    own pipe; this process scores `runs[::width]`, the first run included,
    meanwhile. A child's exception is raised here, chained to the child's
    traceback; a child that ends without a result raises LogbenchError
    naming its runs (numbered from 1, as the progress lines number them).
    Every child is reaped before this returns or raises. If this process
    fails first, it closes the pipes it has not read and kills the children
    it has not reaped, whose results nobody will read.
    """
    pids: list[int] = []  # children not yet reaped
    fds: list[int] = []  # their pipes not yet read, in the same order
    try:
        for k in range(1, width):
            read_fd, write_fd = os.pipe()
            fds.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        for fd in fds:
                            os.close(fd)
                        _score_share(score, runs[k::width], write_fd)
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(write_fd)
            pids.append(pid)
        results: list = [None] * len(runs)
        results[::width] = [score(r) for r in runs[::width]]
        for k in range(1, width):
            with open(fds.pop(0), "rb") as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
            if code != 0:
                numbers = ", ".join(str(r + 1) for r in runs[k::width])
                ending = f"exit code {code}" if code > 0 else f"signal {-code}"
                raise LogbenchError(
                    f"the process scoring runs {numbers} of {len(runs)} ended without a result ({ending})"
                )
            share, error, trace = pickle.loads(data)
            if error is not None:
                raise error from ChildTraceback(trace)
            results[k::width] = share
        return results
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
