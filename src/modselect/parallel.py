"""The one parallel primitive: independent calls shared over forked processes.

``_each`` runs ``fn(*item)`` for each item, one share of the items per CPU
the process may use (``os.sched_getaffinity``): the caller computes one
share and each forked child another, and results come back pickled, in item
order. ``dataio`` writes and reads the files of a bundle through it, and
``fusion.sweep`` walks its rules through it. On one CPU (``taskset -c 0``)
nothing is forked: the items run one after another in the caller, and the
results are the same.
"""

from __future__ import annotations

import os
import pickle


def _run(fn, share) -> list:
    """``(True, fn(*item))`` for each item of ``share``, up to the first ``(False, exception)``."""
    results = []
    for item in share:
        try:
            results.append((True, fn(*item)))
        except Exception as err:
            results.append((False, err))
            break
    return results


def _fork(fn, share):
    """A child that runs ``share`` and pickles its results to a pipe: ``(pid, read end)``, or None."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller runs the share itself
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as out:
                pickle.dump(_run(fn, share), out, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)  # never return into the caller's stack
    os.close(write_end)
    return pid, read_end


def _reap(child) -> list | None:
    """The results a child delivered, once it has exited; None if it delivered none."""
    if child is None:
        return None
    pid, read_end = child
    with open(read_end, "rb") as fh:
        try:
            results = pickle.load(fh)
        except Exception:  # a stream cut short, or a value that does not unpickle
            results = None
        fh.read()  # the child exits only once its pipe is read to the end
    return results if os.waitpid(pid, 0)[1] == 0 else None


def _each(fn, items):
    """``fn(*item)`` for each item, in item order, over the CPUs the process may use.

    With n workers, forked child w computes ``items[w::n]`` and the caller
    ``items[0::n]``; each stops at its first failure. Every child is reaped
    before the first result is yielded, and a share no child delivered is
    run again here. A failed item raises its exception when it is reached,
    so the first failure in item order wins. On one CPU the items are
    computed lazily, one at a time, and nothing after a failure runs.
    """
    items = list(items)
    n = min(len(items), len(os.sched_getaffinity(0)))
    if n < 2:
        for item in items:
            yield fn(*item)
        return
    children = []
    try:
        for w in range(1, n):
            children.append(_fork(fn, items[w::n]))
        shares = [_run(fn, items[0::n])]
    finally:
        delivered = [_reap(child) for child in children]
    for w, results in enumerate(delivered, start=1):
        shares.append(_run(fn, items[w::n]) if results is None else results)
    for i in range(len(items)):
        ok, value = shares[i % n][i // n]
        if not ok:
            raise value
        yield value
