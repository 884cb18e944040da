"""The one parallel primitive: independent calls shared over forked processes.

``_each`` runs ``fn(*item)`` for each item, one share of the items per CPU
the process may use (``os.sched_getaffinity``): the caller computes one
share and each forked child another, and results come back pickled, in item
order. Items are dealt out by cost, items of equal cost in turn.
``dataio`` writes and reads the files of a bundle through it, and
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


def _deal(costs: list[float], n: int) -> list[list[int]]:
    """Item indices for n workers, each share in item order.

    The costliest item goes first, to the worker with the least cost so far
    (the fewest items among equals); items of equal cost keep item order.
    """
    shares: list[list[int]] = [[] for _ in range(n)]
    loads = [0.0] * n
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        w = min(range(n), key=lambda w: (loads[w], len(shares[w])))
        shares[w].append(i)
        loads[w] += costs[i]
    return [sorted(share) for share in shares]


def _each(fn, items, cost=None):
    """``fn(*item)`` for each item, in item order, over the CPUs the process may use.

    ``_deal`` shares the items out over n workers by ``cost``, one number
    per item (equal costs by default, which deals them in turn); the caller
    takes the costliest item and each forked child another share. Each
    share runs in item order and stops at its first failure. Every child is
    reaped before the first result is yielded, and a share no child
    delivered is run again here. A failed item raises its exception when it
    is reached, so the first failure in item order wins. On one CPU the
    items are computed lazily, one at a time, and nothing after a failure
    runs.
    """
    items = list(items)
    n = min(len(items), len(os.sched_getaffinity(0)))
    if n < 2:
        for item in items:
            yield fn(*item)
        return
    shares = _deal([1] * len(items) if cost is None else list(cost), n)
    work = [[items[i] for i in share] for share in shares]
    children = []
    try:
        for share in work[1:]:
            children.append(_fork(fn, share))
        results = [_run(fn, work[0])]
    finally:
        delivered = [_reap(child) for child in children]
    for share, got in zip(work[1:], delivered):
        results.append(_run(fn, share) if got is None else got)
    owner = [0] * len(items)
    for w, share in enumerate(shares):
        for i in share:
            owner[i] = w
    results = [iter(got) for got in results]  # each in item order, as its share
    for w in owner:
        ok, value = next(results[w])
        if not ok:
            raise value
        yield value
