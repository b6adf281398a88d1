"""The calibration yardstick: a fixed amount of host work, timed next to
every benchmark sample.

Host time on a shared box drifts by tens of percent between minutes,
and it drifts differently for different kinds of work: thread hand-offs
slow far more under a busy neighbour CPU than straight-line bytecode
does.  The yardstick therefore mixes the five kinds of work the
simulator's own host cost is made of — bytecode, numpy page
compare/copy, ``hashlib.md5``, thread start/join, and a
``Condition`` ping-pong — in fixed quantities.  A sample is reported as
``raw * REFERENCE_S / adjacent_yardstick``: host time in units of the
reference box's seconds.

The yardstick imports nothing from ``repro``, so no change to the
program can move it.
"""

import hashlib
import threading
import time

import numpy as np

#: What one :func:`run` takes on the box the quantities were sized on.
#: Only the ratio to a measured yardstick is ever used.
REFERENCE_S = 0.100

_PAGE = 4096
_BYTECODE_STEPS = 150_000
_PAGE_PAIRS = 3_600
_MD5_STRINGS = 40_000
_THREADS = 440
_PINGPONGS = 2_500


def _bytecode():
    table = {}
    total = 0
    for i in range(_BYTECODE_STEPS):
        key = i & 255
        total += table.get(key, 0) + (i >> 3)
        table[key] = total & 0xFFFF
    return total


def _pages(a, b, out):
    same = 0
    for _ in range(_PAGE_PAIRS):
        if np.array_equal(a, b):
            same += 1
        np.copyto(out, a)
        diff = a != b
        out[diff] = b[diff]
    return same


def _md5():
    digest = b""
    for i in range(_MD5_STRINGS):
        digest = hashlib.md5(b"%d" % i).digest()
    return digest


def _noop():
    pass


def _threads():
    for _ in range(_THREADS):
        thread = threading.Thread(target=_noop)
        thread.start()
        thread.join()


def _pingpong():
    """One baton passed ``_PINGPONGS`` times between two threads."""
    cv = threading.Condition()
    state = {"turn": 0}

    def partner():
        with cv:
            for _ in range(_PINGPONGS):
                while state["turn"] != 1:
                    cv.wait()
                state["turn"] = 0
                cv.notify_all()

    thread = threading.Thread(target=partner)
    thread.start()
    with cv:
        for _ in range(_PINGPONGS):
            state["turn"] = 1
            cv.notify_all()
            while state["turn"] != 0:
                cv.wait()
    thread.join()


def run():
    """Do the fixed work once; return the wall seconds it took."""
    a = np.arange(_PAGE, dtype=np.uint8)
    b = a.copy()
    b[::97] ^= 1
    out = np.empty_like(a)
    start = time.perf_counter()
    _bytecode()
    _pages(a, b, out)
    _md5()
    _threads()
    _pingpong()
    return time.perf_counter() - start
