"""The one memo for work kept between calls.

The solver's axis plans, the kernel factors of each plan and the Cauchy
terms of interpolants on the fixed error grids live in one least-recently-used
memo with one byte cap, under keys tagged "plan", "kernel" and "terms".
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

# Bytes the memo keeps.  A 1D plan at MAX_N_1D is charged 1.3 MB, its kernel
# factor 2.6 MB (W and the E it references) and its Cauchy terms on the 1D
# error grid 9.6 MB, so one of each fits with room to spare; the benchmark's
# 1D sweep keeps 9.1 MB in all and evicts nothing.
MEMO_BYTES = 32 * 2**20


class BoundedMemo:
    """Least-recently-used memo bounded by the total nbytes of its values.

    get(key, build) returns the value kept under key, or build() kept under
    it.  Each value is charged its nbytes, which must not change while it is
    kept; the least recently used go first once the total passes cap, and a
    value above the cap is returned without being kept.  Thread-safe: two
    threads missing one key both build it, and the first one kept is the one
    both get.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.entries = OrderedDict()
        self.nbytes = 0
        self._lock = threading.Lock()

    def get(self, key, build: Callable):
        with self._lock:
            value = self.entries.get(key)
            if value is not None:
                self.entries.move_to_end(key)
                return value
        value = build()
        with self._lock:
            if key in self.entries:
                return self.entries[key]
            if value.nbytes <= self.cap:
                self.entries[key] = value
                self.nbytes += value.nbytes
                while self.nbytes > self.cap:
                    self.nbytes -= self.entries.popitem(last=False)[1].nbytes
        return value

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.nbytes = 0


memo = BoundedMemo(MEMO_BYTES)
