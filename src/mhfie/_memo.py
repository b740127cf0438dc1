"""The one memo for work kept between calls.

Each value is one complete, read-only array or tuple of arrays, charged
exactly the bytes it holds: the solver's damped cardinal matrices under
("cardinals", n), interpolation bases under ("basis", alpha, n), kernel
factors W under ("kernel", alpha, n, method, kind, mu, factor), inverses of
1D Jacobians with constant psi' under the kernel key plus (lam, psi') and
tagged "inverse", eigenbases of 2D axis operators under the kernel key
tagged "eigen", and the error norms' Cauchy terms on the fixed grids and
at the norm rules' nodes under "terms".  The first solve at an inverse's
key pays for it in place of one LU factorization, and every later solve
there factors nothing.  The mapped and Gauss-Hermite rules are kept apart,
in the count-bounded memos of mhf_gauss_rule and hermite_gauss_rule.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

# Bytes the memo keeps.  At MAX_N_1D an E, a W and a Jacobian inverse are
# charged 1.3 MB each, the Cauchy terms on the 1D error grid 9.6 MB and
# those at the norm rule's nodes 2.6 MB, so one of each fits with room to
# spare.  At MAX_N_2D an eigenbasis is charged 0.21 MB, or 0.42 MB where its
# eigenpairs are complex.  The benchmark's 1D sweep is charged 7.8 MB in
# all, 30 kernel factors and their 30 inverses (0.7 MB) among it, and
# evicts nothing.
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
