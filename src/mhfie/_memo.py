"""The one memo for work kept between calls.

The solver's axis plans, the kernel factors of each plan, the inverses of
1D Jacobians with constant psi', the error norms' rules and the Cauchy terms
of interpolants on the fixed error grids and at those rules' nodes live in
one least-recently-used memo with one byte cap, under keys tagged "plan",
"kernel", "inverse", "norm-rule" and "terms".  An inverse is keyed by its
kernel factor's key plus (lam, psi'); the first solve at a key pays for it
in place of one LU factorization, and every later solve there factors
nothing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

# Bytes the memo keeps.  A 1D plan at MAX_N_1D is charged 1.3 MB, its kernel
# factor 3.9 MB (W, the E it references and K = W E), a Jacobian inverse
# 1.3 MB, its Cauchy terms on the 1D error grid 9.6 MB and its norm rule with
# the terms at that rule's nodes 2.7 MB, so one of each fits with room to
# spare.  A kernel factor at MAX_N_2D is charged 0.58 MB: W, E, K, and the
# eigenpairs, Q^-1 W and E Q that a 2D solve may build, as complex arrays at
# most; a 1D solve at that N shares the factor and is charged the same.  The
# benchmark's 1D sweep is charged 14.9 MB in all, 30 kernel factors and their
# 30 inverses (0.7 MB) among it, and evicts nothing.
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
