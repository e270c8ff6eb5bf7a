"""Memos for the products that depend only on the parameters.

Every key follows one rule.  What callers rebuild on every call is keyed by
value: numbers with their types, a bump's coefficients, the arguments of a
spectrum (``Spectrum.key``).  A record that a memo returned, an m-matrix or
an L_lambda, is keyed by identity, as every record holding arrays compares,
and is held in the key, so its ``id`` is never handed on.

Every memo but the ``lru_cache`` ``hs_weights`` is a ``Store``
(``stored``), least recently used first out, under a byte budget.  Sizes
are read at eviction: on a miss the store reads the ``nbytes`` of each
entry as it is then, at least one byte each, a horizon's arrays formed
since it was stored and its plant's among them, and drops the least
recently used until the rest hold at most the budget.
Spectra and horizons share one ``STORE`` under ``BUDGET`` bytes.  At 4 MiB
a CLI bundle's n=32 spectrum and horizons (up to 0.67 MB each with a
plant) stay resident, while an n=96 horizon with its plant (about 6 MB) is
gone before the next is computed.  Every other memo has a store of its
own with a budget of 0, which keeps its newest entry only: the bump and
the m-matrix repeat anyway, and a round of two dozen feedback laws (0.2 to
0.3 MB each at n=32) would not hit within the budget.  Either way an entry
is evicted before the new value is computed, and a computation that
raises stores nothing.  What a memo keeps is shared, so its arrays are
made read-only (``read_only``).
"""

from __future__ import annotations

import functools

#: Bytes of arrays the store keeps when it computes a new entry.
BUDGET = 4 * 2**20

_MISSING = object()


def nbytes(*values) -> int:
    """Bytes of the arrays among ``values``: an array's or a record's own
    ``nbytes``, the sum over a tuple's items, and 0 for anything else."""
    return sum(nbytes(*value) if isinstance(value, tuple)
               else getattr(value, "nbytes", 0) for value in values)


class Store:
    """Values by key, least recently used first out, under a byte budget.
    Each entry counts as at least one byte, so a zero-budget store keeps
    its newest entry only."""

    __slots__ = ("_entries", "budget")

    def __init__(self, budget: int = 0):
        self._entries = {}            # oldest first: a hit is reinserted
        self.budget = budget

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the kept values hold now."""
        return nbytes(*self._entries.values())

    def clear(self):
        self._entries.clear()

    def get(self, key, compute):
        """The value of ``key``, now the most recently used; on a miss,
        the least recently used entries go until the rest hold at most
        ``budget`` bytes, and ``compute()`` is stored."""
        entries = self._entries
        value = entries.pop(key, _MISSING)
        if value is _MISSING:
            sizes = [max(nbytes(kept), 1) for kept in entries.values()]
            total = sum(sizes)
            for size in sizes:
                if total <= self.budget:
                    break
                del entries[next(iter(entries))]
                total -= size
            value = compute()
        entries[key] = value
        return value


#: The one store of spectra and horizons.
STORE = Store(BUDGET)


def stored(key, store=STORE):
    """Decorator: memoize a function on ``key(*args, **kwargs)`` in
    ``store``, the ``STORE`` unless another is given.  The memoized
    function gets a ``cache_clear()`` like ``functools.lru_cache``, which
    empties the whole store, and its ``key``, for a memo that keys alike."""
    def decorate(fn):
        @functools.wraps(fn)
        def memoized(*args, **kwargs):
            return store.get((memoized, key(*args, **kwargs)),
                             lambda: fn(*args, **kwargs))
        memoized.cache_clear = store.clear
        memoized.key = key
        return memoized
    return decorate


def read_only(*arrays):
    """The arrays, made read-only: one array alone, several as a tuple."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays[0] if len(arrays) == 1 else arrays
