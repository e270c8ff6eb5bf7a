"""Memos for the products that depend only on the parameters.

Every key follows one rule.  What callers rebuild on every call is keyed by
value: numbers with their types, a bump's coefficients, the arguments of a
spectrum (``Spectrum.key``).  A record that a memo returned, an m-matrix or
an L_lambda, is keyed by identity, as every record holding arrays compares,
and is held in the key, so its ``id`` is never handed on.

Spectra and horizons share one ``STORE`` (``stored``), least recently used
first out, under ``BUDGET`` bytes.  Sizes are read at eviction: on a miss
the store reads the ``nbytes`` of each entry as it is then, a horizon's
arrays formed since it was stored and its plant's among them, and drops
the least recently used until the rest fit.  At 4 MiB a CLI bundle's
n=32 spectrum and horizons (up to 0.67 MB each with a plant) stay
resident, while an n=96 horizon with its plant (about 6 MB) is gone
before the next is computed.  Every other memo (``latest``) keeps its
latest entry: the bump and the m-matrix repeat anyway, and a round of
two dozen feedback laws (0.2 to 0.3 MB each at n=32) would not hit within
the budget.  Either way an entry is evicted before the new value is
computed, and a computation that raises stores nothing.  What a memo
keeps is shared, so its arrays are made read-only (``read_only``).
"""

from __future__ import annotations

import functools
from collections import OrderedDict

#: Bytes of arrays the store keeps when it computes a new entry.
BUDGET = 4 * 2**20


def nbytes(*values) -> int:
    """Bytes of the arrays among ``values``: an array's or a record's own
    ``nbytes``, the sum over a tuple's items, and 0 for anything else."""
    return sum(nbytes(*value) if isinstance(value, tuple)
               else getattr(value, "nbytes", 0) for value in values)


class Latest:
    """The value of the latest key asked for; another key replaces it."""

    __slots__ = ("_entry",)

    def __init__(self):
        self._entry = None            # (key, value), read and set as one

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the kept value holds now."""
        return 0 if self._entry is None else nbytes(self._entry[1])

    def clear(self):
        self._entry = None

    def get(self, key, compute):
        """The stored value if ``key`` equals the stored key, else the
        value of ``compute()``, which then replaces the entry."""
        entry = self._entry
        if entry is not None and entry[0] == key:
            return entry[1]
        self._entry = None
        value = compute()
        self._entry = (key, value)
        return value


class Store:
    """Values by key, least recently used first out, under a byte budget."""

    __slots__ = ("_entries", "budget")

    def __init__(self, budget: int):
        self._entries = OrderedDict()
        self.budget = budget

    def clear(self):
        self._entries.clear()

    def get(self, key, compute):
        """The value of ``key``, now the most recently used; on a miss,
        the least recently used entries go until the rest hold at most
        ``budget`` bytes, and ``compute()`` is stored."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return entries[key]
        sizes = [nbytes(value) for value in entries.values()]
        total = sum(sizes)
        for size in sizes:
            if total <= self.budget:
                break
            entries.popitem(last=False)
            total -= size
        value = compute()
        entries[key] = value
        return value


#: The one store of spectra and horizons.
STORE = Store(BUDGET)


def _memoize(key, memo):
    """Decorator: memoize a function on ``key(*args, **kwargs)`` in
    ``memo``.  The memoized function gets a ``cache_clear()`` like
    ``functools.lru_cache``, which clears ``memo``, and its ``key``, for a
    memo that keys alike."""
    def decorate(fn):
        @functools.wraps(fn)
        def memoized(*args, **kwargs):
            return memo.get((memoized, key(*args, **kwargs)),
                            lambda: fn(*args, **kwargs))
        memoized.cache_clear = memo.clear
        memoized.key = key
        return memoized
    return decorate


def latest(key):
    """Decorator: memoize a function on ``key``, one entry."""
    return _memoize(key, Latest())


def stored(key):
    """Decorator: memoize a function on ``key`` in the ``STORE``; its
    ``cache_clear()`` empties the whole store."""
    return _memoize(key, STORE)


def read_only(*arrays):
    """The arrays, made read-only: one array alone, several as a tuple."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays[0] if len(arrays) == 1 else arrays
