"""One-entry memos for the products that depend only on the parameters.

Callers rebuild their bump, problem and spectrum on every call, so a memo is
keyed by value, not by object, and keeps the latest entry only: a new key
evicts the old entry before the new one is computed, so two entries never
live at once.  A computation that raises stores nothing.  What a memo
keeps is shared, so its arrays are made read-only (``read_only``).
"""

from __future__ import annotations

import functools


class Latest:
    """The value of the latest key asked for; another key replaces it."""

    __slots__ = ("_entry",)

    def __init__(self):
        self._entry = None            # (key, value), read and set as one

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


def latest(key):
    """Decorator: memoize a function on ``key(*args, **kwargs)``, one entry.

    The memoized function gets a ``cache_clear()`` like
    ``functools.lru_cache``.
    """
    def decorate(fn):
        memo = Latest()

        @functools.wraps(fn)
        def memoized(*args, **kwargs):
            return memo.get(key(*args, **kwargs),
                            lambda: fn(*args, **kwargs))
        memoized.cache_clear = memo.clear
        return memoized
    return decorate


def read_only(*arrays):
    """The arrays, made read-only: one array alone, several as a tuple."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays[0] if len(arrays) == 1 else arrays
