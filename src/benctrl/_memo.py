"""One-entry memos for the products that depend only on the parameters.

Every key follows one rule.  What callers rebuild on every call is keyed by
value: numbers with their types, a bump's coefficients, the arguments of a
spectrum (``Spectrum.key``).  A record that a memo returned, an m-matrix or
an L_lambda, is keyed by identity, as every record holding arrays compares,
and is held in the key, so its ``id`` is never handed on.  A memo keeps its
latest entry only: a new key evicts it before the new value is computed,
and a computation that raises stores nothing.  What a memo keeps is shared,
so its arrays are made read-only (``read_only``).
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
    ``functools.lru_cache``, and its ``key``, for a memo that keys alike.
    """
    def decorate(fn):
        memo = Latest()

        @functools.wraps(fn)
        def memoized(*args, **kwargs):
            return memo.get(key(*args, **kwargs),
                            lambda: fn(*args, **kwargs))
        memoized.cache_clear = memo.clear
        memoized.key = key
        return memoized
    return decorate


def read_only(*arrays):
    """The arrays, made read-only: one array alone, several as a tuple."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays[0] if len(arrays) == 1 else arrays
