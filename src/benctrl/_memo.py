"""One-entry memos for the products that depend only on the parameters.

Callers rebuild their bump, problem and spectrum on every call, so a memo is
keyed by value, not by object, and keeps the latest entry only: a new key
evicts the old entry before the new one is computed, so two entries never
live at once.  A computation that raises stores nothing.
"""

from __future__ import annotations

import functools
import inspect


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


def typed_arguments(fn):
    """Key function: each argument of ``fn``, defaults filled in, and its type.

    Types are part of the key because values of different types can compare
    equal and still give different results (``Fraction(1) == 1.0``).
    """
    sig = inspect.signature(fn)

    def key(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple((type(v), v) for v in bound.arguments.values())
    return key


def latest(key=None):
    """Decorator: memoize a function on ``key(*args, **kwargs)``, one entry.

    ``key`` defaults to ``typed_arguments``; the memoized function gets a
    ``cache_clear()`` like ``functools.lru_cache``.
    """
    def decorate(fn):
        keyfn = key or typed_arguments(fn)
        memo = Latest()

        @functools.wraps(fn)
        def memoized(*args, **kwargs):
            return memo.get(keyfn(*args, **kwargs),
                            lambda: fn(*args, **kwargs))
        memoized.cache_clear = memo.clear
        return memoized
    return decorate
