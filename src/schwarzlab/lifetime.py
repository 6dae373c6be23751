"""Memoization that lives exactly as long as one argument object.

A metric or a boundary built from JSON is a fresh object on every run, so a
size-limited cache keyed on it only pins the tables of objects that no
longer exist.  `lifetime_cache` keeps each result under its owner, one
argument of the call, held weakly: the results go with their owner, by
reference counting, and there is no size to choose.
"""

from __future__ import annotations

import functools
import weakref
from typing import Callable, NamedTuple


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    currsize: int   # results held for the owners still alive


class LifetimeCache:
    """`fn` memoized per live owner, the argument at `position`, then by the
    other arguments (keyword arguments count apart from positional ones, as
    in lru_cache).  Owners are held in a WeakKeyDictionary, so they need
    identity hashing and weak references (a dataclass with eq=False has
    both).  A result must not hold its owner strongly, or the owner never
    dies.  Exceptions are not cached.  `cache_info()` answers as
    lru_cache's does."""

    def __init__(self, fn: Callable, position: int = 0):
        functools.update_wrapper(self, fn)
        self._position = position
        self._store = weakref.WeakKeyDictionary()
        self._hits = self._misses = 0

    def __call__(self, *args, **kwargs):
        at = self._position
        owner = args[at]
        key = args[:at] + args[at + 1:] + tuple(kwargs.items())
        results = self._store.get(owner)
        if results is not None and key in results:
            self._hits += 1
            return results[key]
        self._misses += 1
        value = self.__wrapped__(*args, **kwargs)
        self._store.setdefault(owner, {})[key] = value
        return value

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses,
                         sum(len(results) for results in self._store.values()))


def lifetime_cache(position: int = 0) -> Callable[[Callable], LifetimeCache]:
    """Decorator: cache a function for as long as its argument at `position`
    lives (see `LifetimeCache`)."""
    return functools.partial(LifetimeCache, position=position)
