"""A memo of a function's last results that a batch can fill in.

functools.lru_cache cannot be given a result computed elsewhere.  A range run
builds the layers of many discriminants at once (verify._batch_layers) and then
checks them one at a time; before a discriminant's checks run, its slice of
each layer is put into the memo of the function that the checks call for it,
so that the checks read the batch's arrays through the same per-discriminant
functions that a single request computes.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Optional

__all__ = ["memo"]


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: Optional[int]
    currsize: int


class Memo:
    """fn with its results kept by positional arguments: the last maxsize of them,
    or all of them when maxsize is None, as functools.lru_cache keeps them, plus
    put for a result computed elsewhere."""

    def __init__(self, fn: Callable, maxsize: Optional[int]) -> None:
        functools.update_wrapper(self, fn)
        self.maxsize = maxsize
        self._results: dict = {}
        self._hits = self._misses = 0

    def __call__(self, *args):
        try:
            value = self._results[args]
        except KeyError:
            self._misses += 1
            value = self.__wrapped__(*args)
            self.put(args, value)
            return value
        self._hits += 1
        return value

    def put(self, args: tuple, value) -> None:
        """Keep value as the result at args, dropping the oldest results beyond maxsize."""
        results = self._results
        results.pop(args, None)
        results[args] = value
        if self.maxsize is not None and len(results) > self.maxsize:
            del results[next(iter(results))]

    def cache_clear(self) -> None:
        self._results.clear()
        self._hits = self._misses = 0

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, self.maxsize, len(self._results))


def memo(maxsize: Optional[int]) -> Callable[[Callable], Memo]:
    """Decorator: fn as a Memo keeping maxsize results (None: all)."""
    return lambda fn: Memo(fn, maxsize)
