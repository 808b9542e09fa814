"""Set-associative caches with random replacement.

The paper's simulated machine uses "two levels of caches with random
replacement policies" (Section III-B).  Random replacement is also what
the Cortex-A8/A7/A5 parts in Table I implement for their L1/L2 caches,
so the same model serves both the SESC-validation experiments and the
device models.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .config import CacheConfig

# Access outcome levels returned by CacheHierarchy.lookup().
L1 = "L1"
LLC = "LLC"
MEM = "MEM"

# Victim ways drawn per refill of a cache's eviction queue.
_VICTIM_CHUNK = 1024


class Cache:
    """One level of set-associative cache with random replacement.

    Tags are stored per set in plain Python lists; associativities in
    IoT-class parts are small (4-8 ways) so linear tag search is both
    simple and fast.

    Only a full set evicts, and a full set holds exactly
    ``associativity`` ways, so every victim is an
    ``integers(0, associativity)`` draw.  The draws are made
    ``_VICTIM_CHUNK`` at a time: ``integers(0, k, size=n)`` yields the
    same values, in the same order, as ``n`` scalar draws.
    """

    def __init__(self, config: CacheConfig, rng: Optional[np.random.Generator] = None):
        self.config = config
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._num_sets = config.num_sets
        self._line_shift = config.line_bytes.bit_length() - 1
        self._assoc = config.associativity
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        # Pre-drawn victim ways, next one last (``pop`` order).
        self._victims: List[int] = []
        self.hits = 0
        self.misses = 0

    def _index_tag(self, addr: int) -> tuple:
        line = addr >> self._line_shift
        return line % self._num_sets, line

    def access(self, addr: int) -> bool:
        """Look up ``addr``; allocate the line on a miss.

        Returns True on a hit.  The line (not the byte address) is the
        unit of lookup, so any two addresses on the same line hit each
        other.
        """
        line = addr >> self._line_shift
        ways = self._sets[line % self._num_sets]
        if line in ways:
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) < self._assoc:
            ways.append(line)
        else:
            ways[self._victim()] = line
        return False

    def locate(self, addrs: np.ndarray) -> tuple:
        """``(set indices, tags)`` of ``addrs``, as Python lists.

        Together with :attr:`ways` this lets a caller check residency of
        many addresses without a method call each.
        """
        lines = np.asarray(addrs, dtype=np.int64) >> self._line_shift
        return (lines % self._num_sets).tolist(), lines.tolist()

    @property
    def ways(self) -> List[List[int]]:
        """Per-set lists of resident tags (read them, do not modify)."""
        return self._sets

    def probe(self, addr: int) -> bool:
        """Check residency without updating state or statistics."""
        index, tag = self._index_tag(addr)
        return tag in self._sets[index]

    def fill(self, addr: int) -> None:
        """Install a line without counting a demand access (prefetch)."""
        index, tag = self._index_tag(addr)
        ways = self._sets[index]
        if tag not in ways:
            if len(ways) < self._assoc:
                ways.append(tag)
            else:
                ways[self._victim()] = tag

    def invalidate(self, addr: int) -> bool:
        """Drop a line if present; returns True if it was resident."""
        index, tag = self._index_tag(addr)
        ways = self._sets[index]
        if tag in ways:
            ways.remove(tag)
            return True
        return False

    def _victim(self) -> int:
        """The next random way to evict from a full set."""
        victims = self._victims
        if not victims:
            victims.extend(
                self._rng.integers(0, self._assoc, size=_VICTIM_CHUNK)[::-1].tolist()
            )
        return victims.pop()

    def flush(self) -> None:
        """Empty the cache (cold restart)."""
        for ways in self._sets:
            ways.clear()

    @property
    def accesses(self) -> int:
        """Total demand accesses observed."""
        return self.hits + self.misses

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(ways) for ways in self._sets)

    def miss_rate(self) -> float:
        """Demand miss rate; zero when the cache is untouched."""
        total = self.accesses
        return self.misses / total if total else 0.0


class CacheHierarchy:
    """L1 I-cache + L1 D-cache backed by a unified LLC.

    ``lookup_*`` methods return the level that serviced the access:
    ``L1`` (hit in the first level), ``LLC`` (L1 miss, LLC hit) or
    ``MEM`` (miss in both - a main-memory access, the event EMPROF is
    built to observe).
    """

    def __init__(
        self,
        l1i: CacheConfig,
        l1d: CacheConfig,
        llc: CacheConfig,
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng if rng is not None else np.random.default_rng(0)
        # Independent generator streams keep replacement decisions in one
        # cache from perturbing another when configurations change.
        self.l1i = Cache(l1i, np.random.default_rng(rng.integers(0, 2**63)))
        self.l1d = Cache(l1d, np.random.default_rng(rng.integers(0, 2**63)))
        self.llc = Cache(llc, np.random.default_rng(rng.integers(0, 2**63)))

    def lookup_instruction(self, addr: int) -> str:
        """Instruction-fetch path: L1I then unified LLC."""
        if self.l1i.access(addr):
            return L1
        if self.llc.access(addr):
            return LLC
        return MEM

    def lookup_data(self, addr: int) -> str:
        """Data path (loads and stores): L1D then unified LLC."""
        if self.l1d.access(addr):
            return L1
        if self.llc.access(addr):
            return LLC
        return MEM

    def llc_resident(self, addr: int) -> bool:
        """Non-mutating residency probe of the LLC."""
        return self.llc.probe(addr)

    def flush(self) -> None:
        """Cold-start all levels."""
        self.l1i.flush()
        self.l1d.flush()
        self.llc.flush()
