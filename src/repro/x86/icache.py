"""L1 cache models: a generic set-associative cache + the i-cache front end.

:class:`SetAssocCache` is the shared cache substrate of the hwc
microarchitectural model (:mod:`repro.obs.hwc`): a set-associative cache
with LRU replacement, used for both the L1 instruction cache below and
the L1 data cache of the hwc model.

:class:`ICache` specializes it for the instruction fetch stream, like the
32 KB/8-way L1I of the Xeon E5-1650 v3 the paper measured on.  The
*default capacity is scaled down* (768 B, 3-way) to match the scaled-down
workloads: the proxy benchmarks are ~100x smaller than SPEC, so their hot
code footprints are a few hundred bytes to a few KB where real SPEC hot
regions are tens of KB.  Scaling the cache preserves the phenomenon the
paper measures — whether a pipeline's hot code fits — at the reproduced
code sizes.  Pass ``size=32*1024, ways=8`` for the unscaled hardware.

The executor feeds the i-cache model every instruction fetch; consecutive
fetches from the same line are filtered out before they reach the
(comparatively expensive) set lookup, which both matches hardware fetch
behaviour and keeps simulation fast.
"""

from __future__ import annotations

#: Scaled default capacity (see module docstring).
DEFAULT_SIZE = 768
DEFAULT_WAYS = 3


class SetAssocCache:
    """A set-associative LRU cache; counts line accesses and misses."""

    def __init__(self, size: int, line_size: int = 64, ways: int = 8):
        self.line_size = line_size
        self.ways = ways
        self.num_sets = size // (line_size * ways)
        self._line_shift = line_size.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # Each set is an ordered list of tags; index 0 is most recent.
        self.sets = [[] for _ in range(self.num_sets)]
        self.accesses = 0
        self.misses = 0

    def reset(self) -> None:
        self.sets = [[] for _ in range(self.num_sets)]
        self.accesses = 0
        self.misses = 0

    def _access_line(self, line: int) -> int:
        """Touch one line; returns 1 on a miss, 0 on a hit."""
        self.accesses += 1
        ways = self.sets[line & self._set_mask]
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            return 0
        self.misses += 1
        ways.insert(0, line)
        if len(ways) > self.ways:
            ways.pop()
        return 1

    def access(self, addr: int, size: int = 8) -> int:
        """Data-side access: touch every line the access covers.

        Each covered line counts one access; returns the number of
        missed lines (0, 1, or 2 for a line-spanning access).
        """
        first = addr >> self._line_shift
        last = (addr + size - 1) >> self._line_shift
        missed = self._access_line(first)
        line = first
        while line < last:
            line += 1
            missed += self._access_line(line)
        return missed


class ICache(SetAssocCache):
    """The instruction-fetch specialization of :class:`SetAssocCache`."""

    def __init__(self, size: int = DEFAULT_SIZE, line_size: int = 64,
                 ways: int = DEFAULT_WAYS):
        super().__init__(size, line_size, ways)
        self._last_line = -1

    def reset(self) -> None:
        super().reset()
        self._last_line = -1

    def fetch(self, addr: int, size: int = 4) -> None:
        """Record an instruction fetch at ``addr`` of ``size`` bytes."""
        first = addr >> self._line_shift
        last = (addr + size - 1) >> self._line_shift
        if first == self._last_line and last == first:
            return  # sequential fetch within the current line: free
        line = first
        while True:
            if line != self._last_line:
                self._access_line(line)
            if line >= last:
                break
            line += 1
        self._last_line = last

    def invalidate_stream(self) -> None:
        """Forget the last-line filter (after a branch)."""
        self._last_line = -1
