"""Content-addressed compile cache for the measurement harness.

Every figure and table of the paper recompiles the same PolyBench/SPEC
sources through the same pipelines: Table 1, Fig. 3 and the ablation
suites each rebuild identical artifacts.  This module stores the
artifact of each (source, pipeline, settings, toolchain) combination in
a two-tier cache:

* an in-process dict (shared artifacts, zero-copy hits), and
* an on-disk pickle store under ``~/.cache/repro`` so hits survive
  process boundaries — including the workers of the parallel suite
  runner (:mod:`repro.harness.parallel`).

Once a key is stored, every later lookup in any process hits it.
Nothing coordinates compiles in progress, though: workers that miss
the same key at the same time each compile it, so on a cold cache the
pooled cells of one benchmark may each run the frontend and mid-end.

:meth:`CompileCache.key` is the one definition of an artifact's
identity: a SHA-256 digest over a *toolchain fingerprint* (a content
hash of every ``repro`` source file), the settings that change output
without a source edit (:func:`compile_config`), and the caller's parts
(the pipeline, source text, name and memory size of a compile, or an
engine's signature and the wasm key).  Changing any compiler code (or
the package version) therefore invalidates the whole cache
automatically — there is no way to observe a stale artifact.

Artifacts are compact on disk: :meth:`repro.x86.program.X86Program.layout`
gives each distinct operand of a program one shared object, and an
:class:`~repro.x86.isa.Instr` pickles as one flat tuple, so a test-size
SPEC program stores at about 45 bytes per instruction (about 60 KB).  A
disk hit unpickles with the cyclic GC paused (:func:`_loads`): the
thousands of small objects it allocates would otherwise trigger
collections that free nothing.  :class:`CacheStats` counts the bytes
written (``bytes_stored``) and the bytes disk hits read
(``bytes_read``), framing included.

Escape hatches: the ``--no-cache`` CLI flag, the ``REPRO_NO_CACHE``
environment variable, or :func:`set_enabled`.  ``REPRO_CACHE_DIR``
relocates the disk tier.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle

from ..errors import CacheCorruptionError
from ..ir.passes import ranges_enabled, ssa_enabled
from ..ir.verify import check_ranges_enabled
from ..obs import get_registry
from ..resilience import faults

#: On-disk entry header: magic + 32-byte SHA-256 of the pickled payload.
#: Entries that fail the checksum (bit flips, truncation, a stray write)
#: are detected, evicted, and recompiled — never blindly unpickled.
ENTRY_MAGIC = b"RPRC1\x00"


def encode_entry(payload: bytes) -> bytes:
    """Frame a pickled artifact with its content checksum."""
    return ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload


def decode_entry(blob: bytes) -> bytes:
    """Verify and strip an entry frame; raises CacheCorruptionError."""
    header = len(ENTRY_MAGIC) + 32
    if len(blob) < header or not blob.startswith(ENTRY_MAGIC):
        raise CacheCorruptionError("bad cache entry header")
    digest = blob[len(ENTRY_MAGIC):header]
    payload = blob[header:]
    if hashlib.sha256(payload).digest() != digest:
        raise CacheCorruptionError("cache entry checksum mismatch")
    return payload


class CacheStats:
    """Hit/miss accounting for one :class:`CompileCache`."""

    __slots__ = ("memory_hits", "disk_hits", "misses", "stores",
                 "disk_errors", "evictions", "bytes_stored", "bytes_read",
                 "corruptions")

    def __init__(self):
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.disk_errors = 0
        self.evictions = 0
        self.bytes_stored = 0
        self.bytes_read = 0
        self.corruptions = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits, "disk_hits": self.disk_hits,
            "hits": self.hits, "misses": self.misses,
            "stores": self.stores, "disk_errors": self.disk_errors,
            "evictions": self.evictions, "bytes_stored": self.bytes_stored,
            "bytes_read": self.bytes_read, "corruptions": self.corruptions,
        }

    def __repr__(self):
        return (f"<cache-stats hits={self.hits} "
                f"(mem={self.memory_hits} disk={self.disk_hits}) "
                f"misses={self.misses}>")


def default_cache_dir() -> str:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME",
                          os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "repro")


_FINGERPRINT = None


def toolchain_fingerprint() -> str:
    """Content hash of every repro source file (computed once).

    Any change to the compilers, the IR passes, or the harness itself
    yields a new fingerprint, so cached artifacts can never outlive the
    toolchain that produced them.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256(repro.__version__.encode())
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def compile_config() -> tuple:
    """The settings that change an artifact without a source edit: the
    SSA mid-end (``REPRO_SSA``), range analysis (``REPRO_RANGES``) and
    the range oracle (``--check-ranges``).  ``--verify-ir`` is not one:
    it checks compiles but changes no artifact."""
    return (("ssa", ssa_enabled()), ("ranges", ranges_enabled()),
            ("check_ranges", check_ranges_enabled()))


def _loads(payload: bytes):
    """``pickle.loads`` with the cyclic GC paused, then restored as the
    caller had it: each of an artifact's thousands of objects would
    otherwise count towards the next collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return pickle.loads(payload)
    finally:
        if enabled:
            gc.enable()


class CompileCache:
    """Two-tier (memory + disk) content-addressed artifact store."""

    def __init__(self, directory: str = None, use_disk: bool = True):
        self.directory = directory or default_cache_dir()
        self.use_disk = use_disk
        self._memory: dict[str, object] = {}
        self.stats = CacheStats()

    # -- keys -------------------------------------------------------------------

    def key(self, *parts) -> str:
        """SHA-256 over the toolchain fingerprint, :func:`compile_config`
        and ``parts``.

        Parts may be str/bytes/int/float/bool/None or nested tuples of
        those; each is tagged so e.g. ``1`` and ``"1"`` hash differently.
        """
        digest = hashlib.sha256(toolchain_fingerprint().encode())
        self._feed(digest, (compile_config(), parts))
        return digest.hexdigest()

    def _feed(self, digest, value) -> None:
        if isinstance(value, (tuple, list)):
            digest.update(b"(")
            for item in value:
                self._feed(digest, item)
            digest.update(b")")
        elif isinstance(value, bytes):
            digest.update(b"b" + len(value).to_bytes(8, "little") + value)
        else:
            blob = f"{type(value).__name__}:{value!r};".encode()
            digest.update(blob)

    # -- lookup / store -----------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".pkl")

    def get(self, key: str):
        """Return the cached artifact or None (miss).

        Disk entries are verified against their content checksum before
        unpickling; a corrupted or truncated entry (including one
        mangled by the ``cache`` fault point) is evicted, counted, and
        treated as a miss so the artifact recompiles.
        """
        value = self._memory.get(key)
        if value is not None:
            self.stats.memory_hits += 1
            get_registry().counter("cache.memory_hits").inc()
            return value
        if self.use_disk:
            path = self._path(key)
            blob = None
            try:
                with open(path, "rb") as fh:
                    blob = fh.read()
            except OSError:
                blob = None
            if blob is not None:
                # Fault point: bit flips / truncation on the read path.
                blob = faults.mangle("cache", blob)
                try:
                    value = _loads(decode_entry(blob))
                except (CacheCorruptionError, pickle.PickleError,
                        EOFError, AttributeError, IndexError,
                        ImportError, MemoryError, ValueError):
                    self._evict_corrupt(path)
                    value = None
            if value is not None:
                self._memory[key] = value
                self.stats.disk_hits += 1
                self.stats.bytes_read += len(blob)
                get_registry().counter("cache.disk_hits").inc()
                get_registry().counter("cache.bytes_read").inc(len(blob))
                return value
        self.stats.misses += 1
        get_registry().counter("cache.misses").inc()
        return None

    def _evict_corrupt(self, path: str) -> None:
        self.stats.corruptions += 1
        self.stats.evictions += 1
        get_registry().counter("cache.corruption_detected").inc()
        get_registry().counter("cache.evictions").inc()
        try:
            os.unlink(path)
        except OSError:
            pass

    def put(self, key: str, value) -> None:
        self._memory[key] = value
        self.stats.stores += 1
        get_registry().counter("cache.stores").inc()
        if not self.use_disk:
            return
        path = self._path(key)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            data = encode_entry(
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)  # atomic: concurrent workers never clash
            self.stats.bytes_stored += len(data)
            get_registry().counter("cache.bytes_stored").inc(len(data))
        except (OSError, pickle.PickleError):
            self.stats.disk_errors += 1
            get_registry().counter("cache.disk_errors").inc()
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def clear_memory(self) -> None:
        self.stats.evictions += len(self._memory)
        get_registry().counter("cache.evictions").inc(len(self._memory))
        self._memory.clear()

    def __len__(self):
        return len(self._memory)


# -- process-global default cache --------------------------------------------------

_GLOBAL: CompileCache = None
_ENABLED = None


def get_cache() -> CompileCache:
    """The process-wide default cache (created lazily)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = CompileCache()
    return _GLOBAL


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable caching (the --no-cache escape hatch)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def is_enabled() -> bool:
    if _ENABLED is not None:
        return _ENABLED
    return not os.environ.get("REPRO_NO_CACHE")


def resolve_cache(cache):
    """Map a ``cache`` argument to an active cache or None.

    ``None`` selects the global default (subject to :func:`is_enabled`),
    ``False`` disables caching for the call, and a :class:`CompileCache`
    instance is used as-is.
    """
    if cache is False:
        return None
    if cache is None:
        return get_cache() if is_enabled() else None
    return cache
