"""Build-on-demand C tier for :mod:`repro.native`.

Compiles ``kernels.c`` (shipped next to this module) with the system C
compiler the first time it is needed and binds the kernels through
:mod:`ctypes`.  The shared object is cached under
``$REPRO_NATIVE_CACHE`` (default ``$XDG_CACHE_HOME/repro-native``)
keyed by a hash of the source, the compiler, and the flags, so every
later import is a single ``dlopen``.  The build is atomic (tmp file +
``os.replace``) and safe under concurrent processes.

Any failure -- no compiler, sandboxed cache dir, bad toolchain --
raises out of :func:`load_kernels` and is absorbed by the probe in
:mod:`repro.native`, which marks the tier unavailable and keeps the
exception text as the reason.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Any, NamedTuple

import numpy as np

_SOURCE = Path(__file__).with_name("kernels.c")

# -O3 keeps IEEE semantics; -ffast-math would break bit-identicality
# with the numpy reference paths and must never appear here.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c99")

# A numpy dtype in a kernel signature marks an array argument, passed
# to C as a raw address (see _Kernel); anything else is its ctypes type.
_I64 = np.dtype(np.int64)
_I32 = np.dtype(np.int32)
_F64 = np.dtype(np.float64)
_U8 = np.dtype(np.uint8)
_INT = ctypes.c_int64
_DBL = ctypes.c_double

# every kernel returns a long long; these are their parameter lists
_SIGNATURES = {
    "score_block": (
        _I64, _I32, _I64, _I32, _I32,
        _INT, _INT, _INT, _DBL, _INT,
        _I32, _I32, _I64, _I32, _INT,
    ),
    "mirror_neighbors": (_I64, _I32, _INT, _I64, _I32),
    "link_rows": (
        _I64, _I32, _INT, _I64, _I32, _I32, _I64, _I64, _INT, _I64,
    ),
    "assign_block": (
        _I64, _I32, _I64, _INT,
        _I64, _I32, _I64, _I32,
        _I32, _F64, _DBL,
        _U8, _I32, _I32, _I64, _I32,
        _I64, _F64,
    ),
    "merge_components": (
        _INT, _I64, _I64, _I64, _I64,
        _I64, _I64, _F64,
        _F64, _INT, _INT, _INT,
        _I64, _I64, _F64, _I64, _I64, _I64,
        _I64, _I64, _F64, _I64,
        _I64, _I64,
    ),
}

# link_rows' first output chunk, in pairs (16 MB of codes and counts)
_LINK_CHUNK = 1 << 20


class StreamBuffers(NamedTuple):
    """Every component's greedy merge stream, concatenated.

    Component ``c``'s stream starts at ``slot_offsets[c] - c`` and holds
    ``lengths[c]`` entries in local slot ids; ``heap_ops[c]`` is its
    inner loop's count.
    """

    left: np.ndarray
    right: np.ndarray
    goodness: np.ndarray
    sizes: np.ndarray
    lengths: np.ndarray
    heap_ops: np.ndarray


class MergeRun(NamedTuple):
    """One ``merge_components`` call: the replayed merge history in
    global ids (merged ids are ``m, m+1, ...`` in order), the final
    cluster id of every initial cluster, and the counters."""

    left: np.ndarray
    right: np.ndarray
    goodness: np.ndarray
    sizes: np.ndarray
    roots: np.ndarray
    heap_ops: int
    stopped_early: bool
    streams: StreamBuffers


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-native"


def _compiler() -> str:
    # an explicit CC is the only candidate: a missing one fails the
    # probe rather than silently building with another compiler
    cc = os.environ.get("CC")
    if cc:
        if shutil.which(cc):
            return cc
        raise RuntimeError(f"C compiler {cc!r} from CC not found")
    for name in ("cc", "gcc", "clang"):
        if shutil.which(name):
            return name
    raise RuntimeError("no C compiler found")


def _build(source: Path, cc: str) -> Path:
    text = source.read_bytes()
    key = hashlib.sha256(
        b"\x00".join([text, cc.encode(), " ".join(_CFLAGS).encode()])
    ).hexdigest()[:16]
    cache = _cache_dir()
    out = cache / f"kernels-{key}.so"
    if out.exists():
        return out
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        build = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(source), "-lm"],
            capture_output=True,
            timeout=120,
        )
        if build.returncode != 0:
            stderr = build.stderr.decode(errors="replace").strip()
            raise RuntimeError(f"C build failed: {stderr[-300:]}")
        os.replace(tmp, out)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return out


def _address(a: np.ndarray) -> int:
    try:
        # a writable buffer export is the cheap way to the data pointer
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):  # read-only or empty arrays
        return a.ctypes.data


class _Kernel:
    """One C kernel called with raw array addresses.

    ``ndpointer`` argtypes re-check every array in Python on every call,
    which costs more than a small ``assign_block`` itself.  Here each
    array argument is converted to its declared dtype, C-contiguous (a
    no-op for an array that already is), held until the call returns,
    and passed as a ``void *``.  Output arrays must be allocated with
    the declared dtype, or the kernel would write into a copy.
    """

    __slots__ = ("_fn", "_dtypes")

    def __init__(self, fn: Any, signature: tuple) -> None:
        fn.restype = ctypes.c_longlong
        fn.argtypes = [
            ctypes.c_void_p if isinstance(t, np.dtype) else t for t in signature
        ]
        self._fn = fn
        self._dtypes = [t if isinstance(t, np.dtype) else None for t in signature]

    def __call__(self, *args: Any) -> int:
        held = [
            a if dtype is None else np.ascontiguousarray(a, dtype)
            for a, dtype in zip(args, self._dtypes, strict=True)
        ]
        return self._fn(*[
            a if dtype is None else _address(a)
            for a, dtype in zip(held, self._dtypes)
        ])


class _CextKernels:
    """The uniform kernel interface on top of the bound library."""

    name = "cext"

    def __init__(self, lib: ctypes.CDLL, so_path: Path, cc: str) -> None:
        self._lib = SimpleNamespace(**{
            name: _Kernel(getattr(lib, name), signature)
            for name, signature in _SIGNATURES.items()
        })
        self.info = {"so": str(so_path), "cc": cc}

    def score_block(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        t_indptr: np.ndarray,
        t_indices: np.ndarray,
        sizes: np.ndarray,
        n: int,
        start: int,
        stop: int,
        theta: float,
        overlap: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        rows = stop - start
        acc = np.zeros(n, dtype=np.int32)
        touched = np.empty(n, dtype=np.int32)
        out_indptr = np.empty(rows + 1, dtype=np.int64)
        # average-degree guess; the kernel reports the exact size when
        # this is short and we retry once
        cap = max(np.size(indices) * max(rows, 1) // max(n, 1) + 64, 256)
        while True:
            out_indices = np.empty(cap, dtype=np.int32)
            written = self._lib.score_block(
                indptr, indices, t_indptr, t_indices, sizes,
                n, start, stop, float(theta), int(overlap),
                acc, touched, out_indptr, out_indices, cap,
            )
            if written >= 0:
                return out_indptr, out_indices[:written]
            cap = -written

    def mirror_neighbors(
        self,
        upper_indptr: np.ndarray,
        upper_indices: np.ndarray,
        n: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        full_indptr = np.empty(n + 1, dtype=np.int64)
        full_indices = np.empty(2 * np.size(upper_indices), dtype=np.int32)
        total = self._lib.mirror_neighbors(
            upper_indptr, upper_indices, n, full_indptr, full_indices,
        )
        if total < 0:
            raise MemoryError("mirror_neighbors: allocation failed")
        return full_indptr, full_indices

    def link_rows(
        self, indptr: np.ndarray, indices: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted upper-triangle pair codes and link counts of the
        symmetric neighbor graph held as ascending CSR lists.

        The output grows in chunks the kernel resumes into: the first
        holds the ``min(n^2 / 2, sum m (m - 1) / 2)`` pair bound or
        ``_LINK_CHUNK`` pairs, whichever is smaller (but at least
        ``n``, so every call finishes a row), and each later one
        doubles, so memory stays O(n + pairs) whatever the pair work.
        """
        # converted once, not per chunk; cursor must be int64 to persist
        indptr = np.ascontiguousarray(indptr, _I64)
        indices = np.ascontiguousarray(indices, _I32)
        cursor = indptr[:-1].copy()
        acc = np.zeros(n, dtype=np.int32)
        touched = np.empty(n + 1, dtype=np.int32)
        next_row = np.zeros(1, dtype=np.int64)
        lens = np.diff(indptr)
        bound = min(n * (n - 1) // 2, int((lens * (lens - 1) // 2).sum()))
        cap = max(min(bound, _LINK_CHUNK), n)
        codes: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        while not codes or next_row[0] < n:
            chunk_codes = np.empty(cap, dtype=np.int64)
            chunk_counts = np.empty(cap, dtype=np.int64)
            written = self._lib.link_rows(
                indptr, indices, n, cursor, acc, touched,
                chunk_codes, chunk_counts, cap, next_row,
            )
            codes.append(chunk_codes[:written])
            counts.append(chunk_counts[:written])
            cap *= 2
        if len(codes) == 1:
            return codes[0], counts[0]
        return np.concatenate(codes), np.concatenate(counts)

    def assign_block(
        self,
        q_indptr: np.ndarray,
        q_items: np.ndarray,
        q_sizes: np.ndarray,
        pre_indptr: np.ndarray,
        pre_reps: np.ndarray,
        rep_indptr: np.ndarray,
        rep_items: np.ndarray,
        rep_cluster: np.ndarray,
        normalisers: np.ndarray,
        theta: float,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """``(labels, best scores, candidates verified)`` for one block.

        ``q_items`` holds rank-numbered item ids; the kernel sorts each
        row in place, so it always receives a private copy.
        """
        q_items = np.array(q_items, dtype=np.int32)
        b = len(q_indptr) - 1
        n_reps = len(rep_indptr) - 1
        n_clusters = max(len(normalisers), 1)
        mark = np.zeros(max(len(pre_indptr) - 1, 1), dtype=np.uint8)
        seen = np.zeros(max(n_reps, 1), dtype=np.int32)
        # one spare slot: the kernel's branchless first-touch write
        # targets touched[n_touched] even for repeat touches
        touched = np.empty(n_reps + 1, dtype=np.int32)
        ccounts = np.zeros(n_clusters, dtype=np.int64)
        ctouched = np.empty(n_clusters, dtype=np.int32)
        out_labels = np.empty(max(b, 1), dtype=np.int64)
        out_best = np.empty(max(b, 1), dtype=np.float64)
        verified = self._lib.assign_block(
            q_indptr, q_items, q_sizes, b,
            pre_indptr, pre_reps, rep_indptr, rep_items,
            rep_cluster, normalisers, float(theta),
            mark, seen, touched, ccounts, ctouched,
            out_labels, out_best,
        )
        return out_labels[:b], out_best[:b], int(verified)

    def merge_components(
        self,
        slot_offsets: np.ndarray,
        pair_offsets: np.ndarray,
        sizes: np.ndarray,
        global_ids: np.ndarray,
        pair_lo: np.ndarray,
        pair_hi: np.ndarray,
        pair_count: np.ndarray,
        ptable: np.ndarray,
        naive: int,
        k: int,
        m: int,
    ) -> "MergeRun":
        """The cluster phase over packed components in one call.

        Component ``c`` owns slots ``slot_offsets[c]:slot_offsets[c+1]``
        of ``sizes`` / ``global_ids`` and pairs
        ``pair_offsets[c]:pair_offsets[c+1]`` of the local pair arrays;
        ``ptable`` must cover every component's summed size.
        """
        n_comp = len(slot_offsets) - 1
        cap = max(int(slot_offsets[-1]) - n_comp, 1)
        streams = StreamBuffers(
            left=np.empty(cap, dtype=np.int64),
            right=np.empty(cap, dtype=np.int64),
            goodness=np.empty(cap, dtype=np.float64),
            sizes=np.empty(cap, dtype=np.int64),
            lengths=np.empty(max(n_comp, 1), dtype=np.int64),
            heap_ops=np.empty(max(n_comp, 1), dtype=np.int64),
        )
        left = np.empty(cap, dtype=np.int64)
        right = np.empty(cap, dtype=np.int64)
        goodness = np.empty(cap, dtype=np.float64)
        out_sizes = np.empty(cap, dtype=np.int64)
        roots = np.empty(max(int(m), 1), dtype=np.int64)
        stats = np.zeros(2, dtype=np.int64)
        n_merges = self._lib.merge_components(
            n_comp, slot_offsets, pair_offsets, sizes, global_ids,
            pair_lo, pair_hi, pair_count,
            ptable, int(naive), int(k), int(m),
            streams.left, streams.right, streams.goodness, streams.sizes,
            streams.lengths, streams.heap_ops,
            left, right, goodness, out_sizes, roots, stats,
        )
        if n_merges < 0:
            raise MemoryError("merge_components: allocation failed")
        return MergeRun(
            left=left[:n_merges],
            right=right[:n_merges],
            goodness=goodness[:n_merges],
            sizes=out_sizes[:n_merges],
            roots=roots[:m],
            heap_ops=int(stats[0]),
            stopped_early=bool(stats[1]),
            streams=streams,
        )

def load_kernels() -> Any:
    """Compile (or reuse) the shared object and bind the kernels.

    Raises on any failure; the probe in :mod:`repro.native` treats that
    as "tier unavailable" and records the message.
    """
    if sys.platform == "win32":  # ctypes build path is POSIX-only
        raise RuntimeError("cext tier not supported on Windows")
    cc = _compiler()
    so_path = _build(_SOURCE, cc)
    return _CextKernels(ctypes.CDLL(str(so_path)), so_path, cc)
