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
from typing import Any, NamedTuple

import numpy as np

_SOURCE = Path(__file__).with_name("kernels.c")

# -O3 keeps IEEE semantics; -ffast-math would break bit-identicality
# with the numpy reference paths and must never appear here.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c99")

_i64_p = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_i32_p = np.ctypeslib.ndpointer(dtype=np.int32, flags="C_CONTIGUOUS")
_f64_p = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_u8_p = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")

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


def _bind(lib: ctypes.CDLL) -> None:
    lib.score_block.restype = ctypes.c_longlong
    lib.score_block.argtypes = [
        _i64_p, _i32_p, _i64_p, _i32_p, _i32_p,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_double, ctypes.c_int64,
        _i32_p, _i32_p, _i64_p, _i32_p, ctypes.c_int64,
    ]
    lib.mirror_neighbors.restype = ctypes.c_longlong
    lib.mirror_neighbors.argtypes = [
        _i64_p, _i32_p, ctypes.c_int64, _i64_p, _i32_p,
    ]
    lib.link_rows.restype = ctypes.c_longlong
    lib.link_rows.argtypes = [
        _i64_p, _i32_p, ctypes.c_int64, _i64_p, _i32_p, _i32_p,
        _i64_p, _i64_p, ctypes.c_int64, _i64_p,
    ]
    lib.assign_block.restype = ctypes.c_longlong
    lib.assign_block.argtypes = [
        _i64_p, _i32_p, _i64_p, ctypes.c_int64,
        _i64_p, _i32_p, _i64_p, _i32_p,
        _i32_p, _f64_p, ctypes.c_double,
        _u8_p, _i32_p, _i32_p, _i64_p, _i32_p,
        _i64_p, _f64_p,
    ]
    lib.merge_components.restype = ctypes.c_longlong
    lib.merge_components.argtypes = [
        ctypes.c_int64, _i64_p, _i64_p, _i64_p, _i64_p,
        _i64_p, _i64_p, _f64_p,
        _f64_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _i64_p, _i64_p, _f64_p, _i64_p, _i64_p, _i64_p,
        _i64_p, _i64_p, _f64_p, _i64_p,
        _i64_p, _i64_p,
    ]

def _as_i64(a: Any) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _as_i32(a: Any) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int32)


def _as_f64(a: Any) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


class _CextKernels:
    """The uniform kernel interface on top of the bound library."""

    name = "cext"

    def __init__(self, lib: ctypes.CDLL, so_path: Path, cc: str) -> None:
        self._lib = lib
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
        indptr = _as_i64(indptr)
        indices = _as_i32(indices)
        t_indptr = _as_i64(t_indptr)
        t_indices = _as_i32(t_indices)
        sizes = _as_i32(sizes)
        rows = stop - start
        acc = np.zeros(n, dtype=np.int32)
        touched = np.empty(n, dtype=np.int32)
        out_indptr = np.empty(rows + 1, dtype=np.int64)
        # average-degree guess; the kernel reports the exact size when
        # this is short and we retry once
        cap = max(int(indices.size) * max(rows, 1) // max(n, 1) + 64, 256)
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
        upper_indptr = _as_i64(upper_indptr)
        upper_indices = _as_i32(upper_indices)
        full_indptr = np.empty(n + 1, dtype=np.int64)
        full_indices = np.empty(2 * upper_indices.size, dtype=np.int32)
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
        indptr = _as_i64(indptr)
        indices = _as_i32(indices)
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
        q_indptr = _as_i64(q_indptr)
        q_items = np.array(q_items, dtype=np.int32)
        q_sizes = _as_i64(q_sizes)
        pre_indptr = _as_i64(pre_indptr)
        pre_reps = _as_i32(pre_reps)
        rep_indptr = _as_i64(rep_indptr)
        rep_items = _as_i32(rep_items)
        rep_cluster = _as_i32(rep_cluster)
        normalisers = _as_f64(normalisers)
        b = int(q_indptr.size) - 1
        n_reps = int(rep_indptr.size) - 1
        n_clusters = max(int(normalisers.size), 1)
        mark = np.zeros(max(int(pre_indptr.size) - 1, 1), dtype=np.uint8)
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
        slot_offsets = _as_i64(slot_offsets)
        pair_offsets = _as_i64(pair_offsets)
        sizes = _as_i64(sizes)
        global_ids = _as_i64(global_ids)
        pair_lo = _as_i64(pair_lo)
        pair_hi = _as_i64(pair_hi)
        pair_count = _as_f64(pair_count)
        ptable = _as_f64(ptable)
        n_comp = int(slot_offsets.size) - 1
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
    lib = ctypes.CDLL(str(so_path))
    _bind(lib)
    return _CextKernels(lib, so_path, cc)
