"""JSON persistence for clustering results.

A downstream user who spent minutes clustering a large sample wants to
keep the outcome: the final clusters, the merge history (so the
dendrogram can be rebuilt and re-cut without re-running), and the
pipeline artefacts (sample indices, outliers, timings).  This module
round-trips :class:`~repro.core.rock.RockResult` and
:class:`~repro.core.pipeline.PipelineResult` through plain JSON --
no pickle, so files are portable and diff-able.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from repro.core.pipeline import PipelineResult
from repro.core.rock import MergeStep, RockResult
from repro.core.similarity import similarity_from_dict, similarity_to_dict

FORMAT_VERSION = 2
"""Current file format.

Version history:

* 1 -- initial format; the similarity function was not recorded.
* 2 -- ``pipeline-result`` carries a ``similarity`` entry
  (name/params, ``None`` for the default Jaccard).  Version-1 files
  still load; their similarity comes back as ``None``.
"""


def rock_result_to_dict(result: RockResult) -> dict[str, Any]:
    """A JSON-ready dict for a :class:`RockResult`."""
    return {
        "format": "rock-result",
        "version": FORMAT_VERSION,
        "n_points": result.n_points,
        "stopped_early": result.stopped_early,
        "clusters": [list(map(int, c)) for c in result.clusters],
        "merges": [
            {"left": u, "right": v, "merged": w, "goodness": g, "size": size}
            for u, v, w, g, size in _merge_rows(result)
        ],
    }


def _merge_rows(
    result: RockResult,
) -> Iterator[tuple[int, int, int, float, int]]:
    """``(left, right, merged, goodness, size)`` per merge, read off the
    merge columns when the result holds them (no ``MergeStep`` built)."""
    arrays = result.merge_arrays
    if arrays is None:
        return (
            (m.left, m.right, m.merged, m.goodness, m.size)
            for m in result.merges
        )
    first = arrays.first_merged
    return zip(
        arrays.left.tolist(),
        arrays.right.tolist(),
        range(first, first + len(arrays.left)),
        arrays.goodness.tolist(),
        arrays.sizes.tolist(),
    )


def rock_result_from_dict(data: dict[str, Any]) -> RockResult:
    _check_header(data, "rock-result")
    return RockResult(
        clusters=[list(map(int, c)) for c in data["clusters"]],
        merges=[
            MergeStep(
                left=int(m["left"]),
                right=int(m["right"]),
                merged=int(m["merged"]),
                goodness=float(m["goodness"]),
                size=int(m["size"]),
            )
            for m in data["merges"]
        ],
        stopped_early=bool(data["stopped_early"]),
        n_points=int(data["n_points"]),
    )


def pipeline_result_to_dict(result: PipelineResult) -> dict[str, Any]:
    """A JSON-ready dict for a :class:`PipelineResult`."""
    return {
        "format": "pipeline-result",
        "version": FORMAT_VERSION,
        "labels": [int(l) for l in result.labels],
        "clusters": [list(map(int, c)) for c in result.clusters],
        "sample_indices": list(map(int, result.sample_indices)),
        "outlier_indices": list(map(int, result.outlier_indices)),
        "timings": dict(result.timings),
        "similarity": similarity_to_dict(result.similarity),
        "rock_result": rock_result_to_dict(result.rock_result),
    }


def pipeline_result_from_dict(data: dict[str, Any]) -> PipelineResult:
    _check_header(data, "pipeline-result")
    return PipelineResult(
        labels=np.array(data["labels"], dtype=np.int64),
        clusters=[list(map(int, c)) for c in data["clusters"]],
        sample_indices=list(map(int, data["sample_indices"])),
        outlier_indices=list(map(int, data["outlier_indices"])),
        rock_result=rock_result_from_dict(data["rock_result"]),
        timings={k: float(v) for k, v in data["timings"].items()},
        similarity=similarity_from_dict(data.get("similarity")),
    )


def save_result(
    result: RockResult | PipelineResult, target: str | Path | TextIO
) -> None:
    """Write a result as JSON to a path or open text stream."""
    if isinstance(result, PipelineResult):
        payload = pipeline_result_to_dict(result)
    elif isinstance(result, RockResult):
        payload = rock_result_to_dict(result)
    else:
        raise TypeError(f"cannot serialise {type(result).__name__}")
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    else:
        json.dump(payload, target, indent=2)


def load_result(source: str | Path | TextIO) -> RockResult | PipelineResult:
    """Read a result saved by :func:`save_result`."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        data = json.load(source)
    kind = data.get("format")
    if kind == "rock-result":
        return rock_result_from_dict(data)
    if kind == "pipeline-result":
        return pipeline_result_from_dict(data)
    raise ValueError(f"not a saved clustering result (format={kind!r})")


def _check_header(data: dict[str, Any], expected: str) -> None:
    if data.get("format") != expected:
        raise ValueError(
            f"expected format {expected!r}, got {data.get('format')!r}"
        )
    version = data.get("version")
    if not isinstance(version, int) or not 1 <= version <= FORMAT_VERSION:
        raise ValueError(
            f"unsupported {expected} version {version!r} "
            f"(this library reads versions 1..{FORMAT_VERSION})"
        )
