"""The versioned, servable ``RockModel`` artifact.

The paper's deployment story (Section 4.6) is fit-once / serve-many:
cluster a sample, then stream any amount of data through cheap
per-point assignment against the labeling sets ``L_i``.  The labeling
sets -- plus theta, ``f(theta)`` and the similarity configuration --
are therefore the *servable* artifact, and that is exactly what
:class:`RockModel` persists.

Persistence follows the no-pickle conventions of
:mod:`repro.core.serialization`: plain JSON, explicit format name and
version, hard rejection of mismatched versions.  Three representative
encodings cover the library's point types:

* ``"sets"`` -- transactions / raw item sets (items must be JSON
  scalars);
* ``"records"`` -- :class:`~repro.data.records.CategoricalRecord`
  representatives, stored as a shared schema plus per-record value
  rows (``null`` marks a missing value) so the missing-aware
  similarity still sees real records after a round-trip;
* ``"raw"`` -- anything already JSON-shaped (e.g. numeric vectors for
  :class:`~repro.core.similarity.LpSimilarity`).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, TextIO

from repro.core.goodness import default_f
from repro.core.labeling import ClusterLabeler, draw_labeling_sets
from repro.core.similarity import (
    SimilarityFunction,
    similarity_from_dict,
    similarity_to_dict,
)
from repro.data.records import MISSING, CategoricalRecord, CategoricalSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import PipelineResult, RockPipeline

MODEL_FORMAT = "rock-model"
MODEL_VERSION = 1
CHECKSUM_KEY = "checksum"

_SCALAR_TYPES = (str, int, float, bool)


# the keys RockModel.to_dict writes: a payload without a checksum that
# carries any other key is a damaged artifact, not an old one
PAYLOAD_KEYS = frozenset({
    "format", "version", "theta", "f_theta", "similarity", "points",
    "labeling_sets", "cluster_sizes", "metadata", "schema",
})

_CHECKSUM_FORMAT = re.compile(r"(sha256:)?[0-9a-f]{64}")


class ArtifactIntegrityError(ValueError):
    """A model artifact is truncated, unparseable or fails its checksum.

    A damaged artifact never loads: not as the model it was, and not as
    a different one.
    """


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest(members: dict[str, str]) -> str:
    """The sha256 hex digest of a JSON object assembled from its
    members' canonical ``"key":value`` renderings, keys sorted."""
    body = ",".join(members[key] for key in sorted(members))
    return hashlib.sha256(("{" + body + "}").encode("utf-8")).hexdigest()


def artifact_digests(payload: dict[str, Any]) -> tuple[str, str]:
    """``(checksum, version)`` of a model payload, each top-level member
    rendered once for both.

    The checksum is the sha256 hex digest of the payload's canonical
    JSON (sorted keys, no whitespace) over every key except
    :data:`CHECKSUM_KEY` -- so the on-disk indentation never matters
    and save/verify agree by construction.  The version is the served
    name of the model: 16 hex chars of the same digest with the
    wall-clock ``metadata["fit_timings"]`` left out, so two fits that
    produce the same labeling sets publish one version, and a watcher
    does not reload unchanged content.
    """
    members = {
        key: f"{_canonical(key)}:{_canonical(value)}"
        for key, value in payload.items()
        if key != CHECKSUM_KEY
    }
    checksum = _digest(members)
    metadata = payload.get("metadata")
    if not (isinstance(metadata, dict) and "fit_timings" in metadata):
        return checksum, checksum[:16]
    untimed = {k: v for k, v in metadata.items() if k != "fit_timings"}
    members["metadata"] = f"{_canonical('metadata')}:{_canonical(untimed)}"
    return checksum, _digest(members)[:16]


def artifact_checksum(payload: dict[str, Any]) -> str:
    """The integrity checksum of :func:`artifact_digests`."""
    return artifact_digests(payload)[0]


def model_version(payload: dict[str, Any]) -> str:
    """The served version of :func:`artifact_digests`."""
    return artifact_digests(payload)[1]


def verify_artifact_checksum(payload: Any) -> tuple[str, str]:
    """Check a loaded payload against its recorded checksum.

    Returns the payload's *actual* ``(checksum, version)``
    (:func:`artifact_digests`).  Artifacts written
    before checksums existed (no :data:`CHECKSUM_KEY`, and only
    :data:`PAYLOAD_KEYS`) pass untouched.  A payload that is not a JSON
    object, a malformed recorded checksum, a checksum-less payload with
    a key no model writes, and a mismatch all raise
    :class:`ArtifactIntegrityError` instead of letting a bit-flipped
    model silently mis-assign.
    """
    if not isinstance(payload, dict):
        raise ArtifactIntegrityError(
            f"model artifact is a JSON {type(payload).__name__}, not an object"
        )
    digests = artifact_digests(payload)
    actual = digests[0]
    stored = payload.get(CHECKSUM_KEY)
    if stored is None:
        unknown = sorted(payload.keys() - PAYLOAD_KEYS)
        if unknown:
            raise ArtifactIntegrityError(
                f"model artifact has no checksum and unknown keys {unknown}: "
                "it is damaged; refusing to serve it"
            )
        return digests
    if not isinstance(stored, str) or not _CHECKSUM_FORMAT.fullmatch(stored):
        raise ArtifactIntegrityError(
            f"model artifact checksum {stored!r} is malformed: the artifact "
            "is damaged; refusing to serve it"
        )
    expected = stored.removeprefix("sha256:")
    if expected != actual:
        raise ArtifactIntegrityError(
            f"model artifact checksum mismatch: recorded sha256:{expected} "
            f"but content hashes to sha256:{actual} -- the artifact is "
            "corrupt or truncated; refusing to serve it"
        )
    return digests


def read_artifact(
    source: str | Path | TextIO,
) -> tuple[dict[str, Any], str, str]:
    """Parse and checksum-verify a saved artifact: ``(payload, checksum,
    version)``.

    Bytes that are not UTF-8 JSON (a truncated or bit-flipped file)
    raise :class:`ArtifactIntegrityError`, as does every failure of
    :func:`verify_artifact_checksum`.
    """
    try:
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            data = json.load(source)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactIntegrityError(
            f"model artifact is not valid JSON ({exc}) -- it is corrupt "
            "or truncated; refusing to serve it"
        ) from None
    return (data, *verify_artifact_checksum(data))


@dataclass
class RockModel:
    """Everything needed to assign new points to a finished clustering.

    Attributes
    ----------
    labeling_sets:
        Per-cluster representative sets ``L_i``, in final cluster order
        (cluster ``i`` of the model is label ``i`` of the run that
        produced it).
    theta:
        The neighbor threshold the clustering used.
    f_theta:
        The evaluated ``f(theta)`` -- stored as a number, not a
        function, so the artifact is self-contained.
    similarity:
        The similarity function (``None`` = default Jaccard).
    cluster_sizes:
        Final cluster sizes from the producing run (metadata only).
    metadata:
        Free-form provenance: pipeline parameters, outlier stats,
        dataset size.  Never consulted during assignment.
    """

    labeling_sets: list[list[Any]]
    theta: float
    f_theta: float
    similarity: SimilarityFunction | None = None
    cluster_sizes: list[int] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.labeling_sets:
            raise ValueError("model needs at least one labeling set")
        if all(len(li) == 0 for li in self.labeling_sets):
            raise ValueError("at least one labeling set must be non-empty")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if self.f_theta < 0.0:
            raise ValueError(f"f_theta must be non-negative, got {self.f_theta}")
        self.labeling_sets = [list(li) for li in self.labeling_sets]

    @property
    def n_clusters(self) -> int:
        return len(self.labeling_sets)

    def labeler(self) -> ClusterLabeler:
        """A :class:`ClusterLabeler` reproducing this model's assignments."""
        return ClusterLabeler(
            self.labeling_sets,
            theta=self.theta,
            similarity=self.similarity,
            f=lambda _theta: self.f_theta,
        )

    # -- JSON round-trip ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict; raises for non-serialisable configurations."""
        similarity = similarity_to_dict(self.similarity)
        if similarity is not None and similarity.get("custom"):
            raise ValueError(
                f"cannot serialise a model with custom similarity "
                f"{type(self.similarity).__name__}; only the built-in "
                "similarity classes round-trip through JSON"
            )
        kind, sets, extra = _encode_labeling_sets(self.labeling_sets)
        payload: dict[str, Any] = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "theta": self.theta,
            "f_theta": self.f_theta,
            "similarity": similarity,
            "points": kind,
            "labeling_sets": sets,
            "cluster_sizes": (
                None
                if self.cluster_sizes is None
                else [int(s) for s in self.cluster_sizes]
            ),
            "metadata": dict(self.metadata),
        }
        payload.update(extra)
        return payload

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RockModel":
        if data.get("format") != MODEL_FORMAT:
            raise ValueError(
                f"expected format {MODEL_FORMAT!r}, got {data.get('format')!r}"
            )
        version = data.get("version")
        if version != MODEL_VERSION:
            raise ValueError(
                f"unsupported {MODEL_FORMAT} version {version!r} "
                f"(this library reads version {MODEL_VERSION})"
            )
        labeling_sets = _decode_labeling_sets(
            data.get("points", "sets"), data["labeling_sets"], data
        )
        sizes = data.get("cluster_sizes")
        return cls(
            labeling_sets=labeling_sets,
            theta=float(data["theta"]),
            f_theta=float(data["f_theta"]),
            similarity=similarity_from_dict(data.get("similarity")),
            cluster_sizes=None if sizes is None else [int(s) for s in sizes],
            metadata=dict(data.get("metadata", {})),
        )

    def save(self, target: str | Path | TextIO) -> None:
        """Write the model as JSON (with a sha256 content checksum).

        The checksum covers the canonical payload, so :meth:`load` can
        fail fast on corrupt or truncated artifacts; files written by
        older versions (without a checksum) still load.
        """
        payload = self.to_dict()
        payload[CHECKSUM_KEY] = "sha256:" + artifact_checksum(payload)
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
        else:
            json.dump(payload, target, indent=2)

    @classmethod
    def load(cls, source: str | Path | TextIO) -> "RockModel":
        """Read a model saved by :meth:`save`, verifying its checksum
        (:func:`read_artifact`: a damaged file raises
        :class:`ArtifactIntegrityError`)."""
        return cls.from_dict(read_artifact(source)[0])


def model_from_result(
    pipeline: "RockPipeline",
    result: "PipelineResult",
    points: Any | None = None,
) -> RockModel:
    """Build a :class:`RockModel` from a finished pipeline run.

    Prefers the labeling sets the run actually used (stored on the
    result, in final cluster order) so that model assignments agree
    with the run's own labels.  When the run never labeled, fresh sets
    are drawn from the final clusters over ``points``.
    """
    labeling_sets = result.labeling_sets
    if labeling_sets is None:
        if points is None:
            raise ValueError(
                "this run drew no labeling sets (it clustered every point); "
                "pass the original points so representatives can be drawn"
            )
        # only sample members are read: a Sequence (a TransactionDataset
        # decodes a row on access) is indexed as it is
        if not isinstance(points, Sequence):
            points = list(points)
        labeling_sets = draw_labeling_sets(
            result.clusters,
            points,
            fraction=pipeline.labeling_fraction,
            rng=random.Random(pipeline.seed),
        )
    n_points = int(len(result.labels))
    metadata = {
        "k": pipeline.k,
        "theta": pipeline.theta,
        "seed": pipeline.seed,
        "labeling_fraction": pipeline.labeling_fraction,
        "sample_size": len(result.sample_indices),
        "n_points": n_points,
        "n_sample_outliers": len(result.outlier_indices),
        "n_unassigned": int((result.labels == -1).sum()),
        "uses_default_f": pipeline.f is default_f,
        "threads": int(getattr(result, "threads", 1)),
        # the backends that actually ran (fallbacks resolved), e.g.
        # {"fit": "native:cext", "merge": "fast"}
        "backends": dict(getattr(result, "backends", {}) or {}),
        # per-phase wall-clock of the producing run; previously this
        # died with the PipelineResult and tools downstream could only
        # show a summed total
        "fit_timings": {
            phase: float(seconds)
            for phase, seconds in result.timings.items()
        },
    }
    return RockModel(
        labeling_sets=labeling_sets,
        theta=pipeline.theta,
        f_theta=pipeline.f(pipeline.theta),
        similarity=pipeline.similarity,
        cluster_sizes=result.cluster_sizes(),
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# representative encoding/decoding
# ---------------------------------------------------------------------------

def _encode_labeling_sets(
    labeling_sets: list[list[Any]],
) -> tuple[str, list[list[Any]], dict[str, Any]]:
    reps = [rep for li in labeling_sets for rep in li]
    if reps and all(isinstance(r, CategoricalRecord) for r in reps):
        schema = reps[0].schema
        if any(r.schema != schema for r in reps):
            raise ValueError("record representatives must share one schema")
        encoded = [
            [[None if v is MISSING else v for v in rep.values] for rep in li]
            for li in labeling_sets
        ]
        return "records", encoded, {"schema": list(schema.attributes)}
    try:
        from repro.core.encoding import as_item_set

        encoded = []
        for li in labeling_sets:
            rows = []
            for rep in li:
                items = sorted(as_item_set(rep), key=repr)
                for item in items:
                    if not isinstance(item, _SCALAR_TYPES):
                        raise TypeError(
                            f"item {item!r} is not a JSON scalar"
                        )
                rows.append(items)
            encoded.append(rows)
        return "sets", encoded, {}
    except TypeError:
        pass
    try:
        json.dumps(labeling_sets)
    except TypeError as exc:
        raise ValueError(
            "labeling-set representatives are neither item sets, "
            "categorical records, nor JSON-serialisable values"
        ) from exc
    return "raw", [list(li) for li in labeling_sets], {}


def _decode_labeling_sets(
    kind: str, sets: list[list[Any]], data: dict[str, Any]
) -> list[list[Any]]:
    if kind == "sets":
        return [[frozenset(items) for items in li] for li in sets]
    if kind == "records":
        schema = CategoricalSchema(data["schema"])
        return [
            [
                CategoricalRecord(
                    schema, [MISSING if v is None else v for v in values]
                )
                for values in li
            ]
            for li in sets
        ]
    if kind == "raw":
        return [list(li) for li in sets]
    raise ValueError(f"unknown representative encoding {kind!r}")
