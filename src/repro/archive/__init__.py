"""Profile archive & regression sentinel.

The paper's Section VI compares profiles of different runs by hand;
this subpackage makes that workflow persistent and machine-checkable:

* :mod:`~repro.archive.store` -- the content-addressed run store:
  gzip'd canonical profile JSON keyed by sha256 (identical runs
  deduplicate to one object), plus an append-only JSONL index of run
  metadata, appended under the crash-safe log contract of
  :mod:`repro.ioutil` while holding an advisory lock.
* :mod:`~repro.archive.meta` -- :class:`RunMeta` records (kernel,
  size/variant, threads, seed, substrates, configuration fingerprint,
  virtual wall time) and the :func:`config_fingerprint` grouping hash.
* :mod:`~repro.archive.query` -- :func:`find_runs` filtering and
  :func:`latest_baseline` selection.
* :mod:`~repro.archive.baseline` -- :class:`Baseline`: N archived runs
  aggregated into per-region per-metric mean/std/min/max.
* :mod:`~repro.archive.sentinel` -- the noise-aware regression
  sentinel: ratio + z-score thresholds per metric, region verdicts
  (ok/regressed/improved/appeared/vanished), CI exit-code semantics.
* :mod:`~repro.archive.fsck` -- integrity audit & repair: verifies
  every object's sha256, quarantines corrupt blobs, deletes orphans,
  drops dangling/torn index records, rebuilds the index while
  preserving run-id monotonicity.

Surfaced on the CLI as ``repro run --archive``, ``repro archive
{list,show,gc,tag,baseline,fsck}`` and ``repro sentinel``; supervised
fault grids auto-archive each cell's profile next to their journal.
"""

from repro.archive.baseline import BASELINE_METRICS, Baseline, MetricStats
from repro.archive.fsck import FSCK_ISSUE_KINDS, FsckIssue, FsckReport, fsck
from repro.archive.meta import (
    RunMeta,
    config_fingerprint,
    meta_for_outcome,
    meta_for_result,
)
from repro.archive.query import baselines_available, find_runs, latest_baseline
from repro.archive.sentinel import (
    DEFAULT_POLICIES,
    MetricPolicy,
    RegionVerdict,
    SentinelPolicy,
    SentinelReport,
    compare_to_baseline,
)
from repro.archive.store import (
    ArchiveRecord,
    ArchiveStore,
    GcStats,
    canonical_profile_bytes,
    content_hash,
)
from repro.errors import ArchiveLockTimeout

__all__ = [
    "ArchiveLockTimeout",
    "ArchiveRecord",
    "ArchiveStore",
    "BASELINE_METRICS",
    "Baseline",
    "DEFAULT_POLICIES",
    "FSCK_ISSUE_KINDS",
    "FsckIssue",
    "FsckReport",
    "fsck",
    "GcStats",
    "MetricPolicy",
    "MetricStats",
    "RegionVerdict",
    "RunMeta",
    "SentinelPolicy",
    "SentinelReport",
    "baselines_available",
    "canonical_profile_bytes",
    "compare_to_baseline",
    "config_fingerprint",
    "content_hash",
    "find_runs",
    "latest_baseline",
    "meta_for_outcome",
    "meta_for_result",
]
