"""Real wall-clock throughput of the content-addressed profile archive.

The archive sits on the hot path of `repro run --archive` and of every
supervised fault-grid cell, so its absolute cost matters: an archive
write must stay negligible next to the simulated run it records, and a
baseline load must stay negligible next to the candidate run the
sentinel compares.  No paper assertions here -- these are the
regression-tracking benchmarks of the archive subsystem itself.
"""

import itertools
import statistics
import time

from repro.analysis.experiment import run_app
from repro.archive import ArchiveStore, canonical_profile_bytes, meta_for_result


def _fib_result():
    return run_app("fib", size="test", variant="stress", n_threads=2, seed=0)


def test_archive_cold_write_throughput(benchmark, report, tmp_path):
    result = _fib_result()
    meta = meta_for_result(result, size="test", variant="stress")
    payload_bytes = len(canonical_profile_bytes(result.profile))
    counter = itertools.count()

    def write():
        store = ArchiveStore(tmp_path / f"a{next(counter)}")
        return store.put(result.profile, meta)

    record = benchmark(write)
    assert not record.deduplicated
    per_put = benchmark.stats.stats.mean
    report.section("Archive cold write (object + index)")
    report(f"profile payload: {payload_bytes:,} canonical JSON bytes")
    report(f"{1.0 / per_put:,.0f} archived runs per second")
    report(f"{payload_bytes / per_put / 1e6:,.1f} MB/s canonical payload")
    assert 1.0 / per_put > 20  # sanity floor: well under 50 ms per archive


def test_archive_deduplicated_put_throughput(benchmark, report, tmp_path):
    result = _fib_result()
    meta = meta_for_result(result, size="test", variant="stress")
    store = ArchiveStore(tmp_path / "arch")
    store.put(result.profile, meta)

    record = benchmark(lambda: store.put(result.profile, meta))
    assert record.deduplicated
    per_put = benchmark.stats.stats.mean
    report.section("Archive deduplicated put (content already stored)")
    report(f"{1.0 / per_put:,.0f} deduplicated puts per second")
    assert 1.0 / per_put > 20


def test_archive_read_throughput(benchmark, report, tmp_path):
    result = _fib_result()
    store = ArchiveStore(tmp_path / "arch")
    record = store.put(
        result.profile, meta_for_result(result, size="test", variant="stress")
    )
    payload_bytes = len(canonical_profile_bytes(result.profile))

    profile = benchmark(lambda: store.load_profile(record.run_id))
    assert canonical_profile_bytes(profile) == canonical_profile_bytes(
        result.profile
    )
    per_load = benchmark.stats.stats.mean
    report.section("Archive verified read (decompress + hash check + parse)")
    report(f"{1.0 / per_load:,.0f} profile loads per second")
    report(f"{payload_bytes / per_load / 1e6:,.1f} MB/s canonical payload")
    assert 1.0 / per_load > 50


def _interleaved_medians_ms(first, second, repeats):
    """Median latency of two calls timed alternately, so that host speed
    drift during the run hits both alike."""
    times = ([], [])
    for _ in range(repeats):
        for call, bucket in zip((first, second), times):
            start = time.perf_counter()
            call()
            bucket.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times[0]), statistics.median(times[1])


def test_put_and_load_flat_in_index_size(report, tmp_path):
    """Long-lived stores: put and load cost the same at 2,000 indexed runs
    as at ~0, because each store parses every index byte once and
    allocates run ids from its cached high-water mark."""
    result = _fib_result()
    meta = meta_for_result(result, size="test", variant="stress")
    small = ArchiveStore(tmp_path / "small")
    large = ArchiveStore(tmp_path / "large")
    small.put(result.profile, meta)
    while len(large.records()) < 2000:
        large.put(result.profile, meta)
    runs = len(large.records())
    repeats = 41

    put_small, put_large = _interleaved_medians_ms(
        lambda: small.put(result.profile, meta),
        lambda: large.put(result.profile, meta),
        repeats,
    )
    newest = large.records()[-1].run_id
    load_small, load_large = _interleaved_medians_ms(
        lambda: small.load_profile("r0001"),
        lambda: large.load_profile(newest),
        repeats,
    )

    report.section("Archive put/load latency vs index size (long-lived stores)")
    report(f"{'':<14}{'~0 runs':>10}{f'{runs:,} runs':>13}{'ratio':>8}")
    for name, at_small, at_large in (
        ("put (ms)", put_small, put_large),
        ("load (ms)", load_small, load_large),
    ):
        ratio = at_large / at_small
        report(f"{name:<14}{at_small:>10.3f}{at_large:>13.3f}{ratio:>8.2f}")
    report(f"medians of {repeats}, timed alternately; gate: each ratio <= 1.5")
    assert put_large <= 1.5 * put_small
    assert load_large <= 1.5 * load_small
