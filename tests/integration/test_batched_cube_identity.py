"""Recorded runs on the columnar event path.

* a *recorded* run replays and verifies MATCH;
* the recorder's on-disk region ids are the live registry handles --
  one shared intern table, no double interning.

Cube identity of live runs is pinned by the golden corpus
(``tests/test_golden_cubes.py``); event counting by
``tests/instrument/test_batched_layer.py`` and
``tests/substrates/test_batch_dispatch.py``.
"""

from repro.events.batch import EventBatch
from repro.events.regions import RegionRegistry, RegionType
from repro.faults.campaign import run_tolerant
from repro.recorder import verify_recording
from repro.recorder.chunks import ChunkWriter, recover_chunks


def test_recorded_batched_run_verifies_match(tmp_path):
    record_dir = tmp_path / "run"
    outcome = run_tolerant(
        "fib", size="test", n_threads=2, seed=0,
        record_dir=str(record_dir), checkpoint_every=32,
    )
    assert outcome.status == "complete"
    report = verify_recording(str(record_dir))
    assert report.usable and report.matched
    assert report.exit_code == 0


def test_recorded_chunks_use_live_registry_handles(tmp_path):
    """Chunk region ids are the registry handles -- one intern table."""
    reg = RegionRegistry()
    # Burn a few handles first so region handles are not accidentally
    # equal to a dense 0..n-1 renumbering a writer-private table
    # would produce.
    for i in range(5):
        reg.register(f"burn{i}", RegionType.FUNCTION)
    a = reg.register("alpha", RegionType.FUNCTION, file="a.py", line=1)
    b = reg.register("beta", RegionType.TASK)
    batch = EventBatch(reg)
    batch.add_enter(0, a, 1.0)
    batch.add_task_begin(1, b, 7, 2.0)
    batch.add_task_end(1, b, 7, 3.0)
    batch.add_exit(0, a, 4.0)
    path = str(tmp_path / "events.chunks")
    writer = ChunkWriter(path, reg)
    writer.add_record(("init", 2, 0.0, a, None))
    writer.seal(batch)
    writer.close(finish_time=5.0)
    stream = recover_chunks(path)
    replayed = stream.frames[0].batch

    # The columns come back byte for byte: same packed codes, same times.
    assert replayed.codes == batch.codes and replayed.times == batch.times
    da = replayed.registry.lookup(a.handle)
    db = replayed.registry.lookup(b.handle)
    assert (da.name, db.name) == ("alpha", "beta")
    # The replayed regions carry the *live* handles, pinned from disk.
    assert (da.handle, db.handle) == (a.handle, b.handle)
    assert [row[2] for row in replayed.rows()] == [da, db, db, da]
