"""Seeded random recorded streams for the chunk property tests."""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.events.batch import EventBatch
from repro.events.regions import Region, RegionRegistry, RegionType
from repro.recorder.chunks import ChunkWriter

N_THREADS = 4


def make_regions(registry: RegionRegistry = None) -> List[Region]:
    if registry is None:
        registry = RegionRegistry()
    return [
        registry.register("main", RegionType.FUNCTION, "main.py", 1),
        registry.register("parallel", RegionType.PARALLEL, "main.py", 10),
        registry.register("task_body", RegionType.TASK, "work.py", 42),
        registry.register("taskwait", RegionType.TASKWAIT),
    ]


def random_records(seed: int, count: int) -> Tuple[RegionRegistry, List[tuple]]:
    """A seeded stream of every record kind the recorder seals.

    Not a *valid* profiler event sequence -- framing tests only care
    that arbitrary well-formed records survive the disk round trip.
    """
    rng = random.Random(seed)
    registry = RegionRegistry()
    regions = make_regions(registry)
    records: List[tuple] = [
        ("init", N_THREADS, 0.0, regions[0], rng.choice([None, 12]))
    ]
    time = 0.0
    for _ in range(count):
        time += rng.random() * 3.0
        kind = rng.choice(
            ["enter", "exit", "task_begin", "task_end", "task_switch",
             "metric", "phase_begin", "phase_end"]
        )
        region = rng.choice(regions)
        thread_id = rng.randrange(N_THREADS)
        if kind == "enter":
            parameter = ("depth", rng.randrange(8)) if rng.random() < 0.3 else None
            records.append(("enter", thread_id, time, region, parameter))
        elif kind == "exit":
            records.append(("exit", thread_id, time, region))
        elif kind == "task_begin":
            records.append(
                ("task_begin", thread_id, time, region,
                 rng.randrange(-5, 5000), None)
            )
        elif kind == "task_end":
            records.append(
                ("task_end", thread_id, time, region, rng.randrange(-5, 5000))
            )
        elif kind == "task_switch":
            records.append(("task_switch", thread_id, time, rng.randrange(-3, 100)))
        elif kind == "metric":
            records.append(
                ("metric", thread_id, time,
                 {"tasks_created": rng.randrange(10), "queue_len": rng.randrange(4)})
            )
        else:
            records.append((kind, f"phase{rng.randrange(3)}"))
    return registry, records


def add_row(batch: EventBatch, record: tuple) -> None:
    """Append one event-record tuple to ``batch`` as a row."""
    kind, thread_id, time = record[:3]
    if kind == "enter":
        batch.add_enter(thread_id, record[3], time, record[4])
    elif kind == "exit":
        batch.add_exit(thread_id, record[3], time)
    elif kind == "task_begin":
        batch.add_task_begin(thread_id, record[3], record[4], time, record[5])
    elif kind == "task_end":
        batch.add_task_end(thread_id, record[3], record[4], time)
    elif kind == "task_switch":
        batch.add_task_switch(thread_id, record[3], time)
    else:
        batch.add_metric(thread_id, record[3], time)


def write_records(
    path: str, registry: RegionRegistry, records: List[tuple], *, rows: int = 8
) -> Tuple[ChunkWriter, EventBatch]:
    """Seal ``records`` the way the recorder does: event rows in batches
    of ``rows``, init/phase records into the next chunk's header.
    Returns the still-open writer and the last, unsealed short batch."""
    writer = ChunkWriter(path, registry)
    batch = EventBatch(registry)
    for record in records:
        if record[0] in ("init", "phase_begin", "phase_end"):
            if batch.codes:
                writer.seal(batch)
                batch.clear()
            writer.add_record(record)
            continue
        add_row(batch, record)
        if len(batch) == rows:
            writer.seal(batch)
            batch.clear()
    return writer, batch


def write_stream(path: str, seed: int, count: int, *, finish_time=999.0) -> List[tuple]:
    """Write a complete seeded stream; return the records it holds."""
    registry, records = random_records(seed, count)
    writer, batch = write_records(path, registry, records)
    writer.close(batch, finish_time=finish_time)
    return records + [("fin", finish_time, len(records))]


def comparable(record: tuple) -> tuple:
    """Region objects -> identity keys, so streams from different
    registries (writer side vs decoder side) compare by value."""
    out = []
    for item in record:
        if isinstance(item, Region):
            out.append((item.name, item.region_type, item.file, item.line))
        else:
            out.append(item)
    return tuple(out)
