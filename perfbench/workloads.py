"""The three benchmark workloads, each driven through the public API.

Every workload is a closed loop with one caller on one host thread:
the next operation starts when the previous one has returned.  Inputs
come from the workload seed only.  An operation returns an :class:`Op`
with its host time and the work it completed; output checks run after
the timed part and turn a wrong result into ``Op.error``.

Run ``python3 perfbench/workloads.py --write-digests`` to regenerate the
checked-in cube digests of ``tasks_fine`` for the default seed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

# Traced functions are called through their package (``archive.x``), so
# the tracer's wrappers, installed in ``repro`` modules, see the calls.
from repro import archive, recorder  # noqa: E402
from repro.analysis import run_app  # noqa: E402
from repro.archive import ArchiveStore, latest_baseline  # noqa: E402
from repro.archive.store import content_hash  # noqa: E402
from repro.faults.campaign import run_tolerant  # noqa: E402
from repro.service import CampaignSpec, Gateway, GatewayAPI, verify_gateway  # noqa: E402
from repro.supervisor.spec import fault_cell  # noqa: E402
from repro.supervisor.worker import execute_spec  # noqa: E402

import reference  # noqa: E402

DEFAULT_SEED = 0
DIGESTS_PATH = os.path.join(HERE, "digests.json")


@dataclass
class Op:
    """One operation: host seconds, work completed and its check result."""

    elapsed_s: float
    tasks: int = 0
    cells: int = 0
    error: Optional[str] = None
    #: host seconds per leg, for workloads whose operation has legs
    legs: Dict[str, float] = field(default_factory=dict)
    #: work counted per leg (records sealed, records replayed)
    counts: Dict[str, int] = field(default_factory=dict)
    #: mean host seconds of the reference workload run around this operation
    ref_s: float = 0.0

    @property
    def scale(self) -> float:
        """Host seconds -> seconds at reference speed (see reference.py)."""
        return reference.NOMINAL_S / self.ref_s


def _seeds(label: str, seed: int, n: int) -> List[int]:
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(1 << 16) for _ in range(n)]


class TasksFine:
    """Instrumented BOTS kernels without cut-off (Fig. 14 configuration).

    One operation is one ``run_app`` of one kernel of :attr:`MIX`.  A
    cycle runs every kernel once; cycles alternate between two runtime
    seeds per kernel, so every (kernel, seed) input repeats and its cube
    digest and virtual kernel time are checked for run-to-run identity.
    """

    name = "tasks_fine"
    MIX: Tuple[Tuple[str, str], ...] = (
        ("fib", "small"),
        ("nqueens", "small"),
        ("sort", "medium"),
        ("health", "medium"),
        ("strassen", "medium"),
        ("fft", "medium"),
    )
    VARIANT = "stress"
    THREADS = 4
    SEEDS_PER_KERNEL = 2
    cycle = len(MIX)

    def __init__(self, seed: int, workdir: str, digests=None):
        #: set by the traced run while its traced half is under way
        self.tracer = None
        seeds = _seeds(self.name, seed, len(self.MIX) * self.SEEDS_PER_KERNEL)
        self.inputs = [
            (kernel, size, seeds[k * self.SEEDS_PER_KERNEL:(k + 1) * self.SEEDS_PER_KERNEL])
            for k, (kernel, size) in enumerate(self.MIX)
        ]
        if digests is None and seed == DEFAULT_SEED:
            digests = load_digests()
        self.expected: Dict[str, dict] = dict(digests or {})
        self.seen: Dict[str, dict] = {}

    def prepare(self) -> None:
        pass

    def key(self, i: int) -> Tuple[str, str, int, str]:
        kernel, size, seeds = self.inputs[i % self.cycle]
        run_seed = seeds[(i // self.cycle) % self.SEEDS_PER_KERNEL]
        return kernel, size, run_seed, f"{kernel}/{size}/{self.VARIANT}/{self.THREADS}/{run_seed}"

    def run(self, i: int, instrument: bool = True):
        kernel, size, run_seed, _ = self.key(i)
        return run_app(kernel, size=size, variant=self.VARIANT,
                       n_threads=self.THREADS, instrument=instrument, seed=run_seed)

    def op(self, i: int) -> Op:
        start = time.perf_counter()
        result = self.run(i)
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            # Same input uninstrumented, outside the timed part: the
            # baseline that runtime.uninstr_parallel_ms reports.  Its
            # counts are kept apart from the operation's.
            self.tracer.count_prefix = "uninstr."
            try:
                self.run(i, instrument=False)
            finally:
                self.tracer.count_prefix = ""
            self.tracer.op = None  # the check below is not the operation's work
        digest = {"sha256": content_hash(result.profile), "kernel_time": result.kernel_time}
        return Op(
            elapsed_s=elapsed,
            tasks=result.parallel.completed_tasks,
            cells=1,
            error=self.check(i, result.verified, digest),
        )

    def check(self, i: int, verified: bool, digest: dict) -> Optional[str]:
        key = self.key(i)[3]
        if not verified:
            return f"{key}: verify() failed"
        first = self.seen.setdefault(key, digest)
        if first != digest:
            return f"{key}: output differs from an earlier repeat: {digest} != {first}"
        expected = self.expected.get(key)
        if expected is not None and expected != digest:
            return f"{key}: output differs from the checked-in digest: {digest} != {expected}"
        return None


class CampaignWorkload:
    """Gateway campaigns against a home whose archive indexes ~1,000 runs.

    One operation copies the pre-filled home (untimed), then submits one
    fault-mode-``none`` campaign of :attr:`APPS` x two seeds, serves it to
    idle with two worker processes, and reads it back: ``fetch``, every
    archived profile, and the sentinel on the newest run.
    """

    name = "campaign"
    APPS = ("fib", "sort", "nqueens", "health")
    SEEDS_PER_CAMPAIGN = 2
    SIZE = "test"
    THREADS = 2
    JOBS = 2
    PREFILL_RUNS = 1000
    PREFILL_SEEDS = 4
    BASELINE_RUNS = 5
    cycle = 1

    def __init__(self, seed: int, workdir: str, base_home: Optional[str] = None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.base_home = base_home or os.path.join(workdir, "base-home")

    def campaign_seeds(self, i: int) -> List[int]:
        return _seeds(f"{self.name}:{i}", self.seed, self.SEEDS_PER_CAMPAIGN)

    def prepare(self) -> None:
        """Build the pre-filled home: real cells archived, then re-put."""
        archive_dir = os.path.join(self.base_home, "archive")
        Gateway(self.base_home)
        store = ArchiveStore(archive_dir)
        for app in self.APPS:
            for run_seed in _seeds(f"{self.name}:prefill", self.seed, self.PREFILL_SEEDS):
                cell = fault_cell(app, "none", run_seed, size=self.SIZE,
                                  n_threads=self.THREADS, archive_dir=archive_dir)
                payload = execute_spec(cell, None)
                if payload.get("outcome") != "ok":
                    raise RuntimeError(f"pre-fill cell {cell.cell_id} failed: {payload}")
        records = store.records()
        profiles = [store.load_object(record.sha256) for record in records]
        for n in range(len(records), self.PREFILL_RUNS):
            k = n % len(records)
            store.put(profiles[k], records[k].meta)

    def op(self, i: int) -> Op:
        home = os.path.join(self.workdir, f"op{i}")
        shutil.copytree(self.base_home, home)
        start = time.perf_counter()
        gateway = Gateway(home, jobs=self.JOBS)
        spec = CampaignSpec(apps=self.APPS, seeds=tuple(self.campaign_seeds(i)),
                            size=self.SIZE, n_threads=self.THREADS)
        campaign, _created = gateway.submit(spec)
        gateway.serve(run_until_idle=True, poll_s=0.01)
        runs = GatewayAPI(gateway).fetch(campaign.campaign_id)["runs"]
        store = ArchiveStore(gateway.archive_dir)
        profiles = [store.load_profile(run["run_id"]) for run in runs]
        newest = runs[-1]["meta"] if runs else {}
        sentinel = None
        if profiles:
            baseline = latest_baseline(store, kernel=newest["kernel"], size=self.SIZE,
                                       n_threads=self.THREADS, runs=self.BASELINE_RUNS)
            sentinel = archive.compare_to_baseline(profiles[-1], baseline)
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.op = None  # the checks below are not the operation's work

        settled = gateway.campaign(campaign.campaign_id)
        error = self.check(home, spec, settled, runs, sentinel)
        if self.tracer is not None:
            self._note_ledger(home)
        shutil.rmtree(home)
        return Op(
            elapsed_s=elapsed,
            tasks=sum(profile.total_task_instances() for profile in profiles),
            cells=len(runs),
            error=error,
        )

    def check(self, home, spec, settled, runs, sentinel) -> Optional[str]:
        cells = settled.cells or {}
        if settled.state != "archived":
            return f"{settled.campaign_id}: state {settled.state!r}, not archived"
        if cells.get("ok") != spec.n_cells or cells.get("total") != spec.n_cells:
            return f"{settled.campaign_id}: cells {cells}, expected {spec.n_cells} ok"
        if len(runs) != spec.n_cells:
            return f"{settled.campaign_id}: fetch returned {len(runs)} runs, expected {spec.n_cells}"
        if sentinel is None or not sentinel.verdicts:
            return f"{settled.campaign_id}: sentinel produced no verdicts"
        audit = verify_gateway(home, require_settled=True)
        if not audit.ok:
            return f"{settled.campaign_id}: verify_gateway: {audit.problems[:3]}"
        return None

    def _note_ledger(self, home: str) -> None:
        """Queue wait (submit -> running) and record count, from the ledger."""
        submitted = running = None
        records = 0
        with open(os.path.join(home, "ledger.jsonl"), encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                records += 1
                if entry.get("type") == "submit":
                    submitted = entry["at"]
                elif entry.get("type") == "transition" and entry.get("to") == "running":
                    running = entry["at"]
        self.tracer.note("service.ledger_records", records)
        if submitted is not None and running is not None:
            self.tracer.note("service.queue_wait_ms", (running - submitted) * 1e3)


class RecordReplay:
    """Durable recording of a run, then replay and verification of it.

    One operation records one kernel of :attr:`MIX` with ``run_tolerant``
    (the record leg), then ``replay_recording`` + ``verify_recording``
    (the replay leg, which runs no simulation).
    """

    name = "record_replay"
    MIX = (("fib", "small"), ("nqueens", "small"), ("sort", "medium"))
    VARIANT = "stress"
    THREADS = 2
    cycle = len(MIX)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None

    def prepare(self) -> None:
        pass

    def op(self, i: int) -> Op:
        kernel, size = self.MIX[i % self.cycle]
        run_seed = _seeds(f"{self.name}:{i}", self.seed, 1)[0]
        record_dir = os.path.join(self.workdir, f"rec{i}")
        start = time.perf_counter()
        outcome = run_tolerant(kernel, size=size, variant=self.VARIANT,
                               n_threads=self.THREADS, seed=run_seed, record_dir=record_dir)
        recorded = time.perf_counter()
        _profile, stream = recorder.replay_recording(record_dir)
        report = recorder.verify_recording(record_dir)
        replayed = time.perf_counter()

        records = len(stream.records)
        error = None
        if outcome.status != "complete" or not outcome.verified:
            error = f"{kernel}/{size} seed {run_seed}: run {outcome.status}, verified={outcome.verified}"
        elif not report.matched:
            error = f"{kernel}/{size} seed {run_seed}: verify_recording: {report.reasons[:3]}"
        if self.tracer is not None and records:
            self.tracer.note("recorder.records", records)
            self.tracer.note("recorder.bytes_per_record",
                             os.path.getsize(recorder.events_path(record_dir)) / records)
        shutil.rmtree(record_dir)
        return Op(
            elapsed_s=replayed - start,
            tasks=outcome.profile.total_task_instances() if outcome.profile else 0,
            cells=1,
            error=error,
            legs={"record": recorded - start, "replay": replayed - recorded},
            counts={"recorded": records, "replayed": records},
        )


WORKLOADS = {cls.name: cls for cls in (TasksFine, CampaignWorkload, RecordReplay)}


def make(name: str, seed: int, workdir: str, **kwargs):
    return WORKLOADS[name](seed, workdir, **kwargs)


def load_digests() -> Dict[str, dict]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("seed") != DEFAULT_SEED:
        raise ValueError(f"{DIGESTS_PATH} holds digests for seed {data.get('seed')}, not {DEFAULT_SEED}")
    return data["runs"]


def write_digests() -> None:
    """Record cube digests of every tasks_fine input of the default seed."""
    workload = TasksFine(DEFAULT_SEED, HERE, digests={})
    runs = {}
    for i in range(workload.cycle * workload.SEEDS_PER_KERNEL):
        result = workload.run(i)
        runs[workload.key(i)[3]] = {
            "sha256": content_hash(result.profile),
            "kernel_time": result.kernel_time,
        }
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "runs": runs}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-digests"]:
        sys.exit("usage: python3 perfbench/workloads.py --write-digests")
    write_digests()
