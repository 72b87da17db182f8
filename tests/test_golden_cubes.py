"""Golden cube corpus: exported-cube sha256 for every kernel x thread count.

``tests/golden/cubes.json`` pins the canonical content hash of each BOTS
kernel at size ``test``, seed 0, on 1/2/4/8 threads.  Every combination
is checked twice:

* the plain instrumented run (``run_app``) exports exactly that cube;
* a recorded ``run_tolerant`` run verifies MATCH against its own live
  cube, and the cube replayed from the recording alone is that cube too.

The corpus is the oracle for changes to the event path: a refactor that
keeps every hash here keeps every exported profile byte-identical.
Regenerate it only when a change is *meant* to alter the cubes::

    PYTHONPATH=src python tests/test_golden_cubes.py --write
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.analysis.experiment import run_app
from repro.archive.store import content_hash
from repro.bots import list_programs
from repro.faults.campaign import run_tolerant
from repro.recorder import verify_recording

CORPUS = os.path.join(os.path.dirname(__file__), "golden", "cubes.json")
SIZE = "test"
SEED = 0
THREADS = (1, 2, 4, 8)


def _key(app: str, n_threads: int) -> str:
    return f"{app}/{n_threads}"


def _live_sha(app: str, n_threads: int) -> str:
    result = run_app(app, size=SIZE, n_threads=n_threads, seed=SEED)
    return content_hash(result.profile)


def _load_corpus() -> dict:
    with open(CORPUS, "r", encoding="utf-8") as handle:
        return json.load(handle)


CASES = [(app, n) for app in list_programs() for n in THREADS]


@pytest.fixture(scope="module")
def corpus():
    return _load_corpus()


def test_corpus_covers_every_kernel_and_thread_count(corpus):
    assert sorted(corpus["cubes"]) == sorted(_key(a, n) for a, n in CASES)
    assert (corpus["size"], corpus["seed"]) == (SIZE, SEED)


@pytest.mark.parametrize("app,n_threads", CASES)
def test_live_and_replayed_cubes_match_corpus(corpus, tmp_path, app, n_threads):
    expected = corpus["cubes"][_key(app, n_threads)]
    assert _live_sha(app, n_threads) == expected

    record_dir = str(tmp_path / "rec")
    outcome = run_tolerant(
        app, size=SIZE, n_threads=n_threads, seed=SEED, record_dir=record_dir
    )
    assert outcome.status == "complete"
    report = verify_recording(record_dir)
    assert report.matched, report.reasons
    assert report.actual_sha == expected


def main(argv) -> int:
    if argv != ["--write"]:
        print(f"usage: {os.path.basename(__file__)} --write", file=sys.stderr)
        return 2
    cubes = {_key(a, n): _live_sha(a, n) for a, n in CASES}
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    with open(CORPUS, "w", encoding="utf-8") as handle:
        json.dump({"size": SIZE, "seed": SEED, "cubes": cubes}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(cubes)} cube hashes to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
