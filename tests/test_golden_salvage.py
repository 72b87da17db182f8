"""Golden salvage corpus: what ``run_tolerant`` makes of every fault mode.

``tests/golden/salvage.json`` pins, for ``fib`` and ``nqueens`` under
every mode in :data:`~repro.faults.plan.FAULT_MODES` and seeds 0 and 1
(size ``test``, 2 threads), the outcome ``status``, the content hash of
the exported profile (``null`` when there is none) and the salvage
report's ``summary()`` (``null`` when there is none).

Together with ``tests/golden/cubes.json`` it is the oracle for changes
to the lenient and governed profiler paths: a refactor that keeps every
entry here keeps every salvaged profile and every salvage ledger as it
was.  Regenerate it only when a change is *meant* to alter them::

    PYTHONPATH=src python tests/test_golden_salvage.py --write
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.archive.store import dict_content_hash
from repro.cube.export import profile_to_dict
from repro.faults.campaign import run_tolerant
from repro.faults.plan import FAULT_MODES, plan_for_mode

CORPUS = os.path.join(os.path.dirname(__file__), "golden", "salvage.json")
APPS = ("fib", "nqueens")
SEEDS = (0, 1)
SIZE = "test"
THREADS = 2

CASES = [(app, mode, seed) for app in APPS for mode in FAULT_MODES for seed in SEEDS]


def _key(app: str, mode: str, seed: int) -> str:
    return f"{app}/{mode}/{seed}"


def _outcome(app: str, mode: str, seed: int) -> dict:
    outcome = run_tolerant(
        app, size=SIZE, n_threads=THREADS, seed=seed,
        plan=plan_for_mode(mode, seed=seed),
    )
    profile, salvage = outcome.profile, outcome.salvage
    return {
        "status": outcome.status,
        "sha": None if profile is None else dict_content_hash(profile_to_dict(profile)),
        "summary": None if salvage is None else salvage.summary(),
    }


@pytest.fixture(scope="module")
def corpus():
    with open(CORPUS, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_corpus_covers_every_app_mode_and_seed(corpus):
    assert sorted(corpus["outcomes"]) == sorted(_key(*case) for case in CASES)
    assert (corpus["size"], corpus["n_threads"]) == (SIZE, THREADS)


@pytest.mark.parametrize("app,mode,seed", CASES)
def test_salvage_outcome_matches_corpus(corpus, app, mode, seed):
    assert _outcome(app, mode, seed) == corpus["outcomes"][_key(app, mode, seed)]


def main(argv) -> int:
    if argv != ["--write"]:
        print(f"usage: {os.path.basename(__file__)} --write", file=sys.stderr)
        return 2
    outcomes = {_key(*case): _outcome(*case) for case in CASES}
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    with open(CORPUS, "w", encoding="utf-8") as handle:
        json.dump({"size": SIZE, "n_threads": THREADS, "outcomes": outcomes},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(outcomes)} salvage outcomes to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
