"""Lenient and governed profilers reproduce the golden cube corpus.

Over clean input, a lenient profiler (``strict=False``) and a governed
one (a memory budget far above any kernel's need) must build exactly
the cube the strict profiler builds: the same event loop, no event
dropped, no ladder step taken.  Every case of ``tests/golden/cubes.json``
is checked in both modes, and the lenient ledger must have seen every
event the instrumentation layer dispatched.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiment import run_app
from repro.archive.store import dict_content_hash
from repro.cube.export import profile_to_dict
from repro.governor import MemoryBudget
from repro.substrates.profiling import ProfilingSubstrate
from tests.test_golden_cubes import CASES, SEED, SIZE, _key, _load_corpus


@pytest.fixture(scope="module")
def corpus():
    return _load_corpus()


@pytest.mark.parametrize("app,n_threads", CASES)
def test_lenient_and_governed_cubes_match_corpus(corpus, app, n_threads):
    expected = corpus["cubes"][_key(app, n_threads)]

    lenient = run_app(
        app, size=SIZE, n_threads=n_threads, seed=SEED,
        substrates=(ProfilingSubstrate(strict=False),),
    )
    cube = profile_to_dict(lenient.profile)
    salvage = cube.pop("salvage")
    assert dict_content_hash(cube) == expected
    assert salvage["partial"] is False
    assert lenient.profile.salvage.events_seen == lenient.parallel.events_dispatched

    governed = run_app(
        app, size=SIZE, n_threads=n_threads, seed=SEED,
        memory_budget=MemoryBudget(max_pool_nodes=10**9),
    )
    assert dict_content_hash(profile_to_dict(governed.profile)) == expected
