"""Concurrent-writer safety of the disk tier.

Two processes storing the same content-addressed key must never corrupt
the entry: each writer stages into its own ``O_EXCL`` temp file (pid +
uuid in the name) and publishes with an atomic rename, so the survivor
is always one writer's complete bytes.
"""

import multiprocessing as mp
import pickle

import numpy as np

from repro.cache.cache import SolverCache


def _store_many(disk_dir: str, start_evt, rounds: int) -> None:
    """Worker: hammer the same keys ``rounds`` times."""
    cache = SolverCache(max_bytes=1, disk_dir=disk_dir)  # tiny memory tier
    start_evt.wait()
    for r in range(rounds):
        for k in range(8):
            cache.store("trees", ("entry", k), {"k": k, "blob": np.arange(256)})


class TestConcurrentDiskWriters:
    def test_two_writers_same_key_never_corrupt(self, tmp_path):
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None
        )
        start = ctx.Event()
        procs = [
            ctx.Process(target=_store_many, args=(str(tmp_path), start, 20))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        start.set()  # release both writers at once to maximise interleaving
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0

        # No temp droppings left behind...
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []
        # ...and every entry on disk unpickles to complete content.
        entries = list(tmp_path.rglob("*.pkl"))
        assert len(entries) == 8
        for path in entries:
            value = pickle.loads(path.read_bytes())
            assert np.array_equal(value["blob"], np.arange(256))

    def test_reader_sees_whole_entry_after_concurrent_store(self, tmp_path):
        cache = SolverCache(max_bytes=1, disk_dir=str(tmp_path))
        cache.store("trees", ("entry", 0), {"k": 0, "blob": np.arange(256)})
        fresh = SolverCache(max_bytes=1, disk_dir=str(tmp_path))
        hit, value = fresh.lookup("trees", ("entry", 0))
        assert hit
        assert np.array_equal(value["blob"], np.arange(256))
