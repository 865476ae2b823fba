"""Times the run-artifact layer: cold single-pass collection versus a
warm disk-cache load.

Run:  pytest benchmarks/bench_artifacts.py --benchmark-only -s

The cold number is the one instrumented interpreter pass that now
serves trace, path tables and step count together (previously three
separate passes); the warm number is a pure ``KBT1`` + envelope decode.
"""

from repro.obs import OBS
from repro.workloads.artifacts import clear_memory_cache, get_artifacts


def _cold(name, scale):
    clear_memory_cache()
    import repro.workloads.artifacts as store

    store.clear_disk_cache()
    return get_artifacts(name, scale=scale)


def _warm(name, scale):
    clear_memory_cache()
    return get_artifacts(name, scale=scale)


def test_artifacts_cold(benchmark, bench_scale):
    OBS.reset(prefix="artifacts.")
    artifacts = benchmark.pedantic(
        _cold, args=("compress", bench_scale), rounds=3, iterations=1
    )
    assert len(artifacts.trace) > 0
    benchmark.extra_info["interpreter_runs"] = OBS.counter(
        "artifacts.interpreter.runs"
    )
    benchmark.extra_info["events"] = len(artifacts.trace)


def test_artifacts_warm(benchmark, bench_scale):
    get_artifacts("compress", scale=bench_scale)  # ensure the disk entry exists
    OBS.reset(prefix="artifacts.")
    artifacts = benchmark.pedantic(
        _warm, args=("compress", bench_scale), rounds=3, iterations=1
    )
    assert OBS.counter("artifacts.interpreter.runs") == 0
    benchmark.extra_info["hits"] = OBS.counter("artifacts.cache.hits")
    benchmark.extra_info["events"] = len(artifacts.trace)
