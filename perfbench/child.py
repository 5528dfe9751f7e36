"""One benchmark run in a fresh interpreter.

Usage: ``python3 child.py setup <src> <config> <result.json>`` or
``python3 child.py <spec.json>``.  Either way the child writes one JSON
result to the named result path.

* ``setup`` times ``import adl_engine.cli`` plus ``config.load_config`` and
  ``definitions.load_definitions`` for the config.  It imports nothing of its
  own before the clock stops, so the engine's imports are all counted.  Then
  it times the machine-speed reference of ``speed.py``.
* A spec names the engine's ``src`` directory, a mode, and the CLI argument
  lists to run in order.

Spec modes:

* ``run``: time the CLI steps and report the process's peak RSS;
* ``trace``: the same with every public stage function wrapped in a span;
* ``alloc``: the same with ``tracemalloc`` on around ingestion.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _setup(src: str, config_path: str) -> float:
    sys.path.insert(0, src)
    start = perf_counter()
    from adl_engine import cli, config, definitions  # noqa: F401  (timed import)

    loaded = config.load_config(config_path)
    for path in loaded.definitions:
        definitions.load_definitions(path)
    return perf_counter() - start


def _run(spec: dict) -> dict:
    import importlib
    import resource

    import spans

    sys.path.insert(0, spec["src"])
    modules = {
        name: importlib.import_module(f"adl_engine.{name}") for name in [*spans.TRACED, "cli"]
    }
    cli = modules["cli"]
    mode = spec["mode"]
    tracer = probe = None
    if mode == "trace":
        tracer = spans.Tracer()
        tracer.install(modules)
    elif mode == "alloc":
        probe = spans.AllocProbe()
        probe.install(modules)

    codes = []
    start = perf_counter()
    for argv in spec["steps"]:
        if tracer is None:
            codes.append(cli.main(argv))
        else:
            codes.append(tracer.call(spans.ROOT, cli.main, argv))
    run_s = perf_counter() - start

    result = {
        "codes": codes,
        "run_s": run_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    if probe is not None:
        result["peak_alloc_mb"] = probe.peak_bytes / 2**20
    return result


def main() -> None:
    if sys.argv[1] == "setup":
        _, _, src, config_path, result_path = sys.argv
        seconds = _setup(src, config_path)
        import json

        import speed

        with open(result_path, "w") as stream:
            json.dump({"setup_s": seconds, "reference_s": speed.reference_s()}, stream)
        return
    import json

    with open(sys.argv[1]) as stream:
        spec = json.load(stream)
    result = _run(spec)
    with open(spec["result"], "w") as stream:
        json.dump(result, stream)


if __name__ == "__main__":
    main()
