"""Run one CLI invocation in this fresh interpreter, traced or as a set-up probe.

    python3 child.py trace|probe RESULT.json -- CLI ARGS...

The library is imported from PYTHONPATH, as set by the driver.

trace: wrap the library's public functions (spans.py), run
    treeharmonics.cli.main, then write the spans, the structural counters and
    the phase timestamps to RESULT.json.
probe: run a witness command's treeharmonics.cli.main until it calls into
    witness synthesis, write that instant to RESULT.json and exit.  Everything before
    it (interpreter start, import, config validation, build_tree and
    enumerate_targets) is the command's set-up.

All timestamps are time.perf_counter() values, which on Linux read the
system-wide monotonic clock, so the driver can compare them with its own.
The exit code is the CLI's.
"""

import json
import os
import sys
from time import perf_counter

# the first calls past a witness command's set-up, by their names in cli.py
SETUP_ENDS = ("build_ufm_witness", "build_x_witness")


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main() -> int:
    mode, result_path, sep, *argv = sys.argv[1:]
    if mode not in ("trace", "probe") or sep != "--":
        raise SystemExit(f"usage: {__doc__}")
    import treeharmonics.cli as cli

    imported = perf_counter()
    if mode == "probe":

        def stop(*args, **kwargs):
            _write(result_path, {"setup_end": perf_counter()})
            os._exit(0)

        for name in SETUP_ENDS:
            setattr(cli, name, stop)
        code = cli.main(argv)
        _write(result_path, {"error": f"exited with {code} before any synthesis or check"})
        return code if code else 1

    from treeharmonics import boundary, harmonic, trees, universality

    import spans

    modules = {"cli": cli, "trees": trees, "boundary": boundary, "harmonic": harmonic, "universality": universality}
    tracer = spans.Tracer()
    tracer.install(modules)
    main_start = perf_counter()
    code = cli.main(argv)
    main_end = perf_counter()
    counters = tracer.counters(modules)
    _write(
        result_path,
        {
            "imported": imported,
            "main_start": main_start,
            "main_end": main_end,
            "collected": perf_counter(),
            "spans": tracer.spans,
            "counters": counters,
        },
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
