"""Set-up probe: one fresh interpreter brings a workload up, then exits.

``python3 -m perfbench.probe WORKLOAD SEED RUN_DIR`` prints
``{"setup_s": ...}``: seconds from this module's first line (before numpy
or repro are imported) until the workload is ready for its first timed
operation.  ``run.py`` starts three probes and reports the median, so the
import and construction work a user pays on every start shows in
``setup_s``.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    workload, seed, run_dir = argv[0], int(argv[1]), argv[2]
    from perfbench.common import isolate

    isolate(run_dir)
    if workload == "train":
        from perfbench import train

        train.setup(seed)
        ready = time.perf_counter()
    elif workload == "serve":
        from perfbench import serve

        handle, _ = serve.setup(run_dir)
        ready = time.perf_counter()
        handle.stop()
    elif workload == "pipeline":
        from perfbench import pipeline

        pipeline.setup()
        ready = time.perf_counter()
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print(json.dumps({"setup_s": ready - _START}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
