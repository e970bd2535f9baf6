"""Run one torolog benchmark workload and print its metrics.

    python3 bench/run.py --workload cli-verbs --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; torolog is imported from ``src/``.
This file times the set-up, importing ``torolog`` and ``torolog.cli``, before
anything else is loaded; :mod:`harness` then runs the workload.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import gc
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Imports of torolog per run; ``setup_s`` is their median.
SETUP_PROBES = 27


def measure_setup():
    """Import ``torolog`` and ``torolog.cli`` ``SETUP_PROBES`` times and
    return the median time in seconds.

    Before every probe but the first, each module the first probe loaded is
    dropped from ``sys.modules``, so every probe imports the package and the
    standard modules it needs, as a fresh process would.  Nothing but this
    file's own imports is loaded before the first probe.
    """
    sys.path.insert(0, SRC)
    before = set(sys.modules)
    times = []
    for probe in range(SETUP_PROBES):
        if probe:
            for name in set(sys.modules) - before:
                del sys.modules[name]
            # Free the dropped modules, so they do not count in the peak
            # resident set size.
            gc.collect()
        start = time.perf_counter()
        import torolog  # noqa: F401
        import torolog.cli  # noqa: F401
        times.append(time.perf_counter() - start)
    times.sort()
    return times[SETUP_PROBES // 2]


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "torolog", "__init__.py")):
        print(f"no torolog sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = measure_setup()
    import harness

    return harness.main(argv, setup_s)


if __name__ == "__main__":
    sys.exit(main())
