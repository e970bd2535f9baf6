"""Reference figures: single cases and size series, timed as medians.

    python3 bench/reference.py

Run from the root of a source checkout.  Prints one line per case: its
name, the median wall time over ``REPEATS`` runs in ms, and for some cases the
number of ``hnf`` calls one run makes.  The cases are the hexagon monoid
through ``monoid saturate``, ``fanmon check`` and ``round report`` on its
atlas, ``link_report`` on all simplices of up to three of twelve vertices
(298 simplices), the k- and h-series of ``hilbert_basis``, and membership
of 50,000 in numerical semigroups with three to six generators near 1000.
"""

import contextlib
import io
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import spans  # noqa: E402
import torolog  # noqa: E402
import torolog.cli  # noqa: E402

HEXAGON = {
    "ambient_rank": 3,
    "generators": [[1, 0, 1], [1, 1, 1], [0, 1, 1], [-1, 0, 1], [-1, -1, 1],
                   [0, -1, 1]],
}
SEMIGROUP = (1001, 1013, 1027, 1039, 1051, 1063)
# Runs per case.  Each run builds its own objects, so none starts warm.
REPEATS = 3


def cli(argv, payload):
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(payload))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            torolog.cli.main(argv)
    finally:
        sys.stdin = saved
    return out.getvalue()


def timed(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def hnf_calls(fn):
    tracer = spans.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.metrics()["lattice.hnf.calls"]


def cases():
    atlas = json.loads(cli(["fanmon", "atlas", "--json"], HEXAGON))
    complex_298 = {
        "n": 3, "vertices": 12,
        "simplices": [[a, b, c] for a in range(12) for b in range(a + 1, 12)
                      for c in range(b + 1, 12)],
    }
    yield "monoid saturate, hexagon", lambda: cli(["monoid", "saturate"], HEXAGON)
    yield "fanmon check, hexagon atlas", lambda: cli(["fanmon", "check"], atlas)
    yield "round report, hexagon atlas", lambda: cli(["round", "report"], atlas)
    yield "snc link, 12 vertices / 298 simplices", (
        lambda: cli(["snc", "link"], complex_298))
    for k in (2, 3, 4, 5, 6, 7):
        yield f"hilbert_basis k={k}", lambda k=k: torolog.hilbert_basis(
            torolog.RationalCone(4, corpus.k_series_rays(k)))
    for h in (5, 10, 20, 40, 80):
        yield f"hilbert_basis h={h}", lambda h=h: torolog.hilbert_basis(
            torolog.RationalCone(3, corpus.h_series_rays(h)))
    for n in (3, 4, 5, 6):
        gens = [(a,) for a in SEMIGROUP[:n]]
        yield f"membership 50000, {n} generators", (
            lambda g=gens: torolog.membership(torolog.ToricMonoid(1, g), (50000,)))


def main():
    for name, fn in cases():
        ms = timed(fn)
        calls = hnf_calls(fn) if not name.startswith("hilbert") else "-"
        print(f"{name:42s} {ms:10.1f} ms   hnf calls {calls}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
