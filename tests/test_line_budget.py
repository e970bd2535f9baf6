"""The package source stays within its line budget.

The round began with 3,529 lines in ``src/torolog/*.py`` and aims to end
with fewer, so code that a change adds is paid for with code it deletes.
"""

import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "torolog"
LINE_CAP = 3529


def test_the_package_source_stays_within_the_line_cap():
    # Counted as ``wc -l`` counts: newline characters.
    counts = {p.name: p.read_bytes().count(b"\n") for p in SOURCE.glob("*.py")}
    assert "cli.py" in counts
    assert sum(counts.values()) <= LINE_CAP, sorted(counts.items())
