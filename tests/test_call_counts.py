"""Call counts that show validation and face walks skip needless work.

The counts are deterministic: every check clears the memos first and counts
calls through a wrapper, so no timer is involved.
"""

from test_memo import clear_memos
from torolog import cones, monoids
from torolog.cones import RationalCone
from torolog.fans import affine_atlas, validate_fan_of_monoids
from torolog.monoids import ToricMonoid, exponent_cone

HEXAGON = ToricMonoid(
    3, ((1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1))
)


def count_calls(monkeypatch, module, name, run):
    """``run()`` on cleared memos: the calls it made to ``module.name``, and
    its result."""
    original = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    clear_memos()
    with monkeypatch.context() as m:
        m.setattr(module, name, counted)
        result = run()
    return len(calls), result


def test_validating_the_hexagon_atlas_searches_no_membership(monkeypatch):
    calls, report = count_calls(
        monkeypatch, monoids, "membership",
        lambda: validate_fan_of_monoids(affine_atlas(HEXAGON)),
    )
    assert calls == 0
    assert report.failures == ()


def test_faces_cost_no_double_description_beyond_the_dual(monkeypatch):
    for c in (
        exponent_cone(HEXAGON),
        RationalCone(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 2))),
        RationalCone(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1))),
    ):
        dual, _ = count_calls(
            monkeypatch, cones, "_dual_description", lambda: cones.dual_cone(c)
        )
        walk, _ = count_calls(
            monkeypatch, cones, "_dual_description", lambda: cones.faces(c)
        )
        assert 0 < walk <= dual
