"""The byte-identity oracle (``tests/identity.py``) on a slice of its inputs:
its outputs are the same from one run to the next, and its inputs hold every
golden query and rule."""

from __future__ import annotations

import pytest

import identity
from conftest import GOLDEN


@pytest.fixture(scope="module")
def inputs() -> dict:
    return identity.build_inputs()


def test_inputs_hold_every_golden_and_rule(inputs):
    paths = sorted(GOLDEN.glob("*.nsra")) + sorted((GOLDEN / "rules").glob("*.nsra"))
    assert len(paths) >= 9
    for path in paths:
        golden = path.with_suffix(".ql").read_text(encoding="utf-8")
        assert [path.read_text(encoding="utf-8"), golden] in inputs["queries"], path
        assert golden in inputs["ql"], path


def test_two_runs_of_a_slice_give_the_same_digests(inputs):
    """Each run is a child interpreter of its own, so its string hashes differ from the other's."""
    sliced = {"queries": inputs["queries"][::150], "profiles": inputs["profiles"][::40], "ql": inputs["ql"][::150],
              "profile_text": inputs["profile_text"]}
    first, second = identity.run_sides([identity.ROOT, identity.ROOT], sliced)
    assert identity.digests(first) == identity.digests(second)
    kinds = {kind.split(" (")[0] for _, kind in identity.digests(first)}
    assert {"error", "ql100", "ql60", "ir", "normalize_ql", "check", "query_to_text", "load_profile"} <= kinds
    assert identity.round_trip_failures(first) == []
