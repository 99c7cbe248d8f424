"""Artifact digests of the shipped small scenarios stay as recorded.

The oracle is tests/golden_digests.json, written by
tests/make_golden_digests.py.  A refactor must leave every digest as
it is; a change that means to alter an artifact regenerates the file
and says which entries moved and why.
"""

import json

from make_golden_digests import GOLDEN, compute


def test_artifact_digests_match_the_golden_file():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = compute()
    assert sorted(current) == sorted(recorded)
    moved = {
        case: sorted(k for k in recorded[case] if recorded[case][k] != current[case][k])
        for case in recorded
    }
    assert {case: keys for case, keys in moved.items() if keys} == {}
