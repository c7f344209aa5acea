"""Outcomes must match the digests in tests/golden.json.

The digests were written by tests/make_golden.py at the commit before
the change they guard; see that script for what each group covers.
"""

import json

import pytest

import make_golden

GOLDEN = json.loads(make_golden.GOLDEN.read_text())


@pytest.mark.parametrize("section", sorted(make_golden.SECTIONS))
def test_outcomes_match_golden_digests(section):
    assert make_golden.SECTIONS[section]() == GOLDEN[section]
