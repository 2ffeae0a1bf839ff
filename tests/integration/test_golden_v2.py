"""Full-summary and report-text goldens (see :mod:`tests.integration.golden_v2`).

Every scenario is replayed and compared byte-for-byte against the
fixture: the serialized summary with no key excluded, and the report
text.  Unlike ``golden_summaries.json`` nothing is filtered, so a change
in how any run counter is collected or formatted shows up here.
"""

from __future__ import annotations

import json

import pytest

from tests.integration.golden_v2 import FIXTURE_PATH, run_scenario, scenarios

_SCENARIOS = scenarios()


@pytest.fixture(scope="module")
def golden_fixture() -> dict[str, dict[str, str]]:
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


def test_fixture_covers_every_scenario(golden_fixture) -> None:
    assert sorted(golden_fixture) == sorted(_SCENARIOS)


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_golden_summary_and_report(name: str, golden_fixture) -> None:
    config, threads = _SCENARIOS[name]
    observed = run_scenario(config, threads)
    assert observed["summary"] == golden_fixture[name]["summary"]
    assert observed["report"] == golden_fixture[name]["report"]
