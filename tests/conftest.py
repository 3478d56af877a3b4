"""Shared fixtures.

Campaign runs are expensive, so they are session-scoped: the full
paper-scale campaign (79,629 tests, ~20 s) runs at most once per pytest
session, and the quick campaign (scaled-down corpora, same quirk
coverage) is what most integration tests use.
"""

from __future__ import annotations

import time

import pytest

from repro.core import Campaign, CampaignConfig
from repro.typesystem import (
    QUICK_DOTNET_QUOTAS,
    QUICK_JAVA_QUOTAS,
    build_dotnet_catalog,
    build_java_catalog,
)


@pytest.fixture(scope="session")
def java_catalog():
    return build_java_catalog()


@pytest.fixture(scope="session")
def dotnet_catalog():
    return build_dotnet_catalog()


@pytest.fixture(scope="session")
def quick_java_catalog():
    return build_java_catalog(QUICK_JAVA_QUOTAS)


@pytest.fixture(scope="session")
def quick_dotnet_catalog():
    return build_dotnet_catalog(QUICK_DOTNET_QUOTAS)


@pytest.fixture(scope="session")
def quick_campaign_result():
    config = CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
    )
    return Campaign(config).run()


@pytest.fixture(scope="session")
def full_campaign_run():
    """The paper-scale campaign and its serial wall time in seconds."""
    started = time.perf_counter()
    result = Campaign(CampaignConfig()).run()
    return result, time.perf_counter() - started


@pytest.fixture(scope="session")
def full_campaign_result(full_campaign_run):
    return full_campaign_run[0]
