"""Set-up probe: the Preparation Phase of Fig. 2 in a fresh process.

Imports the CLI, then builds the type catalogs and every server's
service corpus at the given scale, exactly as a campaign does before
its first deployment.  The benchmark times the whole process::

    PYTHONPATH=src python3 benchmarks/suite/prepare.py quick|paper
"""

import sys

import repro.cli  # noqa: F401  (its import is part of what every run pays)
from repro.core import Campaign, CampaignConfig
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS


def main(scale):
    if scale == "quick":
        config = CampaignConfig(
            java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
        )
    elif scale == "paper":
        config = CampaignConfig()
    else:
        raise SystemExit(f"unknown scale {scale!r}; expected quick or paper")
    campaign = Campaign(config)
    for server_id in config.server_ids:
        campaign.corpus_for(server_id)


if __name__ == "__main__":
    main(sys.argv[1])
