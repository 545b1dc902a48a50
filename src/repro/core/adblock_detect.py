"""Ad-blocker usage inference (§3.2, §6.2, §6.3).

Two indicators per active browser:

1. **Low ratio of ad requests** — EasyList-classified share of the
   user's requests under the 5% threshold calibrated by the active
   measurement study (Fig 2).
2. **Filter-list downloads** — the user's household contacted an
   Adblock Plus download server over HTTPS.  NAT + HTTPS means this is
   a *household*-level signal (§6.2).

Their cross product yields the paper's four usage classes (Table 3):

========  =============  ==================  =========================
Type      Ratio <= thr   EasyList download   Interpretation
========  =============  ==================  =========================
A         no             no                  no ad-blocker
B         no             yes                 mixed household
C         yes            yes                 likely Adblock Plus user
D         yes            no                  other blocker / few-ad diet
========  =============  ==================  =========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.users import UserStats

__all__ = [
    "AD_RATIO_THRESHOLD",
    "UsageType",
    "UserUsage",
    "classify_usage",
    "usage_breakdown",
    "easyprivacy_subscription_shares",
    "acceptable_ads_optout_shares",
]

AD_RATIO_THRESHOLD = 0.05  # §4.3 / §6.2


class UsageType:
    """Table 3 class labels."""

    A = "A"  # neither indicator
    B = "B"  # download only
    C = "C"  # both -> likely Adblock Plus
    D = "D"  # low ratio only


@dataclass(frozen=True, slots=True)
class UserUsage:
    """One active browser's indicator values and class."""

    stats: UserStats
    low_ad_ratio: bool
    easylist_download: bool

    @property
    def usage_type(self) -> str:
        if self.low_ad_ratio and self.easylist_download:
            return UsageType.C
        if self.low_ad_ratio:
            return UsageType.D
        if self.easylist_download:
            return UsageType.B
        return UsageType.A

    @property
    def likely_adblock(self) -> bool:
        return self.usage_type == UsageType.C


def classify_usage(
    users: Iterable[UserStats],
    download_households: set[str],
    *,
    threshold: float = AD_RATIO_THRESHOLD,
) -> list[UserUsage]:
    """Apply both indicators to the annotated active browsers."""
    usages = []
    for stats in users:
        usages.append(
            UserUsage(
                stats=stats,
                low_ad_ratio=stats.ad_ratio <= threshold,
                easylist_download=stats.client in download_households,
            )
        )
    return usages


@dataclass(frozen=True, slots=True)
class UsageBreakdownRow:
    """One row of Table 3."""

    usage_type: str
    instances: int
    instance_share: float
    request_share: float
    ad_request_share: float


def usage_breakdown(
    usages: list[UserUsage], *, total_requests: int | None = None, total_ads: int | None = None
) -> list[UsageBreakdownRow]:
    """Summarize usage classes into Table 3's rows.

    ``total_requests`` / ``total_ads`` denominate the request-share
    columns (the paper uses trace-wide totals); they default to the
    classified population's own totals.
    """
    # A zero denominator (an empty trace) yields zero shares, not a crash.
    if total_requests is None:
        total_requests = sum(usage.stats.requests for usage in usages)
    if total_ads is None:
        total_ads = sum(usage.stats.ad_requests for usage in usages)
    total_requests = total_requests or 1
    total_ads = total_ads or 1
    n_users = len(usages) or 1

    rows = []
    for usage_type in (UsageType.A, UsageType.B, UsageType.C, UsageType.D):
        members = [usage for usage in usages if usage.usage_type == usage_type]
        rows.append(
            UsageBreakdownRow(
                usage_type=usage_type,
                instances=len(members),
                instance_share=len(members) / n_users,
                request_share=sum(usage.stats.requests for usage in members) / total_requests,
                ad_request_share=sum(usage.stats.ad_requests for usage in members) / total_ads,
            )
        )
    return rows


def easyprivacy_subscription_shares(
    usages: list[UserUsage], *, max_hits: int = 0
) -> tuple[float, float]:
    """§6.3's EasyPrivacy analysis.

    Returns (share of likely-ABP users with <= ``max_hits`` EasyPrivacy
    hits, same share for non-adblock users).  A user whose requests
    never match EasyPrivacy filters plausibly *subscribes* to it (the
    trackers were blocked client-side); the non-adblock share is the
    false-positive baseline — almost everyone contacts a tracker
    otherwise (Metwalley et al.: 77% immediately).
    """
    abp = [usage for usage in usages if usage.usage_type == UsageType.C]
    plain = [usage for usage in usages if usage.usage_type == UsageType.A]

    def share(group: list[UserUsage]) -> float:
        if not group:
            return 0.0
        quiet = sum(1 for usage in group if usage.stats.easyprivacy_hits <= max_hits)
        return quiet / len(group)

    return share(abp), share(plain)


def acceptable_ads_optout_shares(
    usages: list[UserUsage], *, max_hits: int = 0
) -> tuple[float, float]:
    """§6.3's non-intrusive-ads analysis.

    Returns (share of likely-ABP users with <= ``max_hits`` whitelisted
    requests, same for non-adblock users).  ABP users without any
    whitelisted ads plausibly *opted out* of the acceptable-ads list;
    the non-adblock share baselines how rare such ads are organically.
    """
    abp = [usage for usage in usages if usage.usage_type == UsageType.C]
    plain = [usage for usage in usages if usage.usage_type == UsageType.A]

    def share(group: list[UserUsage]) -> float:
        if not group:
            return 0.0
        # Only whitelist hits that also match the blacklist count:
        # whitelist-only matches (the overly general $document rules)
        # appear for everyone and would drown the signal (§7.3).
        quiet = sum(1 for usage in group if usage.stats.whitelisted_and_blacklisted <= max_hits)
        return quiet / len(group)

    return share(abp), share(plain)
