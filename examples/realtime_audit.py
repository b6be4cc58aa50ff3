#!/usr/bin/env python3
"""The eyeWnder user experience: "is this ad targeted at me?" in real time.

A weekly aggregation round has already run (the back-end holds the global
#Users sketch and threshold); the user browses, the extension feeds the
local counters, and each audit click gets an instant answer with the
paper's two-signal rationale.
"""

from repro.api import ProtocolSession
from repro.core.audit import AuditService
from repro.core.detector import DetectorConfig
from repro.protocol import RoundConfig, enroll_users
from repro.protocol.spec import WeeklySnapshot
from repro.types import Ad, Impression


def main() -> None:
    config = RoundConfig(cms_depth=6, cms_width=512, cms_seed=3,
                         id_space=5000)
    print("Setting up a 12-user deployment and running week 0's "
          "aggregation round ...")
    enrollment = enroll_users([f"user-{i}" for i in range(12)], config,
                              seed=4, use_oprf=False)
    # Last week: everyone saw the big brand ad; user-0 alone met a
    # suspicious offer; half the panel saw a mid-size campaign.
    for client in enrollment.clients:
        client.observe_ad("http://brand.example/sale")
    for client in enrollment.clients[:6]:
        client.observe_ad("http://midsize.example/offer")
    enrollment.clients[0].observe_ad("http://suspicious.example/just-for-you")
    with ProtocolSession.create(enrollment) as session:
        result = session.run_round(0)
    # What the back-end retains of the week — the same value
    # ``GET /v1/snapshots/0`` serves over HTTP.
    snapshot = WeeklySnapshot(week=0, users_threshold=result.users_threshold,
                              distribution=result.distribution,
                              round_result=result)
    print(f"  Users_th = {snapshot.users_threshold:.2f}\n")

    mapper = enrollment.clients[0].ad_mapper
    audit = AuditService("user-0", lambda: snapshot, ad_id_of=mapper.ad_id,
                         config=DetectorConfig(min_ad_serving_domains=3))

    print("user-0 browses this week; the extension observes:")
    tick = 0
    browsing = [
        ("news.example", "http://local-news-ad.example/x"),
        ("sports.example", "http://local-sports-ad.example/y"),
        ("blog.example", "http://local-blog-ad.example/z"),
    ]
    for domain, ad_url in browsing:
        audit.observe(Impression("user-0", Ad(url=ad_url), domain, tick))
        tick += 1
        print(f"  visited {domain}: one local ad")
    for domain in ("mail.example", "weather.example", "recipes.example",
                   "travel.example"):
        audit.observe(Impression(
            "user-0", Ad(url="http://suspicious.example/just-for-you"),
            domain, tick))
        tick += 1
        print(f"  visited {domain}: the 'just-for-you' ad AGAIN")
    for domain in ("news.example", "portal.example"):
        audit.observe(Impression(
            "user-0", Ad(url="http://brand.example/sale"), domain, tick))
        tick += 1

    print("\nAudit clicks:")
    for url in ("http://suspicious.example/just-for-you",
                "http://brand.example/sale",
                "http://local-news-ad.example/x"):
        answer = audit.audit(Ad(url=url))
        print(f"\n  {url}")
        print(f"    -> {answer.verdict.label.value.upper()} "
              f"(week {answer.based_on_week} statistics)")
        print(f"    {answer.explanation}")


if __name__ == "__main__":
    main()
