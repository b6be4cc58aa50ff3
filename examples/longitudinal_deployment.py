#!/usr/bin/env python3
"""Operating eyeWnder week over week — the deployment view.

The paper ran the system live for over a year with a fluctuating panel.
This example simulates six weeks of operation with realistic friction:

* 20% weekly churn (users inactive, on holiday, uninstalled), absorbed
  by one persistent session as ``advance_epoch`` deltas;
* 8% of reporters crash mid-round, triggering the §6 two-message
  blinding-recovery round;
* every week's #Users statistics travel as blinded CMS reports.

The output is the weekly operator dashboard: panel size, dropouts, the
Users_th trajectory, classified pairs and flagged ads.
"""

from repro.backend.operations import LongitudinalDeployment
from repro.simulation.config import SimulationConfig


def main() -> None:
    deployment = LongitudinalDeployment(
        config=SimulationConfig(num_users=60, num_websites=120,
                                average_user_visits=60,
                                percentage_targeted=2.0,
                                frequency_cap=8, seed=12),
        churn_rate=0.2, dropout_rate=0.08, seed=12)
    print("Simulating 6 weeks of live operation "
          "(churn 20%, mid-round dropouts 8%) ...\n")
    log = deployment.run(num_weeks=6)
    print(log.summary())
    print(f"\ntotal flagged (user, ad) pairs across the run: "
          f"{log.total_flagged}")
    recoveries = sum(1 for w in log.weeks if w.recovery_round_used)
    print(f"weeks needing the blinding-recovery round: "
          f"{recoveries}/{len(log.weeks)}")
    lo, hi = min(log.thresholds), max(log.thresholds)
    print(f"Users_th stayed within [{lo:.2f}, {hi:.2f}] despite churn.")
    rekeyed = ", ".join(
        "full enrollment" if w.rekeyed_users is None else str(w.rekeyed_users)
        for w in log.weeks)
    print(f"users re-keyed per week: {rekeyed} — one epoch session follows "
          f"the panel, so only users whose clique changed pay new key "
          f"exchanges (panel ~{log.weeks[0].active_users}).")


if __name__ == "__main__":
    main()
