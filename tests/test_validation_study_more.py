"""Additional coverage: study internals."""

from repro.validation.tree import TreeOutcome, TreeRates
from repro.types import Ad, ClassifiedAd


def classified(user, identity, label):
    return ClassifiedAd(user_id=user, ad=Ad(url=identity), label=label,
                        domains_seen=1, users_seen=1.0,
                        domains_threshold=0.5, users_threshold=2.0, week=0)


class TestTreeRatesAccounting:
    def make_rates(self):
        rates = TreeRates()
        rates.outcomes = {
            TreeOutcome.FP_CR: 2,
            TreeOutcome.TP_CB: 3,
            TreeOutcome.UNKNOWN_TARGETED: 5,
            TreeOutcome.TN_CR: 20,
            TreeOutcome.TN_F8: 10,
            TreeOutcome.UNKNOWN_NON_TARGETED: 70,
        }
        return rates

    def test_branch_totals(self):
        rates = self.make_rates()
        assert rates.total_targeted == 10
        assert rates.total_non_targeted == 100

    def test_branch_rates(self):
        rates = self.make_rates()
        assert rates.rate_within_branch(TreeOutcome.FP_CR) == 0.2
        assert rates.rate_within_branch(TreeOutcome.TN_CR) == 0.2
        assert rates.rate_within_branch(TreeOutcome.FN_CB) == 0.0

    def test_empty_rates(self):
        rates = TreeRates()
        assert rates.total_targeted == 0
        assert rates.rate_within_branch(TreeOutcome.TP_CB) == 0.0
        assert rates.unknowns(True) == []

    def test_count_missing_outcome(self):
        assert self.make_rates().count(TreeOutcome.FN_F8) == 0
