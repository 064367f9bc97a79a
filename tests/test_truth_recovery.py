"""Validation against simulator ground truth.

The simulator records latent truths (behavioural classes, intended
categories/methods/values) that the analyses never see.  These tests
score the estimation pipelines against that truth — the closest thing a
reproduction can get to 'the statistics actually work'.
"""

import numpy as np
import pytest

from repro.analysis.latent import FEATURE_NAMES, fit_latent_classes
from repro.core.timeutils import month_of
from repro.text.payments import PaymentExtractor
from repro.text.taxonomy import UNCATEGORISED, ActivityCategorizer
from repro.text.values import estimate_contract_value


class TestCategoryRecovery:
    def test_intended_categories_found(self, sim_small):
        categorizer = ActivityCategorizer()
        hits = checked = 0
        for contract_id, spec in sim_small.truth.specs.items():
            if spec.categories == {UNCATEGORISED}:
                continue
            contract = sim_small.dataset.contract(contract_id)
            found = categorizer.categorize_sides(
                contract.maker_obligation, contract.taker_obligation
            )
            checked += 1
            if spec.categories & found:
                hits += 1
        assert checked > 100
        assert hits / checked > 0.97

    def test_intended_methods_found(self, sim_small):
        extractor = PaymentExtractor()
        hits = checked = 0
        for contract_id, spec in sim_small.truth.specs.items():
            if not spec.methods:
                continue
            contract = sim_small.dataset.contract(contract_id)
            found = extractor.extract_sides(
                contract.maker_obligation, contract.taker_obligation
            )
            checked += 1
            if spec.methods <= found:
                hits += 1
        assert checked > 100
        assert hits / checked > 0.9

    def test_values_recovered_within_tolerance(self, sim_small):
        close = checked = 0
        for contract_id, spec in sim_small.truth.specs.items():
            if spec.value_usd <= 0 or spec.is_typo:
                continue
            contract = sim_small.dataset.contract(contract_id)
            estimate = estimate_contract_value(contract, sim_small.rates)
            if estimate is None:
                continue
            checked += 1
            if abs(estimate.usd - spec.value_usd) / spec.value_usd < 0.25:
                close += 1
        assert checked > 100
        assert close / checked > 0.85


def _user_month_classes(model):
    """(user id, recovered class) of every user-month case."""
    panel = model.panel
    users = panel.user_ids[panel.user_code].tolist()
    return zip(users, model.ltm.assignments.tolist())


class TestLatentClassRecovery:
    @pytest.fixture(scope="class")
    def recovery(self, sim_tiny):
        model = fit_latent_classes(sim_tiny.dataset, k=10, seed=4, n_init=2)
        return sim_tiny, model

    def test_power_user_months_separated_from_singles(self, recovery):
        """User-months of power-class users must rarely share a recovered
        class with single-class user-months."""
        sim, model = recovery
        truth = sim.truth.user_class

        # recovered class -> counts of truth tiers among member user-months
        from repro.synth.config import CLASS_TIERS

        tier_counts = {k: {"single": 0, "mid": 0, "power": 0} for k in range(model.k)}
        for user, klass in _user_month_classes(model):
            tier = CLASS_TIERS.get(truth.get(user, "C"), "single")
            tier_counts[klass][tier] += 1

        # Find the recovered class holding the most power user-months; its
        # single-tier contamination must be limited.
        power_class = max(
            tier_counts, key=lambda k: tier_counts[k]["power"]
        )
        counts = tier_counts[power_class]
        total = sum(counts.values())
        assert counts["power"] + counts["mid"] > 0.5 * total

    def test_truth_classes_map_to_few_recovered_classes(self, recovery):
        """User-months of one truth class should concentrate in a handful
        of recovered classes (the measurement model is informative)."""
        sim, model = recovery
        truth = sim.truth.user_class

        spread: dict = {}
        for user, klass in _user_month_classes(model):
            true_class = truth.get(user)
            if true_class is None:
                continue
            spread.setdefault(true_class, []).append(klass)

        # class C (single SALE makers) must be dominated by one recovered class
        c_assignments = np.asarray(spread.get("C", []))
        assert len(c_assignments) > 50
        dominant_share = np.bincount(c_assignments).max() / len(c_assignments)
        assert dominant_share > 0.5
