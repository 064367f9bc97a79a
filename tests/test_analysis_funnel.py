"""Tests for the contract-process funnel (Appendix Figure 14)."""

import pytest

from repro.analysis.funnel import contract_funnel, funnel_by_era
from repro.core import ContractStatus


class TestContractFunnel:
    def test_stage_counts_partition(self, dataset):
        funnel = contract_funnel(dataset)
        denied = funnel.stage("denied").count
        expired = funnel.stage("expired").count
        accepted = funnel.stage("accepted").count
        assert denied + expired + accepted == funnel.total_proposed

    def test_stage2_outcomes_partition_accepted(self, dataset):
        funnel = contract_funnel(dataset)
        accepted = funnel.stage("accepted").count
        live = funnel.stage("still active").count
        terminal = sum(
            funnel.stage(label).count
            for label in ("complete", "incomplete", "cancelled", "disputed")
        )
        assert live + terminal == accepted

    def test_acceptance_high(self, dataset):
        # denied 0.09% + expired 6.3% in the paper -> ~94% accepted
        funnel = contract_funnel(dataset)
        assert funnel.acceptance_rate > 0.88

    def test_completion_given_accept(self, dataset):
        funnel = contract_funnel(dataset)
        assert 0.3 < funnel.completion_given_accept < 0.6

    def test_unknown_stage_raises(self, dataset):
        with pytest.raises(KeyError):
            contract_funnel(dataset).stage("teleported")

    def test_lines_render(self, dataset):
        lines = contract_funnel(dataset).lines()
        assert lines[0].startswith("proposed")
        assert any("complete" in line for line in lines)

    def test_empty_subset(self, dataset):
        funnel = contract_funnel(dataset.subset([]))
        assert funnel.total_proposed == 0
        assert funnel.acceptance_rate == pytest.approx(0.0)


class TestFunnelByEra:
    def test_three_eras(self, dataset):
        funnels = funnel_by_era(dataset)
        assert set(funnels) == {"SET-UP", "STABLE", "COVID-19"}

    def test_era_totals_sum(self, dataset):
        funnels = funnel_by_era(dataset)
        assert sum(f.total_proposed for f in funnels.values()) == len(
            dataset.contracts
        )
