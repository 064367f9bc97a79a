"""Tests for the latent class / transition analysis (§5.1)."""

import os
import re
import string
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro import ExperimentContext, run_experiment
from repro.analysis.latent import (
    FEATURE_NAMES,
    class_activity_series,
    class_id,
    fit_latent_classes,
    top_flows,
    user_month_profiles,
)
from repro.core import ContractType
from repro.obs import disable_tracing, enable_tracing


@pytest.fixture(scope="module")
def model(tiny_dataset):
    return fit_latent_classes(tiny_dataset, k=8, seed=3, n_init=2)


class TestUserMonthProfiles:
    def test_panel_covers_all_months(self, tiny_dataset):
        panel = user_month_profiles(tiny_dataset)
        assert len(panel.months) == len(np.unique(panel.month_pos)) == 25

    def test_counts_match_contracts(self, tiny_dataset):
        panel = user_month_profiles(tiny_dataset)
        # each contract contributes one make + one take
        assert panel.counts.sum() == 2 * len(tiny_dataset.contracts)

    def test_vector_length(self, tiny_dataset):
        panel = user_month_profiles(tiny_dataset)
        assert panel.counts.shape[1] == len(FEATURE_NAMES) == 10

    def test_only_active_users_in_period(self, tiny_dataset):
        panel = user_month_profiles(tiny_dataset)
        assert (panel.counts.sum(axis=1) >= 1).all()


class TestFitLatentClasses:
    def test_class_count(self, model):
        assert model.k == 8

    def test_table6_rows(self, model):
        rows = model.table6()
        assert len(rows) == 8
        for class_id, rates, label in rows:
            assert len(rates) == 10
            assert all(r >= 0 for r in rates)
            assert label

    def test_labels_include_paper_archetypes(self, model):
        labels = " ".join(model.class_labels).lower()
        assert "sale" in labels
        assert "exchanger" in labels

    def test_single_sale_maker_class_recovered(self, model):
        # Some class must look like C: ~1 SALE made, nothing else.
        sale_make = FEATURE_NAMES.index("make_SALE")
        for rates in model.mixture.rates:
            others = rates.sum() - rates[sale_make]
            if 0.5 < rates[sale_make] < 3.0 and others < 0.5:
                return
        pytest.fail("no single-SALE-maker class recovered")

    def test_power_taker_class_recovered(self, model):
        # a clear SALE-taker hub class (singles sit near 1/month); the
        # tiny fixture dilutes hub rates, hence the modest threshold
        take_sale = FEATURE_NAMES.index("take_SALE")
        assert model.mixture.rates[:, take_sale].max() > 6

    def test_assignments_for_month(self, model, tiny_dataset):
        month = model.months[10]
        assignment = model.assignment_for(month)
        assert assignment
        assert all(0 <= c < model.k for c in assignment.values())

    def test_assignment_for_unknown_month(self, model):
        from repro.core import Month

        assert model.assignment_for(Month(2025, 1)) == {}

    def test_gauges_say_whether_em_converged(self, tiny_dataset):
        tracer = enable_tracing()
        try:
            capped = fit_latent_classes(tiny_dataset, k=8, seed=3, n_init=1)
            gauges = dict(tracer.gauges)
        finally:
            disable_tracing()
        mixture = capped.mixture
        assert gauges["latent.rows"] == mixture.n_obs
        assert gauges["latent.profiles"] == mixture.n_profiles
        assert gauges["latent.iterations"] == mixture.n_iter
        assert gauges["latent.converged"] == float(mixture.converged)

    def test_selection_mode(self, tiny_dataset):
        selected = fit_latent_classes(
            tiny_dataset, select=True, k_range=(2, 4), seed=0, n_init=1
        )
        assert 2 <= selected.k <= 4
        assert selected.bic_by_k


class TestClassIds:
    def test_letters_then_numbers(self):
        assert [class_id(i) for i in (0, 25, 26, 63)] == ["A", "Z", "C26", "C63"]

    def test_artefacts_share_table6_ids_past_z(self, sim_tiny):
        """table8 and fig12/fig13 name classes 26+ as table6 does.

        The premise needs a fit whose artefacts show a class past Z: on
        sim_tiny, k = 40 shows ten, where k = 30 shows none.
        """
        ctx = ExperimentContext(sim_tiny, latent_k=40)
        ids = {row[0] for row in ctx.latent_model().table6()}
        shown = set()
        for flow in re.findall(r"(\S+) -> (\S+)", run_experiment("table8", ctx).text()):
            shown.update(flow)
        for figure in ("fig12", "fig13"):
            text = run_experiment(figure, ctx).text()
            shown.update(re.findall(r"^  class (\S+) ", text, re.MULTILINE))
        assert shown - set(string.ascii_uppercase), "no class past Z is shown"
        assert shown <= ids


class TestClassActivitySeries:
    def test_made_series_totals(self, model, tiny_dataset):
        series = class_activity_series(tiny_dataset, model, role="made")
        for ctype in (ContractType.EXCHANGE, ContractType.PURCHASE, ContractType.SALE):
            total = sum(
                count
                for by_class in series[ctype].values()
                for count in by_class.values()
            )
            expected = sum(1 for c in tiny_dataset.contracts if c.ctype == ctype)
            assert total == expected

    def test_accepted_series_totals(self, model, tiny_dataset):
        series = class_activity_series(tiny_dataset, model, role="accepted")
        total = sum(
            count
            for by_type in series.values()
            for by_class in by_type.values()
            for count in by_class.values()
        )
        expected = sum(
            1
            for c in tiny_dataset.contracts
            if c.ctype in (ContractType.EXCHANGE, ContractType.PURCHASE, ContractType.SALE)
        )
        assert total == expected

    def test_invalid_role(self, model, tiny_dataset):
        with pytest.raises(ValueError):
            class_activity_series(tiny_dataset, model, role="stolen")

    @pytest.mark.parametrize("types", [
        (ContractType.EXCHANGE, ContractType.PURCHASE, ContractType.SALE),
        (ContractType.SALE, ContractType.EXCHANGE),
    ])
    def test_keys_follow_types_order(self, model, tiny_dataset, types):
        series = class_activity_series(tiny_dataset, model, types=types)
        assert list(series) == list(types)

    def test_fig12_text_independent_of_hash_seed(self):
        """Figure 12's sections must not follow the string hash seed.

        Under hash seeds 0 and 2 a set of the three figure types iterates
        in different orders, so each seed runs in its own interpreter.
        """
        code = (
            "import hashlib\n"
            "from repro import ExperimentContext, run_experiment\n"
            "from repro.synth import MarketSimulator, SimulationConfig\n"
            "result = MarketSimulator(SimulationConfig(scale=0.008, "
            "seed=321)).run()\n"
            "ctx = ExperimentContext(result, latent_k=4)\n"
            "text = run_experiment('fig12', ctx).text()\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        digests = set()
        for hash_seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True,
                text=True, env=env, timeout=240,
            )
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1


class TestTopFlows:
    def test_three_per_type_per_era(self, model, tiny_dataset):
        flows = top_flows(tiny_dataset, model)
        # up to 3 flows x 3 types x 3 eras
        assert len(flows) <= 27
        assert len(flows) >= 9

    def test_shares_bounded(self, model, tiny_dataset):
        for flow in top_flows(tiny_dataset, model):
            assert 0.0 < flow.share_of_type <= 1.0
            assert flow.avg_per_month > 0

    def test_sorted_within_group(self, model, tiny_dataset):
        flows = top_flows(tiny_dataset, model)
        by_group = {}
        for flow in flows:
            by_group.setdefault((flow.era, flow.ctype), []).append(flow.total)
        for totals in by_group.values():
            assert totals == sorted(totals, reverse=True)

    def test_sale_flow_concentrated_in_stable(self, model, tiny_dataset):
        # Paper Table 8: the top STABLE SALE flow covers ~47% of SALEs.
        flows = top_flows(tiny_dataset, model)
        stable_sale = [
            f for f in flows if f.era == "STABLE" and f.ctype == ContractType.SALE
        ]
        assert stable_sale[0].share_of_type > 0.15


class TestEraTransitions:
    def test_one_matrix_per_era(self, model):
        from repro.analysis.latent import era_transition_matrices

        matrices = era_transition_matrices(model)
        assert set(matrices) == {"SET-UP", "STABLE", "COVID-19"}

    def test_rows_stochastic(self, model):
        import numpy as np

        from repro.analysis.latent import era_transition_matrices

        for matrix in era_transition_matrices(model).values():
            assert matrix.shape == (model.k, model.k)
            assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_probabilities_bounded(self, model):
        from repro.analysis.latent import era_transition_matrices

        for matrix in era_transition_matrices(model).values():
            assert (matrix >= 0).all()
            assert (matrix <= 1).all()
