"""Paper analyses: one module per section of the evaluation.

Every name below loads its submodule on first access
(:mod:`repro._exports`).
"""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

__all__ = [
    "DisputeSummary",
    "dispute_rate_by_era",
    "dispute_rate_by_month",
    "dispute_summary",
    "disputed_goods",
    "disputes_per_user",
    "EraProfile",
    "StimulusResult",
    "composition_distance",
    "era_profile",
    "era_profiles",
    "stimulus_test",
    "EVOLUTION_EXCLUDED",
    "ActivityRow",
    "ActivityTable",
    "product_evolution",
    "top_trading_activities",
    "KEY_PERCENT",
    "ConcentrationCurves",
    "KeySharePoint",
    "concentration_curves",
    "key_share_by_month",
    "CLUSTER_VARIABLES",
    "ColdStartClustering",
    "ColdStartSummary",
    "EraZip",
    "UserEraRecord",
    "cluster_cold_starters",
    "cold_start_records",
    "cold_start_summary",
    "cold_starters",
    "zip_all_users",
    "zip_subsamples",
    "ContractFunnel",
    "FunnelStage",
    "contract_funnel",
    "funnel_by_era",
    "FEATURE_NAMES",
    "FlowRow",
    "LatentClassModel",
    "class_activity_series",
    "era_transition_matrices",
    "fit_latent_classes",
    "top_flows",
    "user_month_profiles",
    "ParticipationStats",
    "maker_taker_report",
    "participation_stats",
    "GrowthPoint",
    "completion_month",
    "completion_times",
    "monthly_growth",
    "type_proportions",
    "visibility_share",
    "PaymentRow",
    "PaymentTable",
    "payment_evolution",
    "payment_related_contracts",
    "top_payment_methods",
    "ReputationPremium",
    "cohort_reputation_trajectories",
    "reputation_concentration_by_month",
    "reputation_premium_by_era",
    "ThreadStats",
    "contracts_per_thread",
    "posting_members_by_month",
    "posts_per_thread",
    "thread_stats",
    "STATUS_ORDER",
    "TYPE_ORDER",
    "TaxonomyTable",
    "VisibilityTable",
    "contract_taxonomy",
    "visibility_table",
    "TYPO_CUTOFF_USD",
    "ValuedContract",
    "ValueReport",
    "estimate_dataset_values",
    "total_values",
    "value_evolution",
    "value_tables",
]

if TYPE_CHECKING:
    from .activities import (
        EVOLUTION_EXCLUDED,
        ActivityRow,
        ActivityTable,
        product_evolution,
        top_trading_activities,
    )
    from .centralisation import (
        KEY_PERCENT,
        ConcentrationCurves,
        KeySharePoint,
        concentration_curves,
        key_share_by_month,
    )
    from .coldstart import (
        CLUSTER_VARIABLES,
        ColdStartClustering,
        ColdStartSummary,
        EraZip,
        UserEraRecord,
        cluster_cold_starters,
        cold_start_records,
        cold_start_summary,
        cold_starters,
        zip_all_users,
        zip_subsamples,
    )
    from .disputes import (
        DisputeSummary,
        dispute_rate_by_era,
        dispute_rate_by_month,
        dispute_summary,
        disputed_goods,
        disputes_per_user,
    )
    from .eras_summary import (
        EraProfile,
        StimulusResult,
        composition_distance,
        era_profile,
        era_profiles,
        stimulus_test,
    )
    from .funnel import (
        ContractFunnel,
        FunnelStage,
        contract_funnel,
        funnel_by_era,
    )
    from .latent import (
        FEATURE_NAMES,
        FlowRow,
        LatentClassModel,
        class_activity_series,
        era_transition_matrices,
        fit_latent_classes,
        top_flows,
        user_month_profiles,
    )
    from .makers_takers import (
        ParticipationStats,
        maker_taker_report,
        participation_stats,
    )
    from .monthly import (
        GrowthPoint,
        completion_month,
        completion_times,
        monthly_growth,
        type_proportions,
        visibility_share,
    )
    from .payments import (
        PaymentRow,
        PaymentTable,
        payment_evolution,
        payment_related_contracts,
        top_payment_methods,
    )
    from .threads import (
        ThreadStats,
        contracts_per_thread,
        posting_members_by_month,
        posts_per_thread,
        thread_stats,
    )
    from .reputation import (
        ReputationPremium,
        cohort_reputation_trajectories,
        reputation_concentration_by_month,
        reputation_premium_by_era,
    )
    from .taxonomy import (
        STATUS_ORDER,
        TYPE_ORDER,
        TaxonomyTable,
        VisibilityTable,
        contract_taxonomy,
        visibility_table,
    )
    from .values import (
        TYPO_CUTOFF_USD,
        ValuedContract,
        ValueReport,
        estimate_dataset_values,
        total_values,
        value_evolution,
        value_tables,
    )
else:
    __getattr__, __dir__ = lazy_exports(globals(), {
        "activities": (
            "EVOLUTION_EXCLUDED", "ActivityRow", "ActivityTable",
            "product_evolution", "top_trading_activities",
        ),
        "centralisation": (
            "KEY_PERCENT", "ConcentrationCurves", "KeySharePoint",
            "concentration_curves", "key_share_by_month",
        ),
        "coldstart": (
            "CLUSTER_VARIABLES", "ColdStartClustering", "ColdStartSummary",
            "EraZip", "UserEraRecord", "cluster_cold_starters",
            "cold_start_records", "cold_start_summary", "cold_starters",
            "zip_all_users", "zip_subsamples",
        ),
        "disputes": (
            "DisputeSummary", "dispute_rate_by_era", "dispute_rate_by_month",
            "dispute_summary", "disputed_goods", "disputes_per_user",
        ),
        "eras_summary": (
            "EraProfile", "StimulusResult", "composition_distance",
            "era_profile", "era_profiles", "stimulus_test",
        ),
        "funnel": (
            "ContractFunnel", "FunnelStage", "contract_funnel",
            "funnel_by_era",
        ),
        "latent": (
            "FEATURE_NAMES", "FlowRow", "LatentClassModel",
            "class_activity_series", "era_transition_matrices",
            "fit_latent_classes", "top_flows", "user_month_profiles",
        ),
        "makers_takers": (
            "ParticipationStats", "maker_taker_report", "participation_stats",
        ),
        "monthly": (
            "GrowthPoint", "completion_month", "completion_times",
            "monthly_growth", "type_proportions", "visibility_share",
        ),
        "payments": (
            "PaymentRow", "PaymentTable", "payment_evolution",
            "payment_related_contracts", "top_payment_methods",
        ),
        "threads": (
            "ThreadStats", "contracts_per_thread", "posting_members_by_month",
            "posts_per_thread", "thread_stats",
        ),
        "reputation": (
            "ReputationPremium", "cohort_reputation_trajectories",
            "reputation_concentration_by_month", "reputation_premium_by_era",
        ),
        "taxonomy": (
            "STATUS_ORDER", "TYPE_ORDER", "TaxonomyTable", "VisibilityTable",
            "contract_taxonomy", "visibility_table",
        ),
        "values": (
            "TYPO_CUTOFF_USD", "ValuedContract", "ValueReport",
            "estimate_dataset_values", "total_values", "value_evolution",
            "value_tables",
        ),
    })
