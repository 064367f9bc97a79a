"""Core entity model, era calendar and dataset container.

Every name below loads its submodule on first access
(:mod:`repro._exports`).
"""

from typing import TYPE_CHECKING

from .._exports import lazy_exports

__all__ = [
    "BIDIRECTIONAL_TYPES",
    "ECONOMIC_TYPES",
    "TERMINAL_STATUSES",
    "Contract",
    "ContractStatus",
    "ContractType",
    "Post",
    "Rating",
    "Thread",
    "User",
    "Visibility",
    "COVID19",
    "DATA_END",
    "DATA_START",
    "ERAS",
    "SETUP",
    "STABLE",
    "Era",
    "all_months",
    "era_by_name",
    "era_of",
    "MarketDataset",
    "ColumnBackedDataset",
    "UserActivity",
    "load_dataset",
    "save_dataset",
    "CSV_FILES",
    "export_csv",
    "ValidationIssue",
    "assert_valid",
    "validate_dataset",
    "Month",
    "add_months",
    "month_of",
    "month_range",
    "months_between",
]

if TYPE_CHECKING:
    from .entities import (
        BIDIRECTIONAL_TYPES,
        ECONOMIC_TYPES,
        TERMINAL_STATUSES,
        Contract,
        ContractStatus,
        ContractType,
        Post,
        Rating,
        Thread,
        User,
        Visibility,
    )
    from .eras import (
        COVID19,
        DATA_END,
        DATA_START,
        ERAS,
        SETUP,
        STABLE,
        Era,
        all_months,
        era_by_name,
        era_of,
    )
    from .dataset import MarketDataset, UserActivity
    from .lazy import ColumnBackedDataset
    from .csv_export import CSV_FILES, export_csv
    from .io import load_dataset, save_dataset
    from .validate import ValidationIssue, assert_valid, validate_dataset
    from .timeutils import Month, add_months, month_of, month_range, months_between
else:
    __getattr__, __dir__ = lazy_exports(globals(), {
        "entities": (
            "BIDIRECTIONAL_TYPES", "ECONOMIC_TYPES", "TERMINAL_STATUSES",
            "Contract", "ContractStatus", "ContractType", "Post", "Rating",
            "Thread", "User", "Visibility",
        ),
        "eras": (
            "COVID19", "DATA_END", "DATA_START", "ERAS", "SETUP", "STABLE",
            "Era", "all_months", "era_by_name", "era_of",
        ),
        "dataset": ("MarketDataset", "UserActivity"),
        "lazy": ("ColumnBackedDataset",),
        "csv_export": ("CSV_FILES", "export_csv"),
        "io": ("load_dataset", "save_dataset"),
        "validate": ("ValidationIssue", "assert_valid", "validate_dataset"),
        "timeutils": (
            "Month", "add_months", "month_of", "month_range", "months_between",
        ),
    })
