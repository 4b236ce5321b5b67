"""trustlens: predict whether a transaction with an unknown counterparty is
risky, from the assessor's own history, with a knowledge-sharing overlay for
inexperienced agents and a synthetic experiment harness."""

from .core import (
    Outcome,
    Prediction,
    Transaction,
    TransactionLog,
    filter_by_context,
    read_log_csv,
    write_log_csv,
)
from .engine import Assessment, assess, record_outcome

__version__ = "0.1.0"

__all__ = [
    "Assessment",
    "Outcome",
    "Prediction",
    "Transaction",
    "TransactionLog",
    "assess",
    "filter_by_context",
    "read_log_csv",
    "record_outcome",
    "write_log_csv",
    "__version__",
]
