"""Transaction subsystem: strict 2PL over the composite locking protocol,
abort by replaying the database's undo stream."""

from .checkout import Checkout, CheckoutManager
from .manager import TransactionManager
from .transaction import Transaction, TxnState

__all__ = [
    "Checkout",
    "CheckoutManager",
    "Transaction",
    "TransactionManager",
    "TxnState",
]
