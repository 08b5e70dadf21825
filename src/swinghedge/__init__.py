"""Exact pricing, hedging, and shortfall risk of multi-right cancellable
options on a binomial tree."""

from .contract import SwingContract, build_contract, load_contract
from .errors import ContractError, EnumerationCapError, InvariantError
from .hedge import build_perfect_hedge, verify_perfect_hedge
from .market import MarketParams, ScenarioTree
from .pwl import PwlFn
from .shortfall import (
    build_risk_stack,
    evaluate_policy_risk,
    evaluate_risk,
    optimal_hedge,
    shortfall_risk,
)
from .swing import optimal_strategies, price_swing
