"""Robust "largest feasible η" search shared by the configurators.

Each configuration procedure (Sections 4, 5, 6) reduces to: given a
function ``f`` with ``f(η) → ∞ (exponentially) as η → 0`` and a target
``T_MR^L``, find the largest ``η ≤ η_max`` with ``f(η) ≥ T_MR^L``.

``f`` contains ``⌈·⌉`` terms, so it is only *piecewise* monotone — it
jumps at η values where the number of product terms changes.  The paper
prescribes plain binary search ("this works because, when η decreases,
f(η) increases exponentially fast"); we harden it slightly:

1. work in log space (the products of hundreds of factors under/overflow
   doubles);
2. bracket by repeated halving from ``η_max`` — guaranteed to terminate by
   Theorem 7's part 3 argument;
3. bisect, keeping the invariant feasible(lo) ∧ ¬feasible(hi);
4. *verify* the returned η against the predicate, so a non-monotonicity
   can never produce an infeasible output (it can only cost optimality,
   exactly as in the paper).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.errors import ConfigurationError

__all__ = ["largest_feasible_eta"]


def largest_feasible_eta(
    log_f: Callable[[float], float],
    eta_max: float,
    target: float,
    max_halvings: int = 200,
) -> float:
    """Largest ``η ≤ eta_max`` with ``f(η) ≥ target`` (relative
    precision 1e-10).

    Args:
        log_f: returns ``log f(η)``; may return ``+inf`` (perfect
            accuracy) but must be finite or ``+inf`` for all η in
            ``(0, eta_max]``.
        eta_max: upper limit for η (from Step 1 of each procedure).
        target: the requirement ``T_MR^L`` (in linear space, > 0).
        max_halvings: safety cap on the bracketing phase.

    Raises:
        ConfigurationError: if no feasible η is found after
            ``max_halvings`` halvings (cannot happen for the paper's f's
            unless the caller's eta_max is wrong).
    """
    if eta_max <= 0:
        raise ConfigurationError(f"eta_max must be positive, got {eta_max}")
    if target <= 0:
        raise ConfigurationError(f"target must be positive, got {target}")
    log_target = math.log(target)

    def feasible(eta: float) -> bool:
        return log_f(eta) >= log_target

    if feasible(eta_max):
        return eta_max

    # Bracket: halve until feasible.  f grows exponentially as η shrinks,
    # so this terminates quickly for any realistic requirement.
    hi = eta_max
    lo = eta_max / 2.0
    halvings = 0
    while not feasible(lo):
        hi = lo
        lo /= 2.0
        halvings += 1
        if halvings > max_halvings:
            raise ConfigurationError(
                "could not bracket a feasible eta; requirements may be "
                "astronomically strict or f is not diverging as eta -> 0"
            )

    # Bisect: invariant feasible(lo) and not feasible(hi).
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid

    assert feasible(lo)
    return lo
