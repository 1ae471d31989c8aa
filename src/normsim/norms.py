"""Protocol primitives: the social rule and the reputation scheme.

A community protocol is a pair (social rule, reputation scheme) parameterized
by a social threshold ``h`` that splits reputations into "bad" (below ``h``)
and "good" (at or above ``h``).  A ``SocialNorm`` is the one source of the
model: its ``params`` (the report error rate epsilon among them) and ``h``
define every user's control problem, so no solver takes an override and a
cache of answers is keyed by the norm.  It also owns the protocol's rule: it
builds read-only tables of the prescribed thresholds and contributions, the
reputation after a matching report, and the threshold actions' service and
mismatch, once, and every engine reads them from there.  A strategy is a
service threshold, a plain integer in 0..L+1 (serve the clients whose
reputation is at least the threshold), and a census is its L+1 counts;
``payoff.model_arrays`` checks censuses, not this module.  Everything in
this module is an immutable value object or a pure function and can be
shared freely across workers.  The rule written out one entry at a time, an
independent reference for the tables, lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# SocialNorm refuses an L whose mismatch table has more entries (L <= 214)
MAX_TABLE_ENTRIES = 10**7


class ConfigError(ValueError):
    """Raised for invalid protocol parameters or malformed config documents."""


def config_number(value, name: str, kind=float):
    """Convert a config value with ``kind``; booleans, strings (a quoted
    number too) and malformed, non-finite or (for ``int``) fractional values
    raise ConfigError."""
    message = f"{name} must be a finite {kind.__name__}, got {value!r}"
    if isinstance(value, (bool, str)):
        raise ConfigError(message)
    try:
        number = kind(value)
        finite = math.isfinite(number)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(message) from exc
    if not finite or (isinstance(value, float) and value != number):
        raise ConfigError(message)
    return number


@dataclass(frozen=True)
class CommunityParams:
    """Exogenous community characteristics.

    N       population size (>= 2)
    L       highest reputation (>= 1); reputations live in {0, ..., L}
    b       per-service benefit to the client (> c)
    c       per-service cost to the server (> 0)
    delta   discount factor in [0, 1)
    epsilon probability that a client's report is flipped, in [0, 0.5)
    gamma   per-period probability that a user recomputes its best response
    """

    N: int
    L: int
    b: float
    c: float
    delta: float
    epsilon: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.N < 2:
            raise ConfigError(f"N must be >= 2, got {self.N}")
        if self.L < 1:
            raise ConfigError(f"L must be >= 1, got {self.L}")
        if not self.c > 0:
            raise ConfigError(f"c must be > 0, got {self.c}")
        if not self.c < self.b < math.inf:
            raise ConfigError(
                f"b must be finite and exceed c, got b={self.b}, c={self.c}"
            )
        if not 0.0 <= self.delta < 1.0:
            raise ConfigError(f"delta must be in [0, 1), got {self.delta}")
        if not 0.0 <= self.epsilon < 0.5:
            raise ConfigError(f"epsilon must be in [0, 0.5), got {self.epsilon}")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")


@dataclass(frozen=True)
class SocialNorm:
    """A social rule plus reputation scheme with social threshold ``h``.

    h = 0 and h = L + 1 are rejected: a rule that treats every reputation
    identically cannot provide differential service and is unenforceable
    among self-interested users.  So is an L whose mismatch table would
    exceed ``MAX_TABLE_ENTRIES``, before any table is built.

    The rule's read-only tables, built once from ``params`` and ``h`` (they
    take no part in equality, hashing or ``dataclasses.replace``):

    compliant  (L+1,) int64: the threshold prescribed at each reputation,
               0 below h and h at or above
    up         (L+1,) int64: the reputation after a matching report, one step
               up and capped at L (a mismatch resets to 0)
    serve      (L+2, L+1) float: serve[a, client] = 1.0 where threshold
               action a serves a client of that reputation
    phi        (L+1, L+1) float: the prescribed contribution
               phi[server, client], the compliant threshold's service
    mismatch   (L+1, L+2, L+1) float: ``mismatch_of(serve)``
    """

    params: CommunityParams
    h: int
    compliant: np.ndarray = field(init=False, compare=False, repr=False)
    up: np.ndarray = field(init=False, compare=False, repr=False)
    serve: np.ndarray = field(init=False, compare=False, repr=False)
    phi: np.ndarray = field(init=False, compare=False, repr=False)
    mismatch: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        L, h = self.params.L, self.h
        if not 1 <= h <= L:
            raise ConfigError(f"h must be in [1, L={L}], got {h}")
        if (L + 1) * (L + 2) * (L + 1) > MAX_TABLE_ENTRIES:
            raise ConfigError(
                f"L={L}: mismatch table entries over the limit {MAX_TABLE_ENTRIES}")
        rep = np.arange(L + 1)

        def own(name, table):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

        own("compliant", np.where(rep < h, 0, h))
        own("up", np.minimum(rep + 1, L))
        own("serve", (rep >= np.arange(L + 2)[:, None]).astype(float))
        own("phi", self.serve[self.compliant])
        own("mismatch", self.mismatch_of(self.serve))

    def mismatch_of(self, serve: np.ndarray) -> np.ndarray:
        """mism[theta, a, r] = 1.0 where action a (row a of the (A, L+1)
        ``serve``) deviates from the rule for a server of reputation theta
        and a client of reputation r."""
        return (serve[None, :, :] != self.phi[:, None, :]).astype(float)

    @property
    def L(self) -> int:
        return self.params.L


_CONFIG_KEYS = ("N", "L", "b", "c", "delta", "epsilon", "gamma", "h")


def norm_from_dict(doc: dict) -> SocialNorm:
    """Build a SocialNorm from a plain config mapping: N, L, b, c, delta and
    h are required, epsilon and gamma optional; unknown keys and malformed
    values raise ConfigError."""
    unknown = set(doc) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {"N", "L", "b", "c", "delta", "h"} - set(doc)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    params = CommunityParams(
        N=config_number(doc["N"], "N", int),
        L=config_number(doc["L"], "L", int),
        b=config_number(doc["b"], "b"),
        c=config_number(doc["c"], "c"),
        delta=config_number(doc["delta"], "delta"),
        epsilon=config_number(doc.get("epsilon", 0.0), "epsilon"),
        gamma=config_number(doc.get("gamma", 1.0), "gamma"),
    )
    return SocialNorm(params=params, h=config_number(doc["h"], "h", int))


def load_document(path: str | Path, what: str) -> dict:
    """The JSON object in the file at ``path``, which ``what`` names in
    errors.  Malformed JSON, an integer literal of more digits than Python
    converts (``sys.get_int_max_str_digits()``), nesting deeper than the
    parser recurses and a document that is not an object raise
    ConfigError."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    # a JSONDecodeError, the digit limit's plain ValueError, or the nesting's
    # RecursionError: each raised by the parse alone
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return doc


def load_norm(path: str | Path) -> SocialNorm:
    """Load a SocialNorm from a JSON document on disk."""
    return norm_from_dict(load_document(path, "config document"))
