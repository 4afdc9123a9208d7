"""Validator-committee latency model (substitutes the Sui testnet of §6.1).

The paper measures end-to-end control-plane latency against the globally
replicated Sui testnet.  Offline, we generate latencies mechanistically
from a simulated committee of validators spread over geographic regions:

* **fast path** (owned-object transactions, Byzantine consistent
  broadcast): the client sends the transaction to all validators and waits
  for signatures from a stake quorum of n - f (2f+1 when n = 3f+1) — one
  round trip to the quorum-th fastest validator — then broadcasts the
  resulting certificate and waits for a quorum of execution
  acknowledgements: a second quorum round trip.
* **consensus path** (transactions touching shared objects, e.g. the
  marketplace): the certificate must additionally be sequenced: it waits
  for inclusion in a leader proposal (uniform wait up to the commit
  interval) plus a fixed number of DAG commit rounds, each a quorum round
  trip among validators, plus checkpoint execution.

Round-trip times are sampled per validator from region-dependent lognormal
distributions, so quorum latencies emerge from order statistics rather than
from a hand-drawn curve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (region, one-way ms mean) — client assumed in Europe, like the testbed.
_REGIONS = [
    ("eu-west", 15.0),
    ("eu-central", 25.0),
    ("us-east", 55.0),
    ("us-west", 85.0),
    ("asia-east", 120.0),
    ("asia-south", 140.0),
]

# Consensus path: a certificate waits up to one commit interval for a leader
# proposal, then COMMIT_ROUNDS DAG rounds, then checkpoint execution.
COMMIT_INTERVAL = 0.9  # seconds
COMMIT_ROUNDS = 3
EXECUTION_OVERHEAD = 0.35  # seconds, scaled by U(0.5, 1)
# How long after a transaction lands an AS's checkpoint poll observes it.
OBSERVATION_DELAY = (0.05, 0.30)  # seconds, uniform
NUM_VALIDATORS = 100
# n - f with f = floor((n - 1) / 3) Byzantine: any two quorums share f + 1
# validators, at least one of them honest.
QUORUM = NUM_VALIDATORS - (NUM_VALIDATORS - 1) // 3


@dataclass(frozen=True)
class Validator:
    name: str
    region: str
    one_way_ms: float  # mean client -> validator one-way delay


class Committee:
    """A stake-equal validator committee with a quorum latency model."""

    def __init__(self, rng: random.Random) -> None:
        """``rng`` is the simulated-latency stream: every draw of the model
        comes from it, and nothing else draws from it."""
        self.rng = rng
        self.validators = [
            Validator(
                name=f"v{i}",
                region=_REGIONS[i % len(_REGIONS)][0],
                one_way_ms=_REGIONS[i % len(_REGIONS)][1],
            )
            for i in range(NUM_VALIDATORS)
        ]

    # -- latency sampling -------------------------------------------------------

    def _sample_rtts(self) -> list[float]:
        """Client->validator round-trip seconds, one sample per validator."""
        rtts = []
        for validator in self.validators:
            mean_rtt = 2 * validator.one_way_ms / 1000.0
            jitter = self.rng.lognormvariate(0.0, 0.25)
            rtts.append(mean_rtt * jitter + 0.002)
        return rtts

    def _quorum_rtt(self) -> float:
        """Round-trip time to the quorum-th fastest validator."""
        rtts = sorted(self._sample_rtts())
        return rtts[QUORUM - 1]

    def fast_path_latency(self) -> float:
        """Owned-object certificate: sign quorum + execute quorum."""
        sign = self._quorum_rtt()
        execute = self._quorum_rtt()
        processing = self.rng.uniform(0.01, 0.05)
        return sign + execute + processing

    def consensus_latency(self) -> float:
        """Shared-object transaction: fast-path cert + sequencing + commit."""
        certify = self._quorum_rtt()
        inclusion_wait = self.rng.uniform(0.0, COMMIT_INTERVAL)
        rounds = sum(self._validator_round() for _ in range(COMMIT_ROUNDS))
        execution = self.rng.uniform(0.5, 1.0) * EXECUTION_OVERHEAD
        return certify + inclusion_wait + rounds + execution

    def observation_delay(self) -> float:
        """Checkpoint polling: until an AS observes a landed transaction."""
        return self.rng.uniform(*OBSERVATION_DELAY)

    def _validator_round(self) -> float:
        """One DAG round: quorum round trip among the validators themselves."""
        # Inter-validator RTTs resemble client RTTs (global spread).
        rtts = sorted(self._sample_rtts())
        return rtts[QUORUM - 1]
