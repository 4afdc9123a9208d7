"""Hummingbird: fast, flexible, and fair inter-domain bandwidth reservations.

A from-scratch Python reproduction of the SIGCOMM 2025 paper, comprising:

* :mod:`repro.hummingbird` — the flyover-reservation data plane (the
  paper's primary contribution);
* :mod:`repro.scion` — the SCION substrate (addressing, beaconing, path
  construction, baseline border router);
* :mod:`repro.ledger` / :mod:`repro.contracts` /
  :mod:`repro.controlplane` — the asset-based smart-contract control plane
  on a Sui-like object ledger;
* :mod:`repro.crypto` / :mod:`repro.wire` — cryptographic and wire-format
  substrates, implemented from scratch except the AES block cipher, which
  is the interpreter's own OpenSSL;
* :mod:`repro.netsim` — a discrete-event network simulator for the QoS
  experiments;
* :mod:`repro.perfmodel` — the paper's published timings and
  microbenchmarks of our data plane, which ``tools/paper_scoreboard.py``
  turns into ``docs/reproduction.md``: the paper's evaluation beside ours,
  every table and figure but the multi-core line-rate curves of Figs. 5
  and 15;
* :mod:`repro.analysis` — plain-text tables and plots for reports.

Quickstart: see ``examples/quickstart.py`` for the complete walkthrough
from market deployment to priority forwarding.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
