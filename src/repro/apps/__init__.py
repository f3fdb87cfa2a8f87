"""The paper's four use cases (Table 1 / Section 8.3), implemented on
the Mantis stack, plus the baselines they are compared against.

- :mod:`repro.apps.sketch` -- flow-size estimators: the Mantis
  sampling estimator and the sFlow / hash-table / count-min-sketch
  baselines of Figure 14.
- :mod:`repro.apps.dos` -- use case #1: flow-size estimation and DoS
  mitigation (Poseidon-style per-sender rate limiting).
- :mod:`repro.apps.failover` -- use case #2: gray-failure detection
  and route recomputation.
- :mod:`repro.apps.ecmp` -- use case #3: hash-polarization mitigation
  via runtime reconfiguration of the ECMP hash inputs (MAD-driven).
- :mod:`repro.apps.rl` -- use case #4: reinforcement learning
  (epsilon-greedy Q-learning) tuning of the DCTCP ECN marking threshold.
- :mod:`repro.apps.linkguard` -- use case #6: LinkGuardian-style
  lossy-link detection (sequence-gap probe counters) and protection
  (reroute to the parallel link / disable the lossy port).

The package re-exports nothing: import the use case you run, so numpy
loads only with the modules that need it (``sketch`` and ``rl``).
"""
