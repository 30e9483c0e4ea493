"""PDM action benchmark: three seeded workloads driven through the public
client/server API, with an optional per-layer span trace.

``stack`` builds products and wired stacks, ``workloads`` defines the
three closed-loop workloads and their correctness checks, ``trace``
records spans around the layers' entry points, and ``measure`` runs a
workload and turns its samples into the reported metrics.
"""
