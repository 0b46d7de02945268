"""Block coordinate descent solvers for composite quadratic and smooth
convex problems, with evaluators for their theoretical complexity
envelopes and per-cycle verification of the descent and cost-to-go
guarantees."""

__version__ = "0.1.0"
