"""The repository benchmark: five steady-state workloads (see README.md)."""
