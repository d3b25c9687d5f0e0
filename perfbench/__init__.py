"""The repository benchmark: workloads, tracing probes and load generation."""
