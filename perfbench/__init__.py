"""Benchmark of the SRP planner, simulated day and sharded service."""
