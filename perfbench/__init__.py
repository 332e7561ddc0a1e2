"""Serving-simulator benchmark: workloads, runner and outside-in layer tracing."""
