"""Layered performance benchmark of the simulator (see DESIGN.md)."""
