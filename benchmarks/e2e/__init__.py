"""Whole-lifecycle benchmark: buy a reservation, then forward packets over it."""
