"""Seeded random instance generation, theorem registry, and shrinking."""
