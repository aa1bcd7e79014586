"""Uniformity checks for finite structures and exact order algebra on the line."""
