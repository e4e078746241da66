"""Stratified rule inference over telemetry fact bases."""
