"""Cyclone-path analysis domain library.

Pressure-grid parsing, minimum detection, tracking, parametrization, the
Baltic sea-level surrogate, and a ground-truthed synthetic data generator
with its seeded random stream, plus the plugin wiring that registers all
of it with a knowledge registry.

Import names from their submodules. This package module imports nothing,
so the external BSM command (``dslake.cyclone.bsm_cmd``) starts without
numpy or the rest of the library.
"""
