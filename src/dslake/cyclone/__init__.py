"""Cyclone-path analysis domain library.

Pressure-grid parsing, minimum detection, tracking, parametrization, the
Baltic sea-level surrogate, and a ground-truthed synthetic data generator
with its seeded random stream, plus the plugin wiring that registers all
of it with a knowledge registry.

Import names from their submodules. This package module imports nothing,
so the external BSM command (``dslake.cyclone.bsm_cmd``) starts without
numpy or the rest of the library. numpy is imported only inside the
functions that compute with grids (in ``grid``, ``detect``, ``geo`` and
``params``) and by ``synthetic``, so registering the library, and a submit
that finds every record and pressure structure in the store's indexes,
import none of it.
"""
