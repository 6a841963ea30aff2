"""rgpdOS core: the paper's contribution layer.

Membranes and active data (Idea 1), the data-centric DED execution
model (Idea 2), PD types and views, the Processing Store, built-ins,
subject rights, breach monitoring, semantic purpose matching,
cross-operator transfer, and the crypto substrate for the right to be
forgotten.  ``repro.core.system.RgpdOS`` assembles
all of it; most users should start there (re-exported as
``repro.RgpdOS``).
"""
