"""Pinned algorithmic seeds shared by both simulation engines.

A leaf module (no ``repro`` imports), so the reference engine and the
fast engine import the same constant without an import cycle.
"""

#: Seed of the probabilistic-insertion coin flips.  A fixed algorithmic
#: constant, independent of the experiment seed: both engines draw the
#: same insertion stream in the same per-candidate order.
INSERT_SEED = 0xC0FFEE
