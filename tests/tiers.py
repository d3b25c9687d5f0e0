"""Forcing one §4.6 assignment tier in tests.

:meth:`repro.serve.index.AssignmentIndex.tier` picks the tier on every
call, from the :mod:`repro.native` probe and the index's posting share,
so a test forces one the way the rule allows: ``REPRO_NATIVE=0`` turns
the C tier off, and moving :data:`~repro.serve.index.DENSE_POSTING_SHARE`
to 0 or infinity sends every index to ``dense`` or ``pruned``.  Calls
must run inside the block.
"""

import contextlib
import math

import pytest

import repro.serve.index as index_mod
from repro.native import get_kernels

# the tiers this machine has: native only where the C tier probed clean
INDEX_TIERS = ["dense", "pruned"] + (["native"] if get_kernels() is not None else [])


@contextlib.contextmanager
def forced_tier(tier):
    """Run the block on ``tier``; ``native`` leaves the probe alone."""
    with pytest.MonkeyPatch.context() as mp:
        if tier != "native":
            mp.setenv("REPRO_NATIVE", "0")
            cut = 0.0 if tier == "dense" else math.inf
            mp.setattr(index_mod, "DENSE_POSTING_SHARE", cut)
        yield
