"""repro.ect — UF-CAM-ECT style PCA consistency testing.

Given an accepted ensemble from :mod:`repro.ensemble`, decide whether K
experimental runs (a bug patch, a compiler-flag change such as FMA
contraction, a swapped PRNG) are statistically distinguishable from the
accepted climate.  See :mod:`repro.ect.core` for the two-channel design
(truncated-PCA scores with the paper's failure-count rule, plus bit-exact
first-step invariants for ULP-level effects).  Names are exported lazily:
:class:`EctConfig` (:mod:`repro.ect.config`) imports without numpy.

Quickstart — the ``cldfrc-premib`` patch fails ECT, held-out seeds pass:

>>> from repro.ensemble import generate_ensemble
>>> from repro.ect import UltraFastECT
>>> from repro.model import ModelConfig
>>> from repro.runtime import run_model
>>> ens = generate_ensemble(n=30)
>>> ect = UltraFastECT(ens)                 # fit once
>>> patched = ModelConfig(patches=("cldfrc-premib",))
>>> bad = [run_model(ens.spec.experimental_config(i, model=patched))
...        for i in range(3)]
>>> ect.test(bad).consistent
False
>>> good = [run_model(ens.spec.experimental_config(i)) for i in range(3)]
>>> ect.test(good).consistent
True
"""

from __future__ import annotations

from .._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("EctConfig",),
    ".core": ("EctResult", "UltraFastECT", "ect_test"),
})

__all__ = sorted(_EXPORTS)
