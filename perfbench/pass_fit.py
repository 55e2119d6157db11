"""Time one accepted-ensemble pass at several widths, for the fixed/marginal fit.

Usage::

    python perfbench/pass_fit.py OUT_JSON WIDTH [WIDTH ...]

Builds and parses the control model once, runs one untimed 2-member pass so
that one-time work (closure compilation, imports) stays out of every timed
pass, then times :func:`repro.generate_ensemble` once per width on the
library's default backend with the member cache off, using the experiments'
own ensemble spec (``nsteps=2``).  Writes ``{"passes": [{"width", "seconds",
"members", "finite"}]}`` to ``OUT_JSON``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import numpy as np


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: pass_fit.py OUT_JSON WIDTH [WIDTH ...]", file=sys.stderr)
        return 2
    out_path, widths = argv[0], [int(w) for w in argv[1:]]
    from repro import build_model_source, generate_ensemble
    from repro.experiments import get_experiment

    spec = get_experiment("wsubbug").ensemble_spec()
    source = build_model_source(spec.model)
    source.parse()
    generate_ensemble(dataclasses.replace(spec, n_members=2), source=source)
    passes = []
    for width in widths:
        started = time.perf_counter()
        ensemble = generate_ensemble(
            dataclasses.replace(spec, n_members=width), source=source
        )
        seconds = time.perf_counter() - started
        passes.append({
            "width": width,
            "seconds": seconds,
            "members": ensemble.n_members,
            "finite": bool(np.isfinite(ensemble.matrix).all()),
        })
    with open(out_path, "w") as handle:
        json.dump({"passes": passes}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
