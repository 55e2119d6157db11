"""The repository benchmark: how long a developer waits for ``python -m repro``.

Usage, from the repository root::

    python3 perfbench/run.py --workload run-cold --seed 0 --seconds 20 --trace 0

Every measured command is the real CLI, launched as its own process on the
library defaults: no ``--backend`` flag, and no ``REPRO_*`` variable reaches
the child.  Load is a closed loop: one client, one CLI process at a time.

Workloads, and why each is here:

``run-cold``
    ``python -m repro run <patch> --store <fresh> --json``: one change under
    test, the call a developer makes most often.  The 30-member
    accepted-ensemble pass is most of its time, so it exercises the ensemble
    and runtime layers.
``sweep-cold``
    ``python -m repro sweep --store <fresh> --json``: the ensemble runs once,
    then six analysis tails and 24 scalar experimental and coverage runs, so
    the tail and the scalar runs weigh more here than in ``run-cold``.  Not
    in ``BENCHMARK.json``: one repetition takes 30-60 s on a 2-CPU host,
    which makes the repeated runs of a comparison too long; run it by hand.
``sweep-warm``
    the same sweep against a store an untimed sweep filled during set-up: it
    runs no model and only builds, parses and reads the caches the cold
    workloads write.

The seed changes only CLI arguments: seed 0 runs ``wsubbug`` and the sweep in
its default order; any other seed picks ``run-cold``'s patch from the five
and permutes the sweep order.  A workload repeats on a fresh store (cold) or
the filled store (warm) until ``--seconds`` have passed, and the medians are
reported.  Every CLI invocation is checked for correctness.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` of the workload's CLI process (from ``os.wait4``), and
``setup_s``, the median wall time of fresh ``python -m repro list``
processes.  ``--trace 1`` prints the per-layer metrics instead: one
untraced run, one run under ``traced_cli.py`` (timing wrappers around each
package's entry points), the counters the CLI's ``--json`` reports, store
bytes measured from outside, and the fixed/marginal cost of an ensemble
pass fitted by ``pass_fit.py``.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (CLI invocations and how many failed a check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("run-cold", "sweep-cold", "sweep-warm")
#: the five single-file bug patches ``run-cold`` picks from
PATCHES = ("cldfrc-premib", "goffgratch", "mg-autoconv", "rand-mt", "wsubbug")
DEFAULT_PATCH = "wsubbug"
#: fresh ``repro list`` processes timed per run for ``setup_s``
SETUP_REPEATS = 15
#: ensemble widths timed for the fixed/marginal pass-cost fit
FIT_WIDTHS = (10, 30)
#: the stages of one root-cause pipeline, for ``pipeline.stage.<stage>_s``
STAGES = (
    "control_source", "metagraph", "control_ensemble", "patched_source",
    "experimental_runs", "coverage_run", "ect", "ranked_slice", "selection",
    "refined", "report",
)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}

#: per-layer metric -> unit, in report order
PER_LAYER_UNITS = {
    "ensemble.generate_s": "s",
    "ensemble.members_run": "count",
    "ensemble.pass_fixed_s": "s",
    "ensemble.member_marginal_s": "s",
    "runtime.run_model_s": "s",
    "runtime.run_model_calls": "count",
    "runtime.run_model_batch_s": "s",
    "runtime.statements": "count",
    "vec.batches": "count",
    "kgen.kernel_calls": "count",
    "model.build_s": "s",
    "model.build_calls": "count",
    "fortran.parse_s": "s",
    "graphs.metagraph_s": "s",
    "analysis.quotient_s": "s",
    "analysis.communities_s": "s",
    "analysis.communities_calls": "count",
    "slicing.slice_s": "s",
    "slicing.slice_calls": "count",
    "selection.select_s": "s",
    "selection.solve_s": "s",
    "selection.nodes_explored": "count",
    "refine.refine_s": "s",
    "refine.iterations": "count",
    "ect.test_s": "s",
    "reporting.report_s": "s",
    "member_cache.load_s": "s",
    "member_cache.hits": "count",
    "member_cache.bytes_read": "B",
    "member_cache.store_s": "s",
    "member_cache.misses": "count",
    "member_cache.bytes_written": "B",
    "store.load_s": "s",
    "store.hits": "count",
    "store.bytes_read": "B",
    "store.save_s": "s",
    "store.misses": "count",
    "store.bytes_written": "B",
    "cli.startup_s": "s",
    "pipeline.runs": "count",
    **{f"pipeline.stage.{stage}_s": "s" for stage in STAGES},
    "pipeline.unattributed_s": "s",
    "obs.trace_overhead_frac": "ratio",
}

#: per-layer metric -> counter in the CLI's ``--json`` ``metrics`` block
JSON_COUNTERS = {
    "ensemble.members_run": "ensemble.members_run",
    "runtime.statements": "interpreter.statements",
    "vec.batches": "vec.batches",
    "kgen.kernel_calls": "kgen.kernel_calls",
    "selection.nodes_explored": "selection.nodes_explored",
    "refine.iterations": "refine.iters",
    "member_cache.hits": "member_cache.hits",
    "member_cache.misses": "member_cache.misses",
    "store.hits": "store.hits",
    "store.misses": "store.misses",
}

#: per-layer time metric -> wrapped layer in ``traced_cli.py``
TRACED_SECONDS = {
    "ensemble.generate_s": "ensemble.generate",
    "runtime.run_model_s": "runtime.run_model",
    "runtime.run_model_batch_s": "runtime.run_model_batch",
    "model.build_s": "model.build",
    "fortran.parse_s": "fortran.parse",
    "graphs.metagraph_s": "graphs.metagraph",
    "analysis.quotient_s": "analysis.quotient",
    "analysis.communities_s": "analysis.communities",
    "slicing.slice_s": "slicing.slice",
    "selection.select_s": "selection.select",
    "selection.solve_s": "selection.solve",
    "refine.refine_s": "refine.refine",
    "ect.test_s": "ect.test",
    "reporting.report_s": "reporting.report",
    "member_cache.load_s": "member_cache.load",
    "member_cache.store_s": "member_cache.store",
    "store.load_s": "store.load",
    "store.save_s": "store.save",
}

#: per-layer call-count metric -> wrapped layer
TRACED_CALLS = {
    "runtime.run_model_calls": "runtime.run_model",
    "model.build_calls": "model.build",
    "analysis.communities_calls": "analysis.communities",
    "slicing.slice_calls": "slicing.slice",
}


@dataclass
class Invocation:
    """One finished child process: its outputs and its resource usage."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    """The environment minus every ``REPRO_*`` variable, importing ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path`` (0 when absent)."""
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def median(values) -> float:
    return float(statistics.median(values))


class Client:
    """Launches child processes one at a time and tallies the checks."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._launched = 0

    def launch(self, args: list) -> Invocation:
        """Run ``python <args>`` in the work directory and wait for it."""
        self._launched += 1
        out_path = self.work / f"stdout-{self._launched}.txt"
        err_path = self.work / f"stderr-{self._launched}.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err,
                env=self.env, cwd=self.work,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        stderr = err_path.read_text()
        out_path.unlink()
        err_path.unlink()
        return Invocation(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            stdout=stdout,
            stderr=stderr,
        )

    def check(self, what: str, problems: list) -> bool:
        """Count one checked invocation; remember what was wrong with it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems


# ----------------------------------------------------------------- checks
class Checker:
    """The correctness checks, against the library's own expectations."""

    def __init__(self):
        from repro.model import ModelConfig, build_model_source

        self._source = build_model_source(ModelConfig())
        self._expected: dict = {}

    def expected(self, patch: str) -> list:
        from repro.reporting import expected_culprit_modules

        if patch not in self._expected:
            self._expected[patch] = expected_culprit_modules(self._source, patch)
        return self._expected[patch]

    def report(self, name: str, report: dict) -> list:
        """Problems with one experiment's report (empty when it is right).

        A patch must be detected, localized, contain its culprit and stay
        within the target size.  ``fma`` must only be detected: whether a
        whole-model change counts as localized is left open.
        """
        if report.get("patch"):
            expected = self.expected(report["patch"])
            refined = report.get("refined_modules", [])
            problems = []
            if not report.get("localized"):
                problems.append(f"{name} not localized")
            if not expected or not set(expected) <= set(refined):
                problems.append(f"{name}: culprit {expected} not in {refined}")
            if len(refined) > report.get("target_modules", 0):
                problems.append(f"{name}: {len(refined)} modules > target")
            return problems
        if report.get("fma") and not report.get("detected"):
            return [f"{name} not detected"]
        return []


def parse_documents(inv: Invocation) -> tuple:
    """``({experiment: run document}, failures)`` of a run or sweep."""
    doc = json.loads(inv.stdout)
    if "experiments" in doc:
        return doc["experiments"], list(doc.get("failures", []))
    name = doc["report"]["experiment"]
    return {name: doc}, ([] if doc["report"]["localized"] else [name])


def check_pipeline(inv: Invocation, checker: Checker, names: list) -> tuple:
    """``(documents, problems)`` of a ``run``/``sweep`` invocation."""
    try:
        docs, failures = parse_documents(inv)
    except (ValueError, KeyError, TypeError) as exc:
        tail = inv.stderr.strip().splitlines()[-1:] or [""]
        return {}, [f"exit {inv.code}, unreadable --json ({exc}): {tail[0]}"]
    problems = []
    if sorted(docs) != sorted(names):
        problems.append(f"experiments {sorted(docs)} != {sorted(names)}")
    for name, doc in docs.items():
        problems += checker.report(name, doc["report"])
    # exit 1 means "ran but something did not localize"; only a report the
    # checks do not pin (fma) may be the reason
    pinned = [n for n in failures if docs.get(n, {}).get("report", {}).get("patch")]
    if pinned:
        problems.append(f"not localized: {pinned}")
    if inv.code != (1 if failures else 0):
        problems.append(f"exit {inv.code} with failures {failures}")
    return docs, problems


def check_warm(docs: dict, reference: dict) -> list:
    """A warm sweep re-runs nothing and reproduces the filling sweep."""
    problems = []
    run = sum(d["metrics"].get("ensemble.members_run", 0) for d in docs.values())
    misses = sum(d["metrics"].get("member_cache.misses", 0) for d in docs.values())
    misses += sum(s["member_misses"] for d in docs.values() for s in d["stages"])
    if run or misses:
        problems.append(f"members run {run}, member misses {misses}")
    cold = [f"{n}:{s['name']}" for n, d in docs.items() for s in d["stages"]
            if s["cacheable"] and s["status"] != "hit"]
    if cold:
        problems.append(f"cacheable stages not hit: {cold}")
    changed = [n for n in docs if docs[n]["report"] != reference.get(n, {}).get("report")]
    if changed:
        problems.append(f"reports differ from the filling sweep: {changed}")
    return problems


def check_list(inv: Invocation, names: list) -> list:
    listed = [line.split()[0] for line in inv.stdout.splitlines() if line.strip()]
    problems = [] if inv.code == 0 else [f"exit {inv.code}"]
    if listed != names:
        problems.append(f"listed {listed} != {names}")
    return problems


def stage_sum(docs: dict) -> float:
    return sum(s["wall_s"] for d in docs.values() for s in d["stages"])


def counter_sum(docs: dict, counter: str) -> int:
    return sum(d["metrics"].get(counter, 0) for d in docs.values())


def ensemble_backends(docs: dict) -> list:
    """The backend every ``control_ensemble`` stage reports it used."""
    return sorted({
        str(s["info"].get("backend"))
        for d in docs.values() for s in d["stages"]
        if s["name"] == "control_ensemble"
    })


# --------------------------------------------------------------- workloads
class Workload:
    """One workload's CLI arguments, set-up and per-repetition checks."""

    def __init__(self, name: str, seed: int, client: Client, checker: Checker):
        from repro.experiments import list_experiments

        self.name = name
        self.client = client
        self.checker = checker
        self.warm = name == "sweep-warm"
        rng = random.Random(seed)
        self.experiments = list_experiments()
        if name == "run-cold":
            patch = DEFAULT_PATCH if seed == 0 else rng.choice(PATCHES)
            self.command = ["run", patch]
            self.names = [patch]
        else:
            order = [] if seed == 0 else rng.sample(
                self.experiments, len(self.experiments))
            self.command = ["sweep", *order]
            self.names = self.experiments
        self.reference: dict = {}
        self.backends: set = set()
        self._stores = 0

    def cli_args(self, store: Path, *extra: str) -> list:
        return [*self.command, "--store", str(store), "--json", *extra]

    def store(self) -> Path:
        """A fresh store (cold) or the store the set-up filled (warm)."""
        if self.warm:
            return self.client.work / "warm-store"
        self._stores += 1
        return self.client.work / f"store-{self._stores}"

    def set_up(self) -> None:
        """Fill the warm store with an untimed sweep.

        The fill runs on the vectorized backend only to shorten set-up: the
        stage keys and member artifacts do not depend on the backend, so the
        timed sweep on the default backend finds every entry it needs.
        """
        if not self.warm:
            return
        inv = self.client.launch(
            ["-m", "repro", *self.cli_args(self.store(), "--backend", "vectorized")]
        )
        docs, problems = check_pipeline(inv, self.checker, self.names)
        self.client.check("fill sweep", problems)
        self.reference = docs

    def finish(self, inv: Invocation, what: str) -> dict:
        """Check one workload invocation; its documents."""
        docs, problems = check_pipeline(inv, self.checker, self.names)
        if self.warm and docs:
            problems += check_warm(docs, self.reference)
        self.client.check(what, problems)
        self.backends.update(ensemble_backends(docs))
        return docs

    def run_once(self) -> tuple:
        """One untraced repetition: ``(invocation, documents)``."""
        store = self.store()
        inv = self.client.launch(["-m", "repro", *self.cli_args(store)])
        docs = self.finish(inv, self.name)
        if not self.warm:
            shutil.rmtree(store, ignore_errors=True)
        return inv, docs


def measure_setup(client: Client, names: list) -> float:
    """Median wall time of fresh ``python -m repro list`` processes."""
    walls = []
    for _ in range(SETUP_REPEATS):
        inv = client.launch(["-m", "repro", "list"])
        client.check("list", check_list(inv, names))
        walls.append(inv.wall_s)
    return median(walls)


def end_to_end(workload: Workload, seconds: float) -> dict:
    setup_s = measure_setup(workload.client, workload.experiments)
    workload.set_up()
    reps = []
    deadline = time.perf_counter() + seconds
    while True:
        inv, _ = workload.run_once()
        reps.append(inv)
        if time.perf_counter() >= deadline:
            break
    print(f"{workload.name}: {len(reps)} repetitions of "
          f"python -m repro {' '.join(workload.command)}, wall s "
          + " ".join(f"{r.wall_s:.3f}" for r in reps))
    return {
        "wall_s": median(r.wall_s for r in reps),
        "cpu_s": median(r.cpu_s for r in reps),
        "peak_rss_mb": median(r.peak_rss_mb for r in reps),
        "setup_s": setup_s,
    }


def fit_pass(client: Client) -> dict:
    """Fixed and per-member cost of one ensemble pass, fitted by least squares."""
    out = client.work / "pass-fit.json"
    inv = client.launch([str(HERE / "pass_fit.py"), str(out), *map(str, FIT_WIDTHS)])
    problems = [] if inv.code == 0 else [f"exit {inv.code}: {inv.stderr[-300:]}"]
    passes = json.loads(out.read_text())["passes"] if not problems else []
    for p in passes:
        if p["members"] != p["width"] or not p["finite"]:
            problems.append(f"width {p['width']}: {p}")
    if not client.check("pass fit", problems):
        return {"ensemble.pass_fixed_s": 0.0, "ensemble.member_marginal_s": 0.0}
    xs = [p["width"] for p in passes]
    ys = [p["seconds"] for p in passes]
    slope, intercept = statistics.linear_regression(xs, ys)
    return {"ensemble.pass_fixed_s": intercept,
            "ensemble.member_marginal_s": slope}


def per_layer(workload: Workload) -> dict:
    client = workload.client
    workload.set_up()
    untraced, ref_docs = workload.run_once()

    store = workload.store()
    members_before = dir_bytes(store / "members")
    stages_before = dir_bytes(store / "stages")
    layers_path = client.work / "layers.json"
    traced = client.launch(
        [str(HERE / "traced_cli.py"), str(layers_path), *workload.cli_args(store)]
    )
    docs = workload.finish(traced, f"{workload.name} (traced)")
    layers = {"seconds": {}, "calls": {}, "bytes": {}, "covered_s": 0.0,
              "missing": ["every layer: the traced run wrote no timings"]}
    if layers_path.is_file():
        layers = json.loads(layers_path.read_text())
    for entry in layers["missing"]:
        print(f"  not wrapped: {entry}")
    metrics = {
        "member_cache.bytes_written": dir_bytes(store / "members") - members_before,
        "store.bytes_written": dir_bytes(store / "stages") - stages_before,
    }
    metrics.update(fit_pass(client))
    for metric, layer in TRACED_SECONDS.items():
        metrics[metric] = layers["seconds"].get(layer, 0.0)
    for metric, layer in TRACED_CALLS.items():
        metrics[metric] = layers["calls"].get(layer, 0)
    for metric in ("member_cache.bytes_read", "store.bytes_read"):
        metrics[metric] = layers["bytes"].get(metric, 0)
    for metric, counter in JSON_COUNTERS.items():
        metrics[metric] = counter_sum(docs, counter)
    stage_walls = {stage: 0.0 for stage in STAGES}
    for doc in docs.values():
        for s in doc["stages"]:
            if s["name"] in stage_walls:
                stage_walls[s["name"]] += s["wall_s"]
    for stage, wall in stage_walls.items():
        metrics[f"pipeline.stage.{stage}_s"] = wall
    metrics["pipeline.runs"] = len(docs)
    metrics["pipeline.unattributed_s"] = stage_sum(docs) - layers["covered_s"]
    metrics["cli.startup_s"] = untraced.wall_s - stage_sum(ref_docs)
    metrics["obs.trace_overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
    return metrics


# -------------------------------------------------------------------- main
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and waited for, and
    # the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, untimed, as any earlier use of the checkout would:
    # the first timed process then does not pay for it
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    from repro.obs import runtime_info

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(work)
        workload = Workload(args.workload, args.seed, client, Checker())
        if args.trace:
            values = per_layer(workload)
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(workload, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:>16.6f} {unit}")
    failed_frac = client.failed / client.attempted
    print(f"  {'failed_frac':36s} {failed_frac:>16.6f} "
          f"({client.failed} of {client.attempted} invocations)")
    for problem in client.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "context": {
            "workload": args.workload,
            "seed": args.seed,
            "command": ["python", "-m", "repro", *workload.command],
            "ensemble_backends": sorted(workload.backends),
            "runtime": runtime_info(),
            "nproc": len(os.sched_getaffinity(0)),
        }
    }, sort_keys=True))
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
