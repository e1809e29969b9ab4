"""Benchmark harness for dirichlet-bandits.

    python3 bench/run.py --workload {two_armed,index,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The harness writes the workload's seeded configs under
``bench/out/``, then runs passes over the workload's operations (one
caller, closed loop, one CLI subprocess at a time) for about ``--seconds``
seconds, checking every output and probing set-up in fresh interpreters
between operations.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs an
untraced pass, a pass with every public function of the package wrapped,
and another untraced pass, and reports per-layer metrics and the tracing
overhead; the spans are written to ``bench/out/trace-<workload>.npz``.  Provenance and per-pass
timings go to ``bench/out/BENCH_<workload>-<seed>-trace<t>.json`` and to a
``provenance`` line on stdout.  The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from checks import SUITES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up probes per ``--seconds`` of run, spread over the passes.
SETUP_PROBES = 16
#: Subprocess limit for one set-up probe.
PROBE_TIMEOUT_S = 60
#: The reference for work done in subprocesses: a fresh interpreter that
#: imports a fixed set of standard-library modules, C extensions among them.
CHILD_REFERENCE = [sys.executable, "-I", "-c",
                   "import argparse, dataclasses, decimal, fractions, hashlib, json, random, statistics"]
#: Seconds CHILD_REFERENCE takes at the speed subprocess times are reported
#: at: its median on the 2-vCPU guest described in README.md.
NOMINAL_CHILD_REFERENCE_S = 0.075


def _die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "dirichlet_bandits" / "__init__.py").is_file():
        _die(f"no program source at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import dirichlet_bandits as db
    import dirichlet_bandits.cli  # noqa: F401  (binds db.cli)

    if Path(db.__file__).resolve().parent != SRC / "dirichlet_bandits":
        _die(f"imported {db.__file__}, not the checkout's source")
    return db


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # Linux reports KiB


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


class SetupProbe:
    """Import and config-load time of fresh interpreters, probed between
    operations every ``interval`` seconds over the whole run.

    Each probe is divided by the reference interpreter timed around it, and
    the median ratio is reported in seconds at the reference interpreter's
    nominal speed.  One unrecorded probe first compiles bytecode, which a
    user pays once."""

    def __init__(self, configs, interval: float):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, configs)]
        self.interval = interval
        self.samples: list[dict] = []
        self.ratios: list[dict] = []
        self._probe()
        self.last = float("-inf")

    def _probe(self) -> dict:
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _die("set-up probe failed")
        self.last = perf_counter()
        return json.loads(proc.stdout.splitlines()[-1])

    def maybe(self) -> bool:
        """Probe if one is due; return whether it ran."""
        if perf_counter() - self.last < self.interval:
            return False
        before = child_reference_s()
        s = self._probe()
        after = child_reference_s()
        s["setup_s"] = s["import_s"] + s["load_s"]
        self.samples.append(s)
        self.ratios.append({k: 2 * v / (before + after) for k, v in s.items()})
        return True

    def seconds(self, key: str) -> float:
        return statistics.median(r[key] for r in self.ratios) * NOMINAL_CHILD_REFERENCE_S


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Pass:
    def __init__(self):
        #: Per operation: seconds of each execution, and the same divided by
        #: the reference's time around it (see ``run_pass``).
        self.samples: dict[str, list[float]] = {}
        self.ratios: dict[str, list[float]] = {}
        self.kinds: dict[str, str] = {}
        self.references: list[float] = []
        self.child_references: list[float] = []
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        #: Peak RSS before the first operation and after each one.
        self.maxrss: list[int] = []
        self.elapsed = 0.0


def reference_s() -> float:
    """Seconds for a fixed pure-Python loop -- tuple keys into a small dict
    and float arithmetic, the kind of interpreter work the program does --
    on the harness's CPU at this moment."""
    t0 = perf_counter()
    d = {}
    for it in range(120):
        for i in range(20):
            for j in range(20):
                d[(i, j)] = d.get((i, j - 1), 0.5) * 0.999 + it
    return perf_counter() - t0


def child_reference_s() -> float:
    """Seconds for the reference interpreter to start, import and exit: the
    host's speed at process start-up, loading and importing, which it
    slows differently from the reference loop's interpreter work."""
    t0 = perf_counter()
    subprocess.run(CHILD_REFERENCE, check=True, capture_output=True, timeout=PROBE_TIMEOUT_S)
    return perf_counter() - t0


def _run_op(op, results, p: Pass, tracer) -> float:
    """Time one execution of ``op`` (traced if a tracer is given), check its
    output outside the timed interval, and return the time."""
    p.attempted += 1
    p.kinds[op.name] = op.kind
    if tracer is not None:
        tracer.active = True
    t0 = perf_counter()
    try:
        out = op.run(results)
    except Exception:  # a raising operation is a failed operation
        p.failures.append((op.name, traceback.format_exc()))
        return perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.active = False
    dt = perf_counter() - t0
    results[op.name] = out
    try:
        op.check(out, results)
    except Exception:  # CheckFailed, or a malformed output the check tripped on
        p.failures.append((op.name, traceback.format_exc()))
    return dt


def run_pass(workload, probe: SetupProbe, tracer=None) -> Pass:
    """One pass over the workload's operations, in list order, with the
    reference loop timed before the first operation and after each one, the
    reference interpreter timed around each CLI operation, and set-up
    probed between operations when due.  A sample's ratio is to the mean of
    the reference times around it: the interpreter's for CLI operations,
    the loop's for the rest."""
    p = Pass()
    results = {}
    start = perf_counter()
    before = reference_s()
    p.maxrss.append(_maxrss_bytes())
    for op in workload.ops:
        cli = op.kind == "cli"
        child = [child_reference_s()] if cli else []
        dt = _run_op(op, results, p, tracer)
        p.maxrss.append(_maxrss_bytes())
        if cli:
            child.append(child_reference_s())
            p.child_references.extend(child)
        after = reference_s()
        ref = statistics.mean(child or (before, after))
        p.samples.setdefault(op.name, []).append(dt)
        p.ratios.setdefault(op.name, []).append(dt / ref)
        p.references.append(before)
        if probe.maybe():
            after = reference_s()
        before = after
    p.references.append(before)
    p.elapsed = perf_counter() - start
    for name, tb in p.failures:
        print(f"bench: operation {name} failed:\n{tb}", file=sys.stderr)
    return p


def timed_passes(workload, probe: SetupProbe, seconds: float) -> list[Pass]:
    """Passes until the next one would end after ``seconds``; at least one."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, probe))
        typical = statistics.median(p.elapsed for p in passes)
        if perf_counter() - start + typical > seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def pass_totals(passes, field: str) -> dict:
    """One pass's in-process total, its exact-mode part, and its CLI
    operations, each a sum over operations of the operation's median over
    all samples of the run.  An operation sampled several times per pass
    counts once."""
    med = [
        (kind, statistics.median(x for p in passes for x in getattr(p, field)[name]))
        for name, kind in passes[0].kinds.items()
    ]
    return {
        "wall": sum(x for k, x in med if k != "cli"),
        "exact": sum(x for k, x in med if k == "exact"),
        "cli": sum(x for k, x in med if k == "cli"),
    }


def bytes_per_state(workload, first: Pass) -> float:
    """Peak-RSS growth over the workload's first large solve in the first
    pass of the process, per lattice state; 0 if it has none."""
    for i, op in enumerate(workload.ops):
        if op.rss_states:
            return (first.maxrss[i + 1] - first.maxrss[i]) / op.rss_states
    return 0.0


def end_to_end(passes, probe: SetupProbe) -> dict:
    """In-process pass times in reference-loop units, and subprocess times in
    seconds at the reference interpreter's nominal speed: each sample is
    divided by the reference timed around it, so that the drift of the
    host's speed, which moves both alike, cancels."""
    ref = pass_totals(passes, "ratios")
    return {
        "wall_ref": (ref["wall"], "ref"),
        "exact_ref": (ref["exact"], "ref"),
        "cli_s": (ref["cli"] * NOMINAL_CHILD_REFERENCE_S, "s"),
        "setup_s": (probe.seconds("setup_s"), "s"),
        "peak_rss_mb": (_maxrss_bytes() / 2**20, "MB"),
    }


def per_layer(tracer, traced: Pass, untraced: Pass, rss_per_state, probe: SetupProbe, cli_names,
              fail_ratio) -> dict:
    L = tracer.layers()
    cnt = tracer.counters
    z = {"calls": 0, "s": 0.0, "self_s": 0.0}
    get = lambda name: L.get(name, z)  # noqa: E731
    per = lambda num, den, scale=1.0: num * scale / den if den else 0.0  # noqa: E731
    m = {}
    for key in ("value", "value_exact"):
        lay = get(f"solver.{key}")
        states = cnt.get(f"solver.{key}.states", 0)
        m[f"solver.{key}.calls"] = (lay["calls"], "count")
        m[f"solver.{key}.s"] = (lay["s"], "s")
        m[f"solver.{key}.states"] = (states, "count")
        m[f"solver.{key}.us_per_state"] = (per(lay["s"], states, 1e6), "us")
    m["solver.value.us_per_call"] = (per(get("solver.value")["s"], get("solver.value")["calls"], 1e6), "us")
    m["solver.policy_tree.s"] = (get("solver.policy_tree")["s"], "s")
    m["solver.bytes_per_state"] = (rss_per_state, "B")
    sv = get("solver.stopping_value")
    sv_states = cnt.get("solver.stopping_value.states", 0)
    m["solver.stopping_value.calls"] = (sv["calls"], "count")
    m["solver.stopping_value.s"] = (sv["s"], "s")
    m["solver.stopping_value.states"] = (sv_states, "count")
    m["solver.stopping_value.us_per_state"] = (per(sv["s"], sv_states, 1e6), "us")
    m["solver.value_one_armed.calls"] = (get("solver.value_one_armed")["calls"], "count")
    m["solver.value_one_armed.s"] = (get("solver.value_one_armed")["s"], "s")
    bev, beo = get("index.break_even_value"), get("index.break_even_observation")
    m["index.break_even_value.calls"] = (bev["calls"], "count")
    m["index.break_even_value.self_s"] = (bev["self_s"], "s")
    m["index.passes_per_value"] = (
        per(tracer.child_calls("index.break_even_value", "solver.stopping_value"), bev["calls"]), "count")
    m["index.break_even_observation.calls"] = (beo["calls"], "count")
    m["index.break_even_observation.self_s"] = (beo["self_s"], "s")
    m["index.values_per_observation"] = (
        per(tracer.child_calls("index.break_even_observation", "index.break_even_value"), beo["calls"]),
        "count")
    m["index.index_sweep.s"] = (get("index.index_sweep")["s"], "s")
    bf = get("oracle.brute_force_value")
    m["oracle.brute_force_value.calls"] = (bf["calls"], "count")
    m["oracle.brute_force_value.s"] = (bf["s"], "s")
    m["oracle.brute_force_value.us_per_call"] = (per(bf["s"], bf["calls"], 1e6), "us")
    meas = [v for k, v in L.items() if k.startswith("measures.")]
    m["measures.calls"] = (sum(v["calls"] for v in meas), "count")
    m["measures.self_s"] = (sum(v["self_s"] for v in meas), "s")
    icx = get("measures.leq_icx")
    m["measures.leq_icx.us_per_call"] = (per(icx["s"], icx["calls"], 1e6), "us")
    m["discount.self_s"] = (sum(v["self_s"] for k, v in L.items() if k.startswith("discount.")), "s")
    for suite in SUITES:
        m[f"verify.{suite}.s"] = (get(f"verify.{suite}")["s"], "s")
        m[f"verify.{suite}.instances"] = (cnt.get(f"verify.{suite}.instances", 0), "count")
    sim = get("verify.simulate_policy")
    m["verify.simulate_policy.s"] = (sim["s"], "s")
    m["verify.simulate_policy.samples_per_s"] = (
        per(cnt.get("verify.simulate_policy.samples", 0), sim["s"]), "1/s")
    m["cli.import_s"] = (probe.seconds("import_s"), "s")
    m["config.load_instance.s"] = (probe.seconds("load_s"), "s")
    for name in cli_names:
        samples = traced.samples.get(f"cli.{name}")
        m[f"cli.subprocess_s.{name}"] = (statistics.median(samples) if samples else 0.0, "s")
    m["trace.overhead_ref"] = (pass_totals([traced], "ratios")["wall"]
                               - pass_totals([untraced], "ratios")["wall"], "ref")
    m["pass.wall_s"] = (pass_totals([untraced], "samples")["wall"], "s")
    m["reference.s"] = (statistics.median(untraced.references), "s")
    m["trace.spans"] = (len(tracer.t0), "count")
    m["fail_ratio"] = (fail_ratio, "ratio")
    return m


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_DIR=str(ROOT / ".git"))
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, db, numpy_version, usable_cpus) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "program_version": db.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(usable_cpus),
        "pinned_cpu": min(usable_cpus),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_1min_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the harness and every process it starts, so that all
    # samples and reference loops of a run share one CPU's contention from
    # outside the guest.
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(usable)})
    db = _import_program()
    import numpy as np

    from spans import Tracer
    from workloads import CLI_COMMANDS, WORKLOADS, Env

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    prov = provenance(args, db, np.__version__, usable)
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, Env(ROOT, OUT, db, _cli_env()))
    probe = SetupProbe(workload.configs, args.seconds / SETUP_PROBES)

    if args.trace == 0:
        passes = timed_passes(workload, probe, args.seconds)
    else:
        # The first pass also warms the process up, so the overhead is taken
        # against the untraced pass that follows the traced one.
        first = run_pass(workload, probe)
        tracer = Tracer()
        tracer.install(db)
        try:
            traced = run_pass(workload, probe, tracer=tracer)
        finally:
            tracer.uninstall()
        untraced = run_pass(workload, probe)
        passes = [first, traced, untraced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    if args.trace == 0:
        metrics = end_to_end(passes, probe)
    else:
        tracer.save(OUT / f"trace-{args.workload}.npz")
        metrics = per_layer(tracer, traced, untraced, bytes_per_state(workload, first), probe,
                            CLI_COMMANDS, failed / attempted)
    prov["loadavg_1min_end"] = os.getloadavg()[0]
    prov["passes"] = len(passes)
    prov["reference_s_median"] = statistics.median(x for p in passes for x in p.references)
    prov["child_reference_s_median"] = statistics.median(
        x for p in passes for x in p.child_references)
    prov["seconds_per_pass"] = pass_totals(passes, "samples")
    record = {
        "provenance": prov,
        "setup": {"samples": probe.samples, "ratios": probe.ratios},
        "passes": [{"samples": p.samples, "ratios": p.ratios, "references": p.references,
                    "child_references": p.child_references, "failures": [n for n, _ in p.failures]} for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"BENCH_{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
