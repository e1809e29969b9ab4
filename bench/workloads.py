"""The three workloads: seeded instances, the timed operations and their checks.

An operation is one closed-loop call into the program (a library call, or
one CLI subprocess); the next starts when the previous returns.  Operations
run in list order and may read the results of earlier operations of the same
pass, which is how CLI output is compared with the library's answer for the
same config.  Checks run outside the timed interval.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks as C
import instances as I
from counts import two_armed_states
from dirichlet_bandits.cli import _fmt  # the CLI's own number format

#: The ``verify all`` battery draws its instance shapes (horizon, atoms per
#: arm) from the program's own generator, so its cost moves with the battery
#: seed by about +-15%.  It therefore runs at one fixed seed -- the CLI's
#: default -- and the benchmark's seed drives the workload's other inputs.
#: The battery runs as its nine suites, ``verify <suite>`` each, so that
#: other operations can be sampled between them.
BATTERY_SEED = 0
#: ``verify.DEFAULT_TRIALS``: 1,150 instances in all.
BATTERY_TRIALS = {
    "lemma1": 100, "thm1": 200, "thm2": 200, "lemma3": 100, "lemma4": 100,
    "prop1": 100, "strictness": 100, "oracle": 100, "montecarlo": 50,
}
#: Tiny exact-mode instances checked against the exhaustive oracle, solved
#: in chunks spread over the pass.
ORACLE_INSTANCES = 100
ORACLE_CHUNK = 10
#: Step above a computed break-even value at which retirement must be
#: optimal: a hundred times the bisection tolerance.
ABOVE_INDEX = 1e-7
SWEEP_GRID = (1, 2, 4, 8)
#: Every CLI operation across the workloads, ``cli.<name>`` in each list.
CLI_COMMANDS = ("value_exact_coin", "value_policy_three_atom", "value_generated",
                "lambda_coin", "breakeven_coin", "lambda_generated", "sweep_generated")
CLI_TIMEOUT_S = 120
#: Samples per pass of each CLI command and small exact solve: these take
#: tenths of a second, where a pass of the large operations takes seconds,
#: so they need more samples for a steady median.
SMALL_SAMPLES = 2


@dataclass
class Op:
    name: str
    kind: str  # "float", "exact" or "cli"
    run: Callable[[dict], object]
    check: Callable[[object, dict], None]
    #: Lattice states of a large solve whose peak-RSS growth, as the first
    #: large allocation of the process, gives the bytes per state.
    rss_states: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: Configs the set-up probe loads.
    configs: list[Path]


@dataclass
class Env:
    root: Path
    out: Path
    db: object  # the dirichlet_bandits package
    cli_env: dict

    def demo(self, name: str) -> Path:
        return self.root / "demos" / "configs" / f"{name}.json"

    def cli(self, name: str, argv, check) -> Op:
        """``dirichlet-bandit ARGV`` as a subprocess; the operation is
        ``cli.<name>`` and its result is (exit status, stdout)."""
        cmd = [sys.executable, "-m", "dirichlet_bandits.cli", *map(str, argv)]

        def run(_results):
            proc = subprocess.run(cmd, cwd=self.root, env=self.cli_env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
            return proc.returncode, proc.stdout

        return Op(f"cli.{name}", "cli", run, check)


def interleave(main: list[Op], small: list[Op]) -> list[Op]:
    """``main`` in order, with ``small`` repeated SMALL_SAMPLES times and
    spread evenly over the gaps after each main operation.

    The machine's speed drifts over seconds, so every kind of operation is
    sampled across the whole pass rather than in one stretch of it.  Small
    operations may read the results of any main operation placed before
    the gap they land in; main operations they need come first.
    """
    queue = small * SMALL_SAMPLES
    ops = []
    for i, op in enumerate(main):
        ops.append(op)
        ops.extend(queue[len(queue) * i // len(main):len(queue) * (i + 1) // len(main)])
    return ops


def _pairs(doc_measure) -> list[tuple[Fraction, Fraction]]:
    if "known" in doc_measure:
        return [(Fraction(doc_measure["known"]), Fraction(1))]
    return [(Fraction(a["location"]), Fraction(a["weight"])) for a in doc_measure["atoms"]]


def _values(doc_discount) -> list[Fraction]:
    d = doc_discount
    if "values" in d:
        return [Fraction(v) for v in d["values"]]
    if d["family"] == "uniform":
        return [Fraction(1)] * d["n"]
    beta = Fraction(d["beta"])
    return [beta**t for t in range(d["n"])]


def _report_fields(rep) -> dict[str, str]:
    return {"W": _fmt(rep.w), "W1": _fmt(rep.w1), "W2": _fmt(rep.w2), "action": rep.action.value}


def _index_fields(res, key) -> dict[str, str]:
    return {key: _fmt(res.value), "bracket": f"[{_fmt(res.bracket[0])}, {_fmt(res.bracket[1])}]",
            "iterations": str(res.iterations), "residual": _fmt(res.residual)}


def _cli_close(key: str, want, tol: float):
    """CLI exits 0 and prints ``key`` within ``tol`` of ``want``."""
    def check(proc, _results):
        rc, stdout = proc
        C.require(rc == 0, f"exit status {rc}")
        got = C.parse_cli(stdout).get(key)
        C.require(got is not None, f"no {key!r} line in {stdout!r}")
        C.check_close(float(got), want, tol, f"CLI {key}")
    return check


def _cli_coin_value(proc, _results):
    """Exact ``value`` on the worked instance: W = 13/12 from pulling the
    coin first, 1 from the known arm first."""
    C.check_cli(proc, {"W": "13/12", "W1": "13/12", "W2": "1", "action": "arm1"})


# ---------------------------------------------------------------------------
# two_armed
# ---------------------------------------------------------------------------


def two_armed(seed: int, env: Env) -> Workload:
    """Float two-armed solves on fixed shapes, a policy tree, the
    non-regular one-armed fallback, and exact-mode solves."""
    db = env.db
    docs = {
        "2x2_n48": I.two_armed_doc(seed, "2x2_n48", 2, 2, I.uniform(48)),
        "3x3_n18": I.two_armed_doc(seed, "3x3_n18", 3, 3, I.uniform(18)),
        "2x3_n24": I.two_armed_doc(seed, "2x3_n24", 2, 3, I.uniform(24)),
        "policy_3x3_n16": I.two_armed_doc(seed, "policy_3x3_n16", 3, 3, I.uniform(16)),
        "one_armed_nonregular_n32": I.one_armed_doc(
            seed, "one_armed_nonregular_n32", 3, lambda r: I.non_regular(r, 32), known=True),
        "3x3_n10": I.two_armed_doc(seed, "3x3_n10", 3, 3, I.uniform(10)),
    }
    paths = I.write_configs(docs, env.out / "configs" / f"two_armed-{seed}")
    cfg = {k: db.config.load_instance(p) for k, p in paths.items()}
    exact_3x3 = db.config.load_instance(paths["3x3_n10"], force_mode="exact")
    coin_path = env.demo("coin_vs_known_half")
    coin = db.config.load_instance(coin_path, force_mode="exact")
    three_atom_path = env.demo("three_atom_two_armed")
    three_atom_w = db.oracle.brute_force_value_exact(
        db.config.load_instance(three_atom_path, force_mode="exact").state())

    def arms(name):
        return [_pairs(docs[name]["arm1"]), _pairs(docs[name]["arm2"])]

    def solve(name):
        return lambda _r: db.solver.value(cfg[name].state(), cfg[name].options)

    def report_check(name):
        def check(rep, _r):
            C.check_report(rep)
            C.check_value_bounds(rep.w, arms(name), _values(docs[name]["discount"]))
        return check

    def policy_check(node, _r):
        C.check_policy_tree(node, 6, (3, 3))
        C.check_value_bounds(node.report.w, arms("policy_3x3_n16"),
                             _values(docs["policy_3x3_n16"]["discount"]))

    one = cfg["one_armed_nonregular_n32"]
    one_lam = one.arm2.atoms[0][0]

    def exact_3x3_check(rep, results):
        C.check_report(rep)
        C.check_value_bounds(rep.w, arms("3x3_n10"), _values(docs["3x3_n10"]["discount"]), 0)
        fl = results["value_3x3_n10"]
        for k in ("w", "w1", "w2"):
            C.check_close(getattr(fl, k), getattr(rep, k), C.FLOAT_EXACT_TOL, f"float vs exact {k}")

    def coin_check(rep, _r):
        C.check_report(rep)
        C.check_equal(rep.w, C.COIN_W, "exact W of the worked instance")

    def three_atom_check(proc, r):
        """W matches the exhaustive oracle; the policy tree's root line,
        after the four report lines, carries the same W."""
        _cli_close("W", three_atom_w, 1e-9)(proc, r)
        stdout = proc[1]
        root = stdout.splitlines()[4]
        C.require(root.startswith("stage=0 ") and root.endswith(f"w={C.parse_cli(stdout)['W']}"),
                  f"policy root line {root!r}")

    main = [
        # Small operations read this result.
        Op("value_3x3_n10", "float", solve("3x3_n10"), report_check("3x3_n10")),
        # The first large solve of the process: its peak-RSS growth gives
        # the bytes per state.
        Op("value_2x2_n48", "float", solve("2x2_n48"), report_check("2x2_n48"),
           rss_states=two_armed_states(cfg["2x2_n48"].state())),
        Op("value_3x3_n18", "float", solve("3x3_n18"), report_check("3x3_n18")),
        Op("value_2x3_n24", "float", solve("2x3_n24"), report_check("2x3_n24")),
        Op("policy_tree_3x3_n16", "float",
           lambda _r: db.solver.policy_tree(cfg["policy_3x3_n16"].state(), 6, cfg["policy_3x3_n16"].options),
           policy_check),
        Op("value_one_armed_nonregular_n32", "float",
           lambda _r: db.solver.value_one_armed(one.arm1, one_lam, one.discount, one.options),
           report_check("one_armed_nonregular_n32")),
    ]
    small = [
        Op("value_exact_3x3_n10", "exact",
           lambda _r: db.solver.value(exact_3x3.state(), exact_3x3.options), exact_3x3_check),
        Op("value_exact_coin", "exact",
           lambda _r: db.solver.value(coin.state(), coin.options), coin_check),
        env.cli("value_exact_coin", ("value", "--exact", coin_path), _cli_coin_value),
        env.cli("value_policy_three_atom", ("value", "--policy", 2, three_atom_path),
                three_atom_check),
        env.cli("value_generated", ("value", paths["3x3_n10"]),
                lambda proc, r: C.check_cli(proc, _report_fields(r["value_3x3_n10"]))),
    ]
    return Workload("two_armed", interleave(main, small),
                    list(paths.values()) + [coin_path, three_atom_path])


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------


def index(seed: int, env: Env) -> Workload:
    """Break-even values, a break-even observation and a sweep -- root
    finding over stopping-form passes, with no two-armed solve."""
    db = env.db
    docs = {
        "n20": I.one_armed_doc(seed, "n20", 3, I.uniform(20), index_arm=True),
        "n36": I.one_armed_doc(seed, "n36", 3, I.uniform(36), index_arm=True),
        "n36_geometric": I.one_armed_doc(
            seed, "n36_geometric", 3, lambda r: I.geometric(r, 36), index_arm=True),
        "n8_observation": I.one_armed_doc(seed, "n8_observation", 3, I.uniform(8), index_arm=True),
        "n16_sweep": I.one_armed_doc(seed, "n16_sweep", 3, I.uniform(16), index_arm=True),
    }
    paths = I.write_configs(docs, env.out / "configs" / f"index-{seed}")
    cfg = {k: db.config.load_instance(p) for k, p in paths.items()}
    exact = db.config.load_instance(paths["n20"], force_mode="exact")
    coin_path = env.demo("coin_one_armed")
    coin = db.config.load_instance(coin_path)
    coin_exact = db.config.load_instance(coin_path, force_mode="exact")

    def bev(name):
        return lambda _r: db.index.break_even_value(cfg[name].arm1, cfg[name].discount)

    def bev_check(name):
        def check(res, _r):
            c = cfg[name]
            C.check_break_even(res, _pairs(docs[name]["arm1"]))
            lam = res.value + ABOVE_INDEX
            C.check_retirement(db.solver.stopping_value(c.arm1, lam, c.discount), lam, c.discount.tails[0])
        return check

    obs = cfg["n8_observation"]

    def observation_check(res, _r):
        lam = db.index.break_even_value(obs.arm1, obs.discount)
        C.require(res.value >= lam.value - C.RESIDUAL_TOL,
                  f"break-even observation {res.value!r} below the break-even value {lam.value!r}")
        C.require(res.residual <= C.RESIDUAL_TOL, f"residual {res.residual!r}")

    sweep_cfg = cfg["n16_sweep"]

    def sweep(_r):
        F = db.measures.predictive(sweep_cfg.arm1)
        return db.index.index_sweep(lambda M: db.measures.scale(F, M), sweep_cfg.discount,
                                    SWEEP_GRID, expected="nonincreasing")

    def coin_lambda_check(res, _r):
        C.check_close(res.value, C.COIN_LAMBDA, C.COIN_LAMBDA_TOL, "coin break-even value")
        C.require(res.residual <= C.RESIDUAL_TOL, f"residual {res.residual!r}")

    def exact_above_index(results):
        lam = Fraction(results["break_even_value_n20"].value + ABOVE_INDEX)
        return lam, db.solver.stopping_value(exact.arm1, lam, exact.discount, exact.options)

    def exact_above_check(out, _r):
        lam, v = out
        C.check_retirement(v, lam, exact.discount.tails[0])

    def exact_at_mean(_r):
        return db.solver.stopping_value(exact.arm1, db.measures.mean(exact.arm1), exact.discount,
                                        exact.options)

    def exact_at_mean_check(v, _r):
        c = cfg["n20"]
        mean = db.measures.mean(exact.arm1)
        C.require(v >= mean * exact.discount.tails[0], "stopping value below retiring at the mean")
        C.check_close(v, db.solver.stopping_value(c.arm1, float(mean), c.discount), C.FLOAT_EXACT_TOL,
                      "float vs exact stopping value")

    def exact_coin(_r):
        c = coin_exact
        below = C.COIN_LAMBDA - Fraction(1, 90)
        return (db.solver.stopping_value(c.arm1, C.COIN_LAMBDA, c.discount, c.options),
                db.solver.stopping_value(c.arm1, below, c.discount, c.options), below)

    def exact_coin_check(out, _r):
        at, below_v, below = out
        T1 = coin_exact.discount.tails[0]
        C.check_retirement(at, C.COIN_LAMBDA, T1)
        C.require(below_v > below * T1, "pulling must beat retiring below the index")

    def lambda_generated_check(proc, r):
        C.check_cli(proc, _index_fields(r["break_even_value_n20"], "lambda"))

    def sweep_generated_check(proc, r):
        rc, stdout = proc
        C.require(rc == 0, f"exit status {rc}")
        want = db.index.sweep_csv(r["index_sweep_mass_n16"])
        C.require(stdout == want, f"sweep CSV {stdout!r}, want {want!r}")

    main = [
        # Small operations read these two results.
        Op("break_even_value_n20", "float", bev("n20"), bev_check("n20")),
        Op("index_sweep_mass_n16", "float", sweep, lambda res, _r: C.check_sweep(res, SWEEP_GRID)),
        Op("break_even_value_n36", "float", bev("n36"), bev_check("n36")),
        Op("break_even_value_n36_geometric", "float", bev("n36_geometric"), bev_check("n36_geometric")),
        Op("break_even_observation_n8", "float",
           lambda _r: db.index.break_even_observation(obs.arm1, obs.discount), observation_check),
        Op("break_even_value_coin", "float",
           lambda _r: db.index.break_even_value(coin.arm1, coin.discount), coin_lambda_check),
        Op("break_even_observation_coin", "float",
           lambda _r: db.index.break_even_observation(coin.arm1, coin.discount),
           lambda res, _r: C.check_close(res.value, C.COIN_B, C.COIN_B_TOL, "coin break-even observation")),
    ]
    # The exact passes are short and sampled twice as often as the CLI
    # commands: a pass of a second or more is slowed unevenly by the host
    # within its span, where the reference loop around it does not see it.
    exact_ops = [
        Op("stopping_value_exact_at_mean_n20", "exact", exact_at_mean, exact_at_mean_check),
        Op("stopping_value_exact_above_index_n20", "exact", exact_above_index, exact_above_check),
        Op("stopping_value_exact_coin", "exact", exact_coin, exact_coin_check),
    ]
    # The sweep command must land after the sweep it is checked against.
    small = [
        env.cli("lambda_generated", ("lambda", paths["n20"]), lambda_generated_check),
        *exact_ops,
        env.cli("sweep_generated",
                ("sweep", paths["n16_sweep"], "--param", "mass", "--grid", ",".join(map(str, SWEEP_GRID))),
                sweep_generated_check),
        *exact_ops,
    ]
    return Workload("index", interleave(main, small), list(paths.values()) + [coin_path])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def verify(seed: int, env: Env) -> Workload:
    """The ``verify`` battery in-process, exact-mode solves of tiny
    instances against the exhaustive oracle, and the demo configs through
    the CLI."""
    db = env.db
    docs = {
        f"tiny_{i:03d}": I.two_armed_doc(seed, f"tiny_{i}", 2, 2, I.uniform(5))
        for i in range(ORACLE_INSTANCES)
    }
    paths = I.write_configs(docs, env.out / "configs" / f"verify-{seed}")
    tiny = [db.config.load_instance(p, force_mode="exact") for p in paths.values()]
    oracle_w = [db.oracle.brute_force_value_exact(c.state()) for c in tiny]
    coin_path = env.demo("coin_vs_known_half")
    three_atom_path = env.demo("three_atom_two_armed")
    one_armed_path = env.demo("coin_one_armed")
    three_atom_w = db.oracle.brute_force_value_exact(
        db.config.load_instance(three_atom_path, force_mode="exact").state())

    def suite(name):
        report = env.out / f"verify-{name}-{seed}.json"

        def run(_r):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = db.cli.main(["verify", name, "--seed", str(BATTERY_SEED), "--jobs", "1",
                                  "--out", str(report)])
            return rc, json.loads(report.read_text(encoding="utf-8"))

        return Op(f"verify_{name}", "float", run,
                  lambda out, _r: C.check_suite_report(out[0], out[1], name, BATTERY_TRIALS[name]))

    def exact_chunk(k):
        chunk = range(k * ORACLE_CHUNK, (k + 1) * ORACLE_CHUNK)

        def check(reports, _r):
            for i, rep in zip(chunk, reports):
                C.check_report(rep)
                C.check_equal(rep.w, oracle_w[i], f"exact solver vs oracle on tiny_{i:03d}")

        return Op(f"value_exact_tiny_{k}", "exact",
                  lambda _r: [db.solver.value(tiny[i].state(), tiny[i].options) for i in chunk], check)

    main = [suite(name) for name in C.SUITES]
    small = [exact_chunk(k) for k in range(ORACLE_INSTANCES // ORACLE_CHUNK)] + [
        env.cli("value_exact_coin", ("value", "--exact", coin_path), _cli_coin_value),
        env.cli("value_policy_three_atom", ("value", "--policy", 2, three_atom_path),
                _cli_close("W", three_atom_w, 1e-9)),
        env.cli("lambda_coin", ("lambda", one_armed_path),
                _cli_close("lambda", C.COIN_LAMBDA, C.COIN_LAMBDA_TOL)),
        env.cli("breakeven_coin", ("breakeven", one_armed_path), _cli_close("b", C.COIN_B, C.COIN_B_TOL)),
    ]
    return Workload("verify", interleave(main, small),
                    list(paths.values()) + [coin_path, three_atom_path, one_armed_path])


WORKLOADS = {"two_armed": two_armed, "index": index, "verify": verify}
