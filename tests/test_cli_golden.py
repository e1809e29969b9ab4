"""Byte-stability of CLI stdout on the demo configs.

Each command's stdout must equal its file under ``tests/golden/`` byte for
byte: the numbers, the policy trees and the sweep CSVs.  A deliberate output
change re-captures the file by running the command from the repository root,
for example

    dirichlet-bandit value demos/configs/coin_vs_known_half.json > tests/golden/value_coin.txt

and says in the change log why the bytes moved.  A ``verify`` report is
pinned the same way, by the file its ``--out`` writes:

    dirichlet-bandit verify montecarlo --out tests/golden/verify_montecarlo.json

The CLI runs suites in float; ``tests/golden/exact/`` pins the exact-mode
report of each exact-capable suite, ``to_dict()`` at 40 trials of seed 0,
written as ``json.dump(report.to_dict(), f, indent=2)`` plus a newline.
"""
import json
from pathlib import Path

import pytest

from dirichlet_bandits.cli import main
from dirichlet_bandits.verify import SUITES, InstanceGen

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
COIN = "demos/configs/coin_vs_known_half.json"
ONE_ARMED = "demos/configs/coin_one_armed.json"
THREE_ATOM = "demos/configs/three_atom_two_armed.json"
NON_REGULAR = "demos/configs/coin_vs_known_nonregular.json"

COMMANDS = {
    "value_coin": ["value", COIN],
    "value_coin_exact": ["value", COIN, "--exact"],
    "value_coin_policy2": ["value", COIN, "--policy", "2"],
    "value_coin_nonregular": ["value", NON_REGULAR],
    "value_coin_nonregular_exact": ["value", NON_REGULAR, "--exact"],
    "value_coin_nonregular_policy3": ["value", NON_REGULAR, "--policy", "3"],
    "value_coin_nonregular_exact_policy3": ["value", NON_REGULAR, "--exact", "--policy", "3"],
    "value_three_atom": ["value", THREE_ATOM],
    "value_three_atom_exact": ["value", THREE_ATOM, "--exact"],
    "value_three_atom_policy2": ["value", THREE_ATOM, "--policy", "2"],
    "value_three_atom_exact_policy3": ["value", THREE_ATOM, "--exact", "--policy", "3"],
    "lambda_coin": ["lambda", ONE_ARMED],
    "breakeven_coin": ["breakeven", ONE_ARMED],
    "sweep_mass": ["sweep", THREE_ATOM, "--param", "mass", "--grid", "1,2,4,8"],
    "sweep_spread": ["sweep", THREE_ATOM, "--param", "spread", "--grid", "0,0.1,0.2,0.3"],
    "sweep_shift": ["sweep", THREE_ATOM, "--param", "shift", "--grid", "0,0.25,0.5,1"],
}

#: Commands whose ``--out`` report is pinned, by the report's file stem.
REPORTS = {
    "verify_lemma1": ["verify", "lemma1"],
    "verify_thm1": ["verify", "thm1"],
    "verify_thm2": ["verify", "thm2"],
    "verify_lemma3": ["verify", "lemma3"],
    "verify_lemma4": ["verify", "lemma4"],
    "verify_prop1": ["verify", "prop1"],
    "verify_strictness": ["verify", "strictness"],
    "verify_oracle": ["verify", "oracle"],
    "verify_montecarlo": ["verify", "montecarlo"],
}

#: Suites with an exact mode, whose exact report is pinned.
EXACT_SUITES = ("lemma1", "thm1", "thm2", "lemma3", "lemma4", "prop1", "strictness")


@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_matches_golden_file(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(COMMANDS[name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", REPORTS)
def test_report_matches_golden_file(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / f"{name}.json"
    assert main(REPORTS[name] + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", EXACT_SUITES)
def test_exact_report_matches_golden_file(name):
    report = SUITES[name](InstanceGen(seed=0), 40, exact=True)
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    assert text == (GOLDEN / "exact" / f"{name}.json").read_text()


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(COMMANDS)
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(REPORTS)
    assert sorted(p.stem for p in (GOLDEN / "exact").glob("*.json")) == sorted(EXACT_SUITES)
