"""Positive and negative controls for the benchmark's checks.

    python3 -m pytest -q bench/test_checks.py

Each check must pass on real `betalab` output (small sizes here) and fail
once that output is corrupted, e.g. an orbit float shifted by 1e-6, a CDF
row off by 1e-6, or S_N(1) = -0.49.  A check that cannot fail proves nothing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from betalab.cli import main  # noqa: E402
from betalab.precision import parse_beta, tb_orbit_floats  # noqa: E402
from workloads import MARKOV2_ROWS, PHI  # noqa: E402

X = "123457/654321"


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run each command once at a small size; tests copy the output."""
    root = tmp_path_factory.mktemp("runs")
    source = root / "markov2.json"
    source.write_text(json.dumps({"alphabet_size": 2, "order": 2, "rows": MARKOV2_ROWS}))
    cmds = {
        "decay": ["decay", "--beta", PHI, "--source", str(source), "--N", "500", "--samples", "16"],
        "invariance": ["invariance", "--beta", PHI, "--x", X, "--N", "2000"],
        "parry_phi": ["parry", "--beta", PHI, "--grid", "16", "--fourier", "2"],
        "parry_5-2": ["parry", "--beta", "5/2", "--grid", "16", "--fourier", "2"],
        "parry_2.2": ["parry", "--beta", "2.2", "--grid", "8", "--fourier", "1"],
        "classify_phi": ["classify", "--beta", PHI],
        "classify_2.2": ["classify", "--beta", "2.2", "--alphabet", "3"],
        "expand": ["expand", "--beta", PHI, "--x", X],
        "orbit_3-2": ["orbit", "--beta", "3/2", "--x", X],
        "orbit_2.2": ["orbit", "--beta", "2.2", "--x", X],
        "weyl": ["weyl", "--beta", "2", "--x", "1/3", "--m", "1", "--N", "1000"],
        "exponent": ["exponent", "--alpha", "0.75", "--beta", "1.5", "--grid", "100"],
        "selfsim": ["selfsim", "--beta", "2.2", "--samples", "20000"],
        "counterexample": ["counterexample", "--pairs", "20000"],
        "conditions": ["conditions", "--iid", "3/20,17/20"],
        "lemma32": ["lemma32", "--m", "4"],
    }
    out = {}
    for label, argv in cmds.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv + ["--out", str(root / label)])
        out[label] = (root / label, rc, buf.getvalue())
    return out


PARAMS = {
    "decay": {"samples": 16, "n_points": 500, "rows": MARKOV2_ROWS},
    "invariance": {"x": X, "N": 2000},
    "parry_phi": {"b": "phi"},
    "parry_5-2": {"b": "5/2"},
    "parry_2.2": {"b": "11/5"},
    "classify_phi": {},
    "classify_2.2": {"b": "11/5"},
    "expand": {"x": X},
    "orbit_3-2": {"b": "3/2", "x": X, "path": "exact"},
    "orbit_2.2": {"b": "11/5", "x": X, "path": "interval"},
    "weyl": {},
    "exponent": {"alpha": "0.75", "beta": "1.5"},
    "selfsim": {},
    "counterexample": {},
    "conditions": {"probs": ["3/20", "17/20"]},
    "lemma32": {},
}
CHECK = {"parry_phi": "parry", "parry_5-2": "parry", "parry_2.2": "parry",
         "classify_2.2": "classify_rational", "expand": "expand_phi",
         "orbit_3-2": "orbit_rational", "orbit_2.2": "orbit_rational", "weyl": "weyl_doubling"}


def outcome(runs, tmp_path, label):
    src, rc, stdout = runs[label]
    dst = tmp_path / label
    shutil.copytree(src, dst)
    orbit = None
    if label == "invariance":
        orbit = np.array(tb_orbit_floats(parse_beta(PHI), Fraction(X), 2000))
    return checks.Outcome(dst, rc, stdout, PARAMS[label], orbit)


def verdict(label, o):
    return checks.run_check(CHECK.get(label, label), o)


def edit_json(o, name, fn):
    path = o.out_dir / name
    payload = json.loads(path.read_text())
    fn(payload)
    path.write_text(json.dumps(payload))


def edit_csv(o, name, row_index, column, fn):
    path = o.out_dir / name
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row_index + 1][col] = repr(fn(float(rows[row_index + 1][col])))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("label", list(PARAMS))
def test_real_output_passes(runs, tmp_path, label):
    assert verdict(label, outcome(runs, tmp_path, label)) == []


def test_nonzero_exit_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "weyl")
    o.rc = 2
    assert verdict("weyl", o)


def test_missing_artifact_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "weyl")
    (o.out_dir / "weyl.csv").unlink()
    assert verdict("weyl", o)


@pytest.mark.parametrize("value", ["0.0", "1.0000001"])
def test_decay_value_outside_unit_interval_fails(runs, tmp_path, value):
    o = outcome(runs, tmp_path, "decay")
    edit_csv(o, "decay.csv", 3, "D", lambda d: float(value))
    assert verdict("decay", o)


def test_decay_other_source_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "decay")
    o.params = dict(o.params, rows=[["1/2", "1/2"]] * 4)
    assert verdict("decay", o)


def test_orbit_float_shifted_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "invariance")
    o.orbit[1234] += 1e-6
    assert verdict("invariance", o)


def test_invariance_over_budget_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "invariance")
    edit_json(o, "invariance.json", lambda p: p.update(within_budget=False))
    assert verdict("invariance", o)


@pytest.mark.parametrize("label", ["parry_phi", "parry_5-2", "parry_2.2"])
@pytest.mark.parametrize("column", ["density", "cdf"])
def test_parry_row_off_by_1e6_fails(runs, tmp_path, label, column):
    o = outcome(runs, tmp_path, label)
    edit_csv(o, "parry.csv", 5, column, lambda v: v + 1e-6)
    assert verdict(label, o)


@pytest.mark.parametrize("label", ["parry_phi", "parry_5-2"])
def test_parry_normalizer_shifted_fails(runs, tmp_path, label):
    o = outcome(runs, tmp_path, label)

    def shift(p):
        for k in ("lo", "hi"):
            p["normalizer"][k] = str(Fraction(p["normalizer"][k]) + Fraction(1, 10**6))

    edit_json(o, "parry.json", shift)
    assert verdict(label, o)


def test_parry_fourier_off_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "parry_5-2")

    def shift(p):
        p["fourier"][0]["value"][0] += 1e-6

    edit_json(o, "parry.json", shift)
    assert verdict("parry_5-2", o)


def test_parry_cdf_not_ending_at_one_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "parry_phi")
    edit_csv(o, "parry.csv", 16, "cdf", lambda v: 0.999)
    assert verdict("parry_phi", o)


def test_parry_density_out_of_bounds_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "parry_phi")
    edit_csv(o, "parry.csv", 16, "density", lambda v: 3.0)  # above 1/(1 - 1/phi) = 2.618
    assert verdict("parry_phi", o)


def test_classify_phi_wrong_verdict_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "classify_phi")
    edit_json(o, "classify.json", lambda p: p.update(hit_zero_at=3))
    assert verdict("classify_phi", o)


def test_classify_digit_flipped_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "classify_2.2")
    edit_json(o, "classify.json", lambda p: p["digits"].__setitem__(10, 1 - p["digits"][10]))
    assert verdict("classify_2.2", o)


def test_expand_digit_flipped_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "expand")
    edit_json(o, "expand.json", lambda p: p["digits"].__setitem__(20, 1 - p["digits"][20]))
    assert verdict("expand", o)


@pytest.mark.parametrize("label", ["orbit_3-2", "orbit_2.2"])
def test_orbit_value_shifted_fails(runs, tmp_path, label):
    o = outcome(runs, tmp_path, label)
    edit_csv(o, "orbit.csv", 50, "value", lambda v: v + 1e-6)
    assert verdict(label, o)


def test_orbit_wrong_path_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "orbit_3-2")
    o.params = dict(o.params, path="interval")
    assert verdict("orbit_3-2", o)


def test_weyl_oracle_off_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "weyl")
    edit_csv(o, "weyl.csv", 2, "re", lambda v: -0.49)
    assert verdict("weyl", o)


def test_exponent_misprinted_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "exponent")
    o.stdout = f"{float(o.stdout) + 1e-6!r}\n"
    assert verdict("exponent", o)


def test_selfsim_over_budget_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "selfsim")
    edit_json(o, "selfsim.json", lambda p: p["invariance"].update(within_budget=False))
    assert verdict("selfsim", o)


def test_counterexample_control_off_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "counterexample")
    edit_json(o, "counterexample.json", lambda p: p["report"]["control"][1].update(
        estimate=p["report"]["control"][1]["estimate"] + 0.005))
    assert verdict("counterexample", o)


def test_counterexample_floor_missed_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "counterexample")
    edit_json(o, "counterexample.json", lambda p: p.update(all_floors_met=False))
    assert verdict("counterexample", o)


def test_conditions_entropy_off_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "conditions")
    edit_json(o, "conditions.json", lambda p: p.update(entropy_nats=p["entropy_nats"] + 1e-9))
    assert verdict("conditions", o)


def test_lemma32_violation_fails(runs, tmp_path):
    o = outcome(runs, tmp_path, "lemma32")
    edit_json(o, "lemma32.json", lambda p: p.update(violations=1))
    assert verdict("lemma32", o)
