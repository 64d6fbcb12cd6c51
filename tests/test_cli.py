"""Front-end checks: exit codes, artifact shapes, manifest replay.

Library numerics are covered by the module tests; here we only pin the
plumbing contract (descriptor parsing, JSON/CSV layout, determinism).
"""

import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import betalab.cli as cli
from betalab import precision, selfsimilar, weyl
from betalab.cli import UsageError, main, parse_point
from betalab.exactnum import Quadratic
from betalab.parry import ParryDensity
from betalab.precision import parse_beta, parse_exact
from betalab.sources import iid_source

# seed-0 artifact hashes of the benchmark's commands; read here, never written
REFERENCE_HASHES = Path(__file__).resolve().parents[1] / "bench" / "reference_hashes.json"
SRC = Path(__file__).resolve().parents[1] / "src"


def _json(d, name):
    with open(os.path.join(d, name)) as fh:
        return json.load(fh)


def _bytes(d, name):
    with open(os.path.join(d, name), "rb") as fh:
        return fh.read()


def _lines(d, name):
    with open(os.path.join(d, name)) as fh:
        return fh.read().splitlines()


# -- point descriptors ----------------------------------------------------------


def test_parse_point_exact_forms():
    assert parse_point("0") == Fraction(0)
    assert parse_point("1/3") == Fraction(1, 3)
    # decimal seeds are data, not precision requests: exact fraction, no @bits
    assert parse_point("0.25") == Fraction(1, 4)
    assert parse_point("0.1") == Fraction(1, 10)

    q = parse_point("(3-sqrt5)/2")
    assert isinstance(q, Quadratic)
    assert abs(float(q) - (3 - math.sqrt(5)) / 2) < 1e-15

    # square factor gets pulled out of the radical
    r = parse_point("sqrt8/4")
    assert isinstance(r, Quadratic)
    assert abs(float(r) - math.sqrt(8) / 4) < 1e-15

    # perfect square collapses to a rational
    assert parse_point("(sqrt9)/4") == Fraction(3, 4)


def test_parse_point_rejections():
    for bad in ("1", "7/5", "(3+sqrt5)/2", "-1/2", "abc", "0.5@8", "", "1/0", "sqrt2/0"):
        with pytest.raises(UsageError):
            parse_point(bad)


descriptors = st.one_of(
    st.integers(0, 3).map(str),
    st.integers(0, 3).map(lambda n: f"+{n}"),
    st.tuples(st.integers(0, 30), st.integers(1, 30)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(st.integers(0, 2), st.integers(0, 999)).map(lambda t: f"{t[0]}.{t[1]}"),
    st.tuples(
        st.integers(0, 9), st.sampled_from("+-"), st.integers(1, 9), st.integers(2, 20),
        st.integers(1, 30),
    ).map(lambda t: f"({t[0]}{t[1]}{t[2]}*sqrt{t[3]})/{t[4]}"),
)


@given(descriptors)
def test_parse_point_is_parse_exact_on_the_unit_interval(text):
    value = parse_exact(text)
    if 0 <= value < 1:
        assert parse_point(text) == value
    else:
        with pytest.raises(UsageError):
            parse_point(text)


# -- golden paths ----------------------------------------------------------------


def test_classify_artifacts(tmp_path):
    d = str(tmp_path)
    rc = main(["classify", "--beta", "(1+sqrt5)/2", "--depth", "16", "--out", d])
    assert rc == 0
    payload = _json(d, "classify.json")
    assert payload["verdict"] == "Simple"
    assert payload["hit_zero_at"] == 2
    assert payload["digits"][:3] == [1, 1, 0]
    rows = _lines(d, "classify.csv")
    assert rows[0] == "n,digit"
    assert len(rows) == 1 + 16


def test_exponent_prints_closed_form(tmp_path, capsys):
    d = str(tmp_path)
    rc = main(["exponent", "--alpha", "1", "--beta", "1", "--grid", "0", "--out", d])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "-0.2"
    payload = _json(d, "exponent.json")
    assert payload["closed_form"] == pytest.approx(-0.2, abs=1e-15)
    assert "grid" not in payload


def test_weyl_doubling_oracle(tmp_path):
    # orbit of 1/3 under doubling alternates 1/3, 2/3; S_N(1) = -1/2 for even N
    d = str(tmp_path)
    rc = main(["weyl", "--beta", "2", "--x", "1/3", "--m", "1", "--N", "10000", "--out", d])
    assert rc == 0
    payload = _json(d, "weyl.json")
    assert payload["checkpoints"] == [2500, 5000, 10000]
    assert abs(payload["abs_final"]["1"] - 0.5) < 1e-9
    re_im = payload["S_final"]["1"]
    assert abs(re_im[0] + 0.5) < 1e-9 and abs(re_im[1]) < 1e-9
    rows = _lines(d, "weyl.csv")
    assert rows[0] == "m,N,re,im,abs"
    assert len(rows) == 1 + 3  # one frequency, three checkpoints


def test_parry_normalizer_and_cdf(tmp_path):
    d = str(tmp_path)
    rc = main(
        ["parry", "--beta", "(1+sqrt5)/2", "--grid", "64", "--fourier", "2",
         "--tol", "1e-8", "--out", d]
    )
    assert rc == 0
    payload = _json(d, "parry.json")
    assert abs(payload["normalizer"]["mid"] - 1.381966011250105) < 1e-6
    rows = _lines(d, "parry.csv")
    assert rows[0] == "x,density,cdf"
    assert abs(float(rows[-1].split(",")[2]) - 1.0) < 1e-6


@pytest.mark.parametrize(
    "label, beta", [("parry_2.2", "2.2"), ("parry_5-2", "5/2"), ("parry_phi", "(1+sqrt5)/2")]
)
def test_parry_artifacts_match_reference_hashes(tmp_path, label, beta):
    want = json.loads(REFERENCE_HASHES.read_text())["parry_density"][label]
    d = str(tmp_path)
    assert main(["parry", "--beta", beta, "--out", d]) == 0
    for name in ("parry.csv", "parry.json"):
        assert hashlib.sha256(_bytes(d, name)).hexdigest() == want[name], name


# sha256 of parry.json and parry.csv at the command's defaults.  They change
# only with a deliberate change of the Parry numbers.
PARRY_PINS = {
    "2.2": {
        "parry.json": "3752f19842a739e38ae0fbbb68668c20664f1ab0994f2c716cefda51163f2829",
        "parry.csv": "240fb7e2ebb8dce01ce07cbec328b7bfb0f95864ffa56ed1e06050ad83a0b9b5",
    },
    "5/2": {
        "parry.json": "d41faa116a0240626fd34659d00965db818c0b784465d2fc530b8adef28774f6",
        "parry.csv": "a811abe88b59e15ae121f3596f70b9e0eeeac80a4f0282ec48dc7a13019ece91",
    },
    "(1+sqrt5)/2": {
        "parry.json": "364348523f7fd70fd76cf36ebb61d651ee87a7c0dc16b9736c749a82f8224018",
        "parry.csv": "54ba38dfc5591a264f83d296c3e1c9305145068588d7353e1dbf892f935f1292",
    },
}


@pytest.mark.parametrize("beta", sorted(PARRY_PINS))
def test_parry_bytes_are_pinned(tmp_path, beta):
    d = str(tmp_path)
    assert main(["parry", "--beta", beta, "--out", d]) == 0
    for name, want in PARRY_PINS[beta].items():
        assert hashlib.sha256(_bytes(d, name)).hexdigest() == want, name


def test_parry_computes_each_orbit_prefix_once(tmp_path, monkeypatch):
    # the constructor's 34-term prefix serves the grid, the CDF and the
    # normalizer at --tol; fourier's normalizer at 1e-12 needs 38 terms and
    # computes them once, for every m
    steps = []
    compute = ParryDensity._compute_orbit

    def counting(self, n_steps):
        steps.append(n_steps)
        compute(self, n_steps)

    monkeypatch.setattr(ParryDensity, "_compute_orbit", counting)
    assert main(["parry", "--beta", "2.2", "--out", str(tmp_path)]) == 0
    assert steps == [33, 37]


def test_parry_writes_a_normalizer_past_the_int_digit_limit(tmp_path):
    # 7/5's 80-term prefix gives a normalizer of about 19,000 bits, whose
    # numerator has more decimal digits than Python converts by default
    d = str(tmp_path)
    assert main(["parry", "--beta", "7/5", "--out", d]) == 0
    assert sorted(os.listdir(d)) == ["parry.csv", "parry.json", "parry_manifest.json"]
    lo = _json(d, "parry.json")["normalizer"]["lo"]
    limit = sys.get_int_max_str_digits()
    assert limit and len(lo) > limit  # the process-wide limit still holds
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(lo) == ParryDensity(parse_beta("7/5"), 1e-10).normalizer()[0]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("count", ["-1", "-3"])
def test_parry_rejects_a_negative_fourier_count(tmp_path, capsys, count):
    d = str(tmp_path)
    assert main(["parry", "--beta", "5/2", "--fourier", count, "--out", d]) == 1
    assert "usage error: --fourier" in capsys.readouterr().err
    assert os.listdir(d) == []


def test_parry_fourier_zero_asks_for_no_coefficients(tmp_path):
    d = str(tmp_path)
    assert main(["parry", "--beta", "5/2", "--grid", "8", "--fourier", "0", "--out", d]) == 0
    assert _json(d, "parry.json")["fourier"] == []


def test_parry_decimal_base_certifies_no_identity(tmp_path, capsys):
    # the grid point 1/5 equals T(1) = 2.2 - 2; a decimal base has only
    # interval enclosures, so the cut is never settled, while the rational
    # 11/5 decides it exactly
    assert main(["parry", "--beta", "2.2", "--grid", "5", "--out", str(tmp_path / "dec")]) == 3
    assert "precision exhausted" in capsys.readouterr().err
    assert main(["parry", "--beta", "11/5", "--grid", "5", "--out", str(tmp_path / "rat")]) == 0


def test_lemma32_at_default_flags(tmp_path):
    d = str(tmp_path)
    assert main(["lemma32", "--mu", "parry", "--beta", "(1+sqrt5)/2", "--out", d]) == 0
    payload = _json(d, "lemma32.json")
    assert payload["violations"] == 0
    configs = payload["configs"]
    assert [(c["m"], c["r"]) for c in configs] == [
        (m, r) for m in (4, 64, 1024) for r in (0.05, 0.15)
    ]
    for first, second in zip(configs[::2], configs[1::2]):
        assert first["lhs"] == second["lhs"]  # one cloud, r-independent LHS
    nufft = (2 * weyl._NUFFT_ERROR + weyl._NUFFT_ERROR**2) * configs[0]["mass_cd"] ** 2
    assert all(c["quad_error"] >= nufft for c in configs)


@pytest.mark.parametrize("rs", ["0.1", "0.05,0.15", "0.01,0.05,0.1,0.2,0.3"])
def test_lemma32_spreads_the_cloud_once_per_frequency(tmp_path, monkeypatch, rs):
    # the benchmark's cli_sweep lemma32 command, with a repeated m: one spread
    # per distinct m serves both Richardson passes and every r
    spreads = []
    fine_grid = weyl._fine_grid

    def counted(*args):
        spreads.append(args)
        return fine_grid(*args)

    monkeypatch.setattr(weyl, "_fine_grid", counted)
    d = str(tmp_path)
    argv = ["lemma32", "--mu", "parry", "--beta", "(1+sqrt5)/2", "--m", "4,64,256,4", "--r", rs]
    assert main([*argv, "--out", d]) == 0
    assert len(_json(d, "lemma32.json")["configs"]) == 4 * len(rs.split(","))
    assert len(spreads) == 3


def test_decay_smoke(tmp_path):
    d = str(tmp_path)
    rc = main(
        ["decay", "--beta", "(1+sqrt5)/2", "--iid", "1/2,1/2", "--N", "400",
         "--samples", "16", "--ms", "1,2,3", "--fit-m-max", "3", "--seed", "7",
         "--out", d]
    )
    assert rc == 0
    payload = _json(d, "decay.json")
    assert set(payload["values"]) == {"1", "2", "3"}
    assert "band_medians" not in payload  # high band absent at these ms
    assert payload["proxy"].startswith("max")
    rows = _lines(d, "decay.csv")
    assert rows[0] == "m,D" and len(rows) == 4


def test_selfsim_smoke(tmp_path):
    d = str(tmp_path)
    rc = main(
        ["selfsim", "--beta", "2.2", "--xi-max", "1000", "--samples", "20000",
         "--grid-k", "32", "--seed", "0", "--out", d]
    )
    assert rc == 0
    payload = _json(d, "selfsim.json")
    assert payload["fitted_c"] > 0
    assert payload["residual_max"] < 1e-8
    assert "witness" not in payload  # level 0 skips the covering construction
    rows = _lines(d, "selfsim.csv")
    assert rows[0] == "xi,abs_mu_hat" and len(rows) == 1 + 512


SELFSIM_LEVEL_PINS = {
    "selfsim.json": "882b950c2850dd39c84e294f87392d7c185f1517092b20b645c199fe5d28e535",
    "selfsim.csv": "976cc9bd890499c533e1154d27e7b5395d61a61b4de819a12eed8943da1d9d28",
}


def test_selfsim_level_reuses_the_invariance_cloud(tmp_path, monkeypatch):
    # the witness reads the sorted cloud of the invariance check; coverage is
    # a mean of booleans, so the order of the cloud cannot change it
    calls = []
    sample = selfsimilar.ssm_sample

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return sample(*args, **kwargs)

    for module in (cli, selfsimilar):
        monkeypatch.setattr(module, "ssm_sample", counting)
    d = str(tmp_path)
    assert main(["selfsim", "--beta", "2.2", "--level", "12", "--out", d]) == 0
    assert calls == [(200000,)]
    assert _json(d, "selfsim.json")["witness"]["level"] == 12
    for name, want in SELFSIM_LEVEL_PINS.items():
        assert hashlib.sha256(_bytes(d, name)).hexdigest() == want, name


def test_counterexample_at_default_flags_is_reproducible(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["counterexample", "--seed", "3", "--out", d1]) == 0
    assert main(["counterexample", "--seed", "3", "--out", d2]) == 0
    assert _json(d1, "counterexample.json")["all_floors_met"] is True
    for name in ("counterexample.json", "counterexample.csv", "counterexample_manifest.json"):
        assert _bytes(d1, name) == _bytes(d2, name), name


def test_conditions_artifacts(tmp_path):
    d = str(tmp_path)
    rc = main(["conditions", "--iid", "7/10,3/10", "--m-max", "6", "--out", d])
    assert rc == 0
    payload = _json(d, "conditions.json")
    assert payload["alpha_hat"] == pytest.approx(math.log(10 / 7) / math.log(2), abs=1e-12)
    assert payload["entropy_nats"] > 0
    assert _lines(d, "conditions.csv")[0] == "k,depth,ess_sup_mass,near_diagonal_mass"


# -- exit codes -------------------------------------------------------------------


def test_exit_usage(tmp_path, capsys):
    d = str(tmp_path)
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["expand", "--beta", "2", "--x", "abc", "--out", d]) == 1
    assert main(["decay", "--beta", "2", "--out", d]) == 1  # neither --iid nor --source
    assert main(["orbit", "--beta", "1/0", "--x", "1/3", "--out", d]) == 1  # zero denominator
    # outside the closed-form regime: a domain error, not a crash
    assert main(["exponent", "--alpha", "2", "--beta", "2", "--grid", "0", "--out", d]) == 1
    capsys.readouterr()
    assert os.listdir(d) == []


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["expand", "--x", "1/3"],
    ["parry"],
    ["orbit", "--x", "1/3"],
    ["weyl", "--x", "1/3"],
    ["decay", "--iid", "1/2,1/2", "--workers", "1"],
    ["lemma32", "--mu", "parry"],
    ["invariance", "--x", "1/3"],
    ["selfsim"],
], ids=lambda argv: argv[0])
def test_a_base_too_large_for_a_float_is_refused(tmp_path, capsys, argv):
    # 10^400 overflows float(b), which parry, weyl, decay, lemma32,
    # invariance and selfsim read; every command refuses it before it runs
    d, huge = str(tmp_path), "1" + "0" * 400
    assert main([*argv, "--beta", huge, "--out", d]) == 1
    assert f"error: base {huge!r} is too large for a float" in capsys.readouterr().err
    assert os.listdir(d) == []


@pytest.mark.parametrize("argv, code", [
    (["classify"], 0),
    (["expand", "--x", "1/3"], 0),
    (["parry"], 0),
    (["orbit", "--x", "1/3", "--steps", "64"], 0),
    (["weyl", "--x", "1/3", "--N", "64"], 0),
    (["decay", "--iid", "1/2,1/2", "--workers", "1", "--N", "64", "--samples", "16"], 0),
    # m b^z overflows the NUFFT grid's node positions
    (["lemma32", "--mu", "parry"], 1),
    # and the uniform measure's node phases
    pytest.param(["lemma32"], 1, id="lemma32-uniform"),
    (["invariance", "--x", "1/3", "--N", "64"], 0),
    (["selfsim", "--samples", "20000"], 0),
    # the witness's cylinder gap, 1e-308, is within its edge slack
    pytest.param(["selfsim", "--samples", "20000", "--level", "3"], 1, id="selfsim-level"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_a_base_near_the_top_of_the_float_range_runs_or_names_the_base(tmp_path, capsys, argv,
                                                                       code):
    # 10^308 is a finite float, but b~ 2^128, the sum lo + hi of its bounds,
    # m b^z and the witness's b x are not: each command runs, or exits 1
    # naming the base
    d, huge = str(tmp_path), "1" + "0" * 308
    assert main([*argv, "--beta", huge, "--out", d]) == code
    if code:
        assert repr(huge) in capsys.readouterr().err
        assert os.listdir(d) == []


@pytest.mark.parametrize(
    "flags, message",
    [
        # one R bit per past coordinate must fit the int64 bucket key
        (("--window", "64"), "window must be <= 63"),
        # batch-means error over 25 groups; fewer pairs would write NaN
        (("--pairs", "10"), "cannot fill 25 batch groups"),
        # sizes are checked before any draw, not left to numpy's shape errors
        (("--pairs", "-5"), "cannot fill 25 batch groups"),
        (("--past", "-5"), "past_samples must be >= 1"),
    ],
)
def test_counterexample_rejects_bad_window_and_pairs(tmp_path, capsys, flags, message):
    d = str(tmp_path)
    assert main(["counterexample", "--seed", "3", *flags, "--out", d]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(os.path.join(d, "counterexample.json"))


@pytest.mark.parametrize("window, matched", [("20", 4), ("40", 0)])
def test_counterexample_pool_too_small_for_the_window(tmp_path, capsys, window, matched):
    # the auto pool of 304 pasts is too small for a long window: the error
    # says how many pasts found a partner and names the flags that help
    d = str(tmp_path)
    argv = ["counterexample", "--pairs", "100", "--window", window, "--seed", "1", "--out", d]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{matched} of the pool's 304 pasts found a partner" in err
    assert "at least 25 matched pairs" in err
    assert "--past" in err and "--window" in err
    assert os.listdir(d) == []


def test_zero_denominator_in_iid_is_a_usage_error(tmp_path, capsys):
    d = str(tmp_path)
    assert main(["conditions", "--iid", "1/0,1/2", "--out", d]) == 1
    assert "usage error: bad number list '1/0,1/2': '1/0'" in capsys.readouterr().err
    assert os.listdir(d) == []


def test_zero_denominator_in_source_file_exits_1(tmp_path, capsys):
    path = tmp_path / "source.json"
    path.write_text(json.dumps({"alphabet_size": 2, "order": 0, "rows": [["1/0", "1/2"]]}))
    d = str(tmp_path / "out")
    assert main(["conditions", "--source", str(path), "--out", d]) == 1
    assert "error: zero denominator" in capsys.readouterr().err
    assert not os.path.exists(d)  # not even an empty directory


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "error: cannot read source file {path}: No such file"),
        ('{"alphabet_size": 2, "order": 0}', "error: source file {path} has no key 'rows'"),
        ('{"alphabet_size": 2, "order": 0, "rows": [[null, "1/2"]]}',
         "error: transition entries must be numbers or fraction strings"),
    ],
    ids=["missing", "no-rows", "null-entry"],
)
def test_bad_source_file_exits_1(tmp_path, capsys, text, message):
    path = tmp_path / "source.json"
    if text is not None:
        path.write_text(text)
    d = str(tmp_path / "out")
    assert main(["conditions", "--source", str(path), "--out", d]) == 1
    assert message.format(path=path) in capsys.readouterr().err
    assert not os.path.exists(d)


@pytest.mark.parametrize("n", ["0", "1"])
def test_decay_rejects_orbits_shorter_than_two_points(tmp_path, capsys, n):
    d = str(tmp_path)
    rc = main(["decay", "--beta", "(1+sqrt5)/2", "--iid", "1/2,1/2", "--N", n,
               "--samples", "16", "--out", d])
    assert rc == 1
    assert f"usage error: --N must be at least 2, got {n}" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(d, "decay.json"))


@pytest.mark.parametrize(
    "command, flag",
    [("weyl", "--N"), ("invariance", "--N"), ("invariance", "--degrees"), ("orbit", "--steps")],
)
def test_orbit_lengths_below_one_are_usage_errors(tmp_path, capsys, command, flag):
    d = str(tmp_path)
    rc = main([command, "--beta", "(1+sqrt5)/2", "--x", "1/3", flag, "0", "--out", d])
    assert rc == 1
    assert f"usage error: {flag} must be at least 1, got 0" in capsys.readouterr().err
    assert os.listdir(d) == []


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command", ["orbit", "weyl", "invariance"])
def test_digits_required_below_one_is_a_usage_error(tmp_path, capsys, command, value):
    # below 1 no enclosure width would be asked of the orbit at all
    d = str(tmp_path)
    rc = main([command, "--beta", "2.2", "--x", "1/3", "--digits-required", value, "--out", d])
    assert rc == 1
    assert (f"usage error: --digits-required must be at least 1, got {value}"
            in capsys.readouterr().err)
    assert os.listdir(d) == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("exponent", "--alpha", "nan", "--beta", "1"), "--alpha"),
        (("exponent", "--alpha", "0.5", "--beta", "inf"), "--beta"),
        (("parry", "--beta", "5/2", "--tol=-inf"), "--tol"),
        (("lemma32", "--c", "nan"), "--c"),
        (("lemma32", "--mu", "selfsim", "--p0", "inf"), "--p0"),
        (("lemma32", "--r", "0.1,nan"), "--r"),
        (("selfsim", "--beta", "2.2", "--xi-max", "inf"), "--xi-max"),
        (("counterexample", "--beta-probes", "0.5,inf"), "--beta-probes"),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_non_finite_float_flags_are_usage_errors(tmp_path, capsys, argv, flag):
    d = str(tmp_path)
    assert main([*argv, "--out", d]) == 1
    assert f"usage error: {flag} must be finite" in capsys.readouterr().err
    assert os.listdir(d) == []


@pytest.mark.parametrize("epsilon", ["1/0", "abc", "(1+sqrt5)/8"])
def test_counterexample_epsilon_is_an_exact_rational(tmp_path, capsys, epsilon):
    # --epsilon is read in the descriptor grammar of --beta and --x: a zero
    # denominator, a non-number and an irrational are usage errors
    d = str(tmp_path)
    assert main(["counterexample", "--epsilon", epsilon, "--out", d]) == 1
    assert "usage error: --epsilon" in capsys.readouterr().err
    assert os.listdir(d) == []


@pytest.mark.parametrize(
    "argv",
    [("counterexample", "--seed", "3", "--pairs", "10"), ("lemma32", "--r", "0.1,nan")],
    ids=lambda v: v[0],
)
def test_usage_errors_leave_no_out_directory(tmp_path, capsys, argv):
    # the flags are checked inside the command, after the workspace exists
    d = tmp_path / "new"
    assert main([*argv, "--out", str(d)]) == 1
    assert "error" in capsys.readouterr().err
    assert not d.exists()


def test_write_json_refuses_non_finite_values(tmp_path):
    ws = cli.Workspace("exponent", str(tmp_path))
    with pytest.raises(ValueError, match="not JSON compliant"):
        ws.write_json({"closed_form": float("nan")})
    assert os.listdir(tmp_path) == [] and ws.outputs == []


# sha256 of decay.json and decay.csv for two small runs on base phi, taken
# with numpy 2.4 on x86-64 Linux.  The phases come from weyl._phases in real
# arithmetic, so the bytes do not depend on numpy's SIMD dispatch
# (test_pinned_bytes_at_the_baseline_dispatch).  They change only with a
# deliberate change of decay's numbers.
DECAY_PINS = {
    "iid": {
        "decay.json": "77c2deafe8e349703959ec8cf7109c44f8e24cf6a493a129d10afb9c4aaa40d2",
        "decay.csv": "572c5fb466a522a89221b4731a85538ba1bdf464de17b68ffe441b316b844508",
    },
    "markov": {
        "decay.json": "09044460f575315109b0ad49b7b3d181085bfede98e42904c8afb86e444a7db6",
        "decay.csv": "420851186c0b68978b2aa8a46d4265cc16538e5171f21ccee1a6d09890c9e0d8",
    },
}


def _markov_source(tmp_path) -> Path:
    """The order-2 source of the benchmark's decay probe, as a file."""
    path = tmp_path / "markov2.json"
    rows = [["3/4", "1/4"], ["2/5", "3/5"], ["1/2", "1/2"], ["1/5", "4/5"]]
    path.write_text(json.dumps({"alphabet_size": 2, "order": 2, "rows": rows}))
    return path


def _decay_pin_argv(label: str, source: Path) -> list[str]:
    """The command of the DECAY_PINS run `label`; the Markov run reads `source`."""
    if label == "iid":
        flags = ["--iid", "7/10,3/10", "--seed", "11"]
    else:
        flags = ["--source", str(source), "--seed", "12"]
    return ["decay", "--beta", "(1+sqrt5)/2", *flags, "--N", "2000", "--samples", "16"]


# the default worker count keeps the bare ids; explicit counts are suffixed
@pytest.mark.parametrize(
    "label, workers",
    [pytest.param(label, flags, id=label + "".join(f"-workers{n}" for n in flags[1:]))
     for flags in ((), ("--workers", "1"), ("--workers", "3")) for label in ("iid", "markov")],
)
def test_decay_bytes_are_pinned(tmp_path, label, workers):
    d = str(tmp_path / "out")
    assert main([*_decay_pin_argv(label, _markov_source(tmp_path)), *workers, "--out", d]) == 0
    for name, want in DECAY_PINS[label].items():
        assert hashlib.sha256(_bytes(d, name)).hexdigest() == want, name


def test_decay_rejects_a_negative_worker_count(tmp_path, capsys):
    d = str(tmp_path)
    rc = main(["decay", "--beta", "(1+sqrt5)/2", "--iid", "1/2,1/2", "--N", "400",
               "--samples", "16", "--workers", "-1", "--out", d])
    assert rc == 1
    assert "usage error: --workers must be at least 0, got -1" in capsys.readouterr().err
    assert os.listdir(d) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (("decay", "--beta", "(1+sqrt5)/2", "--iid", "7/10,3/10", "--fit-m-max", "2"),
         "--fit-m-max must be at least 3 for a meaningful fit, got 2"),
        (("decay", "--beta", "(1+sqrt5)/2", "--iid", "7/10,3/10", "--samples", "3"),
         "--samples must be at least 16, got 3"),
        (("decay", "--beta", "(1+sqrt5)/2", "--iid", "7/10,3/10", "--a", "1"),
         "--a must be at least 2, got 1"),
        (("conditions", "--iid", "7/10,3/10", "--m-max", "2"),
         "--m-max must be at least 3 for a meaningful fit, got 2"),
    ],
    ids=["fit-m-max", "samples", "a", "m-max"],
)
def test_flag_floors_are_usage_errors_before_any_sample(tmp_path, monkeypatch, capsys, argv,
                                                        message):
    def no_sample(src, digits, seed):
        raise AssertionError("a sample ran before the flags were checked")

    monkeypatch.setattr(weyl, "sample_point", no_sample)
    d = str(tmp_path)
    assert main([*argv, "--out", d]) == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert os.listdir(d) == []


def test_decay_checks_the_fit_depth_before_sampling(monkeypatch):
    # the library, like the CLI, rejects a too-shallow fit before the first sample
    def no_sample(src, digits, seed):
        raise AssertionError("a sample ran before the fit depth was checked")

    monkeypatch.setattr(weyl, "sample_point", no_sample)
    with pytest.raises(ValueError, match="need m_max >= 3"):
        weyl.mean_decay_profile(iid_source([Fraction(7, 10), Fraction(3, 10)]),
                                parse_beta("(1+sqrt5)/2"), 2, (1, 2, 3), n_points=100,
                                samples=16, seed=0, fit_m_max=2, workers=1)


@pytest.mark.parametrize(
    "beta, need",
    [
        # the tail bound b^-n/(b-1) <= 1e-10 needs about 4e8 terms for b = 1 + 1e-7
        ("1.0000001", "about 391,439,488"),
        # b's bound rounds to 1 as a float, where the estimate has no finite value
        ("1." + "0" * 30 + "1", "over 10^17"),
    ],
    ids=["1e-7", "1e-31"],
)
def test_parry_refuses_a_base_too_close_to_one(tmp_path, capsys, beta, need):
    d = str(tmp_path)
    t0 = time.perf_counter()
    assert main(["parry", "--beta", beta, "--out", d]) == 1
    assert time.perf_counter() - t0 < 2
    err = capsys.readouterr().err
    assert f"usage error: --beta {beta} needs {need} series terms at --tol 1e-10" in err
    assert f"at most {cli.MAX_PARRY_TERMS:,} are run" in err
    assert os.listdir(d) == []


def test_parry_series_refuses_a_base_that_rounds_to_one():
    # the library's own term search would otherwise divide by log(1.0) = 0
    with pytest.raises(ValueError, match="too close to 1"):
        ParryDensity(parse_beta("1." + "0" * 30 + "1"), 1e-10)


def test_lemma32_parry_refuses_a_base_too_close_to_one(tmp_path, capsys):
    # the sampler sums its series to cli.SAMPLE_TOL, about 4e8 terms here
    d = str(tmp_path)
    t0 = time.perf_counter()
    assert main(["lemma32", "--mu", "parry", "--beta", "1.0000001", "--out", d]) == 1
    assert time.perf_counter() - t0 < 2
    err = capsys.readouterr().err
    assert "usage error: --beta 1.0000001 needs about" in err
    assert f"at most {cli.MAX_PARRY_TERMS:,} are run" in err
    assert os.listdir(d) == []


# valid values of each command's required flags
_REQUIRED_FLAGS = {
    "classify": ("--beta", "2"),
    "expand": ("--beta", "2", "--x", "1/3"),
    "parry": ("--beta", "5/2"),
    "orbit": ("--beta", "2", "--x", "1/3"),
    "weyl": ("--beta", "2", "--x", "1/3"),
    "decay": ("--beta", "(1+sqrt5)/2", "--iid", "7/10,3/10"),
    "invariance": ("--beta", "2", "--x", "1/3"),
    "selfsim": ("--beta", "2.2"),
    "conditions": ("--iid", "7/10,3/10"),
}


def _declared_floors() -> list:
    """(command, flag, floor) of every flag the parser declares with a floor."""
    top = cli.build_parser()
    commands = next(a for a in top._actions if a.dest == "command").choices
    return [
        pytest.param(command, action.option_strings[0], action.floor,
                     id=command + action.option_strings[0])
        for command, parser in commands.items()
        for action in parser._actions
        if isinstance(action, cli._Floor)
    ]


@pytest.mark.parametrize("command, flag, floor", _declared_floors())
def test_every_declared_floor_is_a_usage_error_before_any_work(tmp_path, monkeypatch, capsys,
                                                                command, flag, floor):
    def no_sample(src, digits, seed):
        raise AssertionError("a sample ran before the flags were checked")

    monkeypatch.setattr(weyl, "sample_point", no_sample)
    d = str(tmp_path)
    argv = [command, *_REQUIRED_FLAGS.get(command, ()), f"{flag}={floor - 1}", "--out", d]
    assert main(argv) == 1
    assert f"usage error: {flag} must be" in capsys.readouterr().err
    assert os.listdir(d) == []


def test_precision_exhausted_in_a_pool_worker_exits_3(tmp_path, monkeypatch, capsys):
    if multiprocessing.get_context().get_start_method() != "fork":
        pytest.skip("only forked pool workers inherit the patched sampler")

    def exhausted(src, digits, seed):
        raise precision.PrecisionExhausted("budget cap reached in a worker")

    monkeypatch.setattr(weyl, "sample_point", exhausted)
    d = str(tmp_path)
    rc = main(["decay", "--beta", "(1+sqrt5)/2", "--iid", "1/2,1/2", "--N", "400",
               "--samples", "16", "--workers", "2", "--out", d])
    assert rc == 3
    assert "precision exhausted: budget cap reached in a worker" in capsys.readouterr().err
    assert os.listdir(d) == []


def test_a_failed_pooled_sample_stops_the_run(tmp_path, monkeypatch, capsys):
    # each worker's first sample fails and every later one would take 10 s:
    # the run must end at the first failure, not after the samples in flight
    if multiprocessing.get_context().get_start_method() != "fork":
        pytest.skip("only forked pool workers inherit the patched sampler")
    started = set()

    def first_fails(src, digits, seed):
        if os.getpid() not in started:
            started.add(os.getpid())
            raise precision.PrecisionExhausted("budget cap reached in a worker")
        time.sleep(10)
        raise AssertionError("a sample ran after the first failure")

    monkeypatch.setattr(weyl, "sample_point", first_fails)
    d = str(tmp_path)
    t0 = time.perf_counter()
    rc = main(["decay", "--beta", "(1+sqrt5)/2", "--iid", "1/2,1/2", "--N", "20000",
               "--samples", "64", "--workers", "2", "--out", d])
    assert time.perf_counter() - t0 < 5
    assert rc == 3
    assert "precision exhausted: budget cap reached in a worker" in capsys.readouterr().err
    assert os.listdir(d) == []


@pytest.mark.parametrize("beta", ["sqrt2", "sqrt8"])
def test_decay_rejects_a_surd_dependent_on_the_alphabet(tmp_path, capsys, beta):
    # sqrt2^2 = 2 and sqrt8^2 = 2^3, so neither orbit is independent of base-2 digits
    d = str(tmp_path)
    rc = main(["decay", "--beta", beta, "--iid", "1/2,1/2", "--N", "400", "--samples", "16",
               "--out", d])
    assert rc == 1
    assert "multiplicatively dependent" in capsys.readouterr().err
    assert os.listdir(d) == []


# sha256 of counterexample.json and .csv at --seed 3.  W = 8, 12 and 20 give
# the pair bucketing uint8, uint16 and uint32 sort keys.  They change only
# with a deliberate change of the estimates.
COUNTEREXAMPLE_PINS = {
    "8": {
        "counterexample.json": "4e4a01c19a0020ff08c3f713c7d879fef63aff009ed5700a35805bea38331f71",
        "counterexample.csv": "c354af096b2e754701db8b7a36964071efeef68eef77efe418ea2d8b37ef45b5",
    },
    "12": {
        "counterexample.json": "2edec6376f65807bab792067f1d4dab338e44abdfe128b60526d559c5c480fdd",
        "counterexample.csv": "2d4a4ce1fc8d6643506f89cec5bfb41f83e56c6c0a95089231932a544dcfab4e",
    },
    "20": {
        "counterexample.json": "f043323d18f8b2a70826915d27d93370351384d7dc7dcebf72b5db317eb711f7",
        "counterexample.csv": "2f6dceb5a38a0a9dcf0ec8cab85e7b8607d85705afb1805bdf339870f7796df4",
    },
}


@pytest.mark.parametrize("window", sorted(COUNTEREXAMPLE_PINS, key=int))
def test_counterexample_bytes_are_pinned(tmp_path, window):
    d = str(tmp_path)
    assert main(["counterexample", "--seed", "3", "--window", window, "--out", d]) == 0
    for name, want in COUNTEREXAMPLE_PINS[window].items():
        assert hashlib.sha256(_bytes(d, name)).hexdigest() == want, name


# -- bytes across numpy's SIMD dispatch ----------------------------------------------

# numpy picks some kernels at run time by the CPU's instruction set; disabling
# every dispatchable level in a child process makes it run numpy's baseline
# kernels, as on an x86-64 CPU without AVX2.  Other architectures and glibc's
# own per-CPU variants are not covered.
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__ as CPU_DISPATCH
except ImportError:  # numpy 1.x
    CPU_DISPATCH = []

_DISPATCH_CHILD = """
import hashlib, json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from betalab.cli import main
runs, out_dir = json.loads(sys.argv[1]), Path(sys.argv[2])
hashes = {"enabled": [f for f in __cpu_dispatch__ if __cpu_features__[f]]}
for label, argv in runs.items():
    assert main([*argv, "--out", str(out_dir / label)]) == 0, label
    hashes[label] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in (out_dir / label).iterdir()}
print(json.dumps(hashes))
"""


def _dispatch_runs(source: Path) -> dict:
    """label -> (argv, pinned hashes or None) for every pinned command and one
    invariance run, whose bytes are pinned by the in-process run."""
    runs = {f"decay-{k}": (_decay_pin_argv(k, source), DECAY_PINS[k]) for k in DECAY_PINS}
    runs.update({f"parry-{b}": (["parry", "--beta", b], PARRY_PINS[b]) for b in PARRY_PINS})
    runs["counterexample-8"] = (["counterexample", "--seed", "3", "--window", "8"],
                                COUNTEREXAMPLE_PINS["8"])
    runs["invariance"] = (["invariance", "--beta", "(1+sqrt5)/2", "--x", "314159/999983",
                           "--N", "20000"], None)
    return runs


@pytest.fixture(scope="module")
def baseline_dispatch_hashes(tmp_path_factory):
    """Artifact hashes of _dispatch_runs, written by one child process with
    every dispatchable SIMD level disabled."""
    if not CPU_DISPATCH:
        pytest.skip("this numpy dispatches no SIMD levels at run time")
    tmp = tmp_path_factory.mktemp("dispatch")
    runs = {label: argv for label, (argv, _) in _dispatch_runs(_markov_source(tmp)).items()}
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(CPU_DISPATCH),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", _DISPATCH_CHILD, json.dumps(runs), str(tmp / "child")],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])


@pytest.mark.parametrize("label", list(_dispatch_runs(Path("markov2.json"))))
def test_pinned_bytes_at_the_baseline_dispatch(baseline_dispatch_hashes, tmp_path, label):
    child = baseline_dispatch_hashes
    assert child["enabled"] == []  # the child ran numpy's baseline kernels only
    argv, want = _dispatch_runs(Path("markov2.json"))[label]
    if want is None:
        d = str(tmp_path / "out")
        assert main([*argv, "--out", d]) == 0
        want = {n: hashlib.sha256(_bytes(d, n)).hexdigest() for n in os.listdir(d)}
    for name, digest in want.items():
        assert child[label][name] == digest, name


@pytest.mark.parametrize("level", ["0", "3"])
def test_selfsim_without_samples_certifies_nothing(tmp_path, capsys, level):
    # an empty cloud has no defect to bound and no coverage to report
    d = str(tmp_path)
    rc = main(["selfsim", "--beta", "2.2", "--xi-max", "1000", "--samples", "0",
               "--level", level, "--out", d])
    assert rc == 1
    assert "need n >= 1 samples" in capsys.readouterr().err
    assert os.listdir(d) == []


@pytest.mark.parametrize(
    "flags",
    [("--grid", "0"), ("--grid", "-3"), ("--tol", "0"), ("--tol=-1e-3",), ("--tol", "inf"),
     ("--tol", "nan")],
)
def test_parry_rejects_bad_grid_and_tol(tmp_path, capsys, flags):
    d = str(tmp_path)
    assert main(["parry", "--beta", "5/2", *flags, "--out", d]) == 1
    assert "usage error: --" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(d, "parry.csv"))


def test_exit_precision_unresolvable_cut(tmp_path, capsys):
    # T_{3/2}(2/3) = 1 exactly; no finite binary enclosure can settle that cut
    d = str(tmp_path)
    rc = main(
        ["orbit", "--beta", "3/2", "--x", "2/3", "--steps", "5",
         "--method", "interval", "--out", d]
    )
    assert rc == 3
    assert "precision exhausted" in capsys.readouterr().err
    assert os.listdir(d) == []


def test_exit_precision_undecided_ln_enclosure(tmp_path, monkeypatch, capsys):
    # an enclosure of ln(n) that never narrows cannot certify a stage
    monkeypatch.setattr("betalab.coding.ln_bounds", lambda n, bits: (0, 10**6))
    rc = main(["counterexample", "--K", "1", "--pairs", "1000", "--out", str(tmp_path)])
    assert rc == 3
    assert "precision exhausted" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_exit_certification_failure_writes_no_manifest(tmp_path, monkeypatch, capsys):
    # upper ends rounded down: T(1/3) = 5/6 escapes its exact-path enclosure
    monkeypatch.setattr(precision, "round_up", precision.round_down)
    d = str(tmp_path)
    rc = main(["orbit", "--beta", "5/2", "--x", "1/3", "--steps", "3", "--out", d])
    assert rc == 2
    assert "certification failure: exact value escapes enclosure" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(d, "orbit_manifest.json"))


def test_exit_violation_still_writes_manifest(tmp_path, monkeypatch, capsys):
    # the library's own bounds hold, so force a defect past the 2/N budget
    monkeypatch.setattr(cli, "invariance_defects", lambda series, k: [1.0] * k)
    d = str(tmp_path)
    rc = main(
        ["invariance", "--beta", "2", "--x", "1/3", "--N", "200",
         "--degrees", "3", "--out", d]
    )
    assert rc == 2
    assert "invariant violation" in capsys.readouterr().err
    payload = _json(d, "invariance.json")
    assert payload["within_budget"] is False
    # artifacts and manifest must land on disk before the nonzero exit
    assert os.path.exists(os.path.join(d, "invariance_manifest.json"))



def test_lemma32_violation_exits_2_and_still_writes_manifest(tmp_path, monkeypatch, capsys):
    # the quadratures stay within their bound, so force a slack below the
    # quadrature budget
    sweep = cli.lemma32_sweep
    monkeypatch.setattr(cli, "lemma32_sweep", lambda *args, **kw: [
        replace(res, slack=-1.0, quad_error=0.0) for res in sweep(*args, **kw)])
    d = str(tmp_path)
    assert main(["lemma32", "--m", "4", "--r", "0.05", "--out", d]) == 2
    assert "invariant violation" in capsys.readouterr().err
    assert _json(d, "lemma32.json")["violations"] == 1
    assert os.path.exists(os.path.join(d, "lemma32_manifest.json"))


def test_selfsim_violation_exits_2_and_still_writes_manifest(tmp_path, monkeypatch, capsys):
    # the sampled cloud passes its own check, so force a defect past 4 sigma
    check = cli.ssm_invariance_check
    monkeypatch.setattr(cli, "ssm_invariance_check", lambda *args, **kw: replace(
        check(*args, **kw), within_budget=False))
    d = str(tmp_path)
    assert main(["selfsim", "--beta", "5/2", "--samples", "20000", "--out", d]) == 2
    assert "invariant violation" in capsys.readouterr().err
    assert _json(d, "selfsim.json")["invariance"]["within_budget"] is False
    assert os.path.exists(os.path.join(d, "selfsim_manifest.json"))


# -- artifact schemas ---------------------------------------------------------------

# Payloads built from result records carry the records' field names, so renaming
# a field renames an artifact field.  The key names are pinned here; the hashes
# pin the values.
_ESTIMATE_KEYS = {"estimate", "floor", "meets_floor", "n_pairs", "scale", "std_err", "window"}
_SCHEMAS = [
    (("classify", "--beta", "(1+sqrt5)/2", "--alphabet", "2"), {
        "": {"alphabet", "beta", "depth", "digit_string", "digits", "discontinuity_budget",
             "hit_zero_at", "m_b_lower", "m_b_lower_float", "max_zero_run", "period",
             "verdict"},
    }),
    (("parry", "--beta", "5/2", "--grid", "16", "--fourier", "2"), {
        "": {"beta", "fourier", "normalizer", "tol"},
        "fourier[*]": {"err", "m", "value"},
        "normalizer": {"hi", "lo", "mid"},
    }),
    (("lemma32", "--m", "4", "--r", "0.1"), {
        "": {"beta", "configs", "mu", "violations", "window"},
        "configs[*]": {"far_bound", "lhs", "m", "mass_cd", "near_mass", "nodes", "quad_error",
                       "r", "rhs", "slack", "violated"},
    }),
    (("selfsim", "--beta", "2.2", "--level", "4", "--samples", "2000", "--xi-max", "1e3"), {
        "": {"b", "beta", "fitted_c", "invariance", "invariance_defect", "p", "residual_max",
             "windows", "witness"},
        "invariance": {"max_defect", "n_intervals", "n_samples", "sigma_at_max",
                       "within_budget"},
        "witness": {"coverage_fraction", "level", "total_length"},
    }),
    (("counterexample", "--pairs", "1000"), {
        "": {"all_floors_met", "pairs", "report", "schedule", "seed", "window"},
        "schedule": {"epsilon", "l", "log_convention", "stages", "ycal_total"},
        "schedule.stages[*]": {"count", "depth", "n", "window", "y_mass", "ycal_mass"},
        "report": {"beta_probes", "caveat", "control", "control_beta_hat", "increasing",
                   "log_convention", "ratios", "stages", "verdict"},
        "report.stages[*]": _ESTIMATE_KEYS,
        "report.control[*]": _ESTIMATE_KEYS,
    }),
]


def _nodes_at(payload, path: str) -> list:
    """The JSON objects at a dotted path; a `name[*]` step enters every entry."""
    nodes = [payload]
    for part in filter(None, path.split(".")):
        nodes = [n[part.removesuffix("[*]")] for n in nodes]
        if part.endswith("[*]"):
            nodes = [entry for n in nodes for entry in n]
    return nodes


@pytest.mark.parametrize("argv, schema", _SCHEMAS, ids=[a[0] for a, _ in _SCHEMAS])
def test_artifact_key_names(tmp_path, argv, schema):
    d = str(tmp_path)
    assert main([*argv, "--out", d]) == 0
    payload = _json(d, f"{argv[0]}.json")
    for path, keys in schema.items():
        nodes = _nodes_at(payload, path)
        assert nodes, path
        assert all(set(n) == keys for n in nodes), path


# -- manifests and replay ---------------------------------------------------------


def test_manifest_fields(tmp_path):
    d = str(tmp_path)
    main(["classify", "--beta", "5/2", "--depth", "12", "--out", d])
    man = _json(d, "classify_manifest.json")
    assert man["command"] == "classify"
    assert man["args"]["beta"] == "5/2" and man["args"]["depth"] == 12
    assert "out" not in man["args"] and "func" not in man["args"]
    assert man["outputs"] == ["classify.csv", "classify.json"]
    assert set(man["versions"]) == {"betalab", "numpy", "python"}
    # replay contract: nothing time- or host-dependent may leak in
    flat = json.dumps(man).lower()
    for word in ("time", "date", "host", "hostname", "uuid"):
        assert word not in flat


# back to back in one process: different subcommands, a usage error and then
# a valid call, and one subcommand with different flags
_IN_PROCESS = [
    ["exponent", "--alpha", "1", "--beta", "1", "--grid", "0"],
    ["classify", "--beta", "5/2", "--depth", "12"],
    ["classify", "--depth", "12"],  # no --beta: usage error
    ["classify", "--beta", "(1+sqrt5)/2", "--alphabet", "2"],
    ["exponent", "--alpha", "1", "--beta", "1"],  # --grid back at its default
]


def _run_all(root: Path, fresh: bool) -> dict:
    """Exit code and artifact bytes of each _IN_PROCESS call; with fresh, the
    parser is rebuilt before every call."""
    out = {}
    for i, argv in enumerate(_IN_PROCESS):
        if fresh:
            cli._parser.cache_clear()
        d = root / str(i)
        rc = main([*argv, "--out", str(d)])
        out[i] = rc, {p.name: p.read_bytes() for p in sorted(d.iterdir())} if d.exists() else {}
    return out


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    fresh = _run_all(tmp_path / "fresh", fresh=True)
    cli._parser.cache_clear()
    shared = _run_all(tmp_path / "shared", fresh=False)
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [rc for rc, _ in shared.values()] == [0, 0, 1, 0, 0]
    assert "grid" in json.loads(shared[4][1]["exponent.json"])


def test_parser_sees_commands_replaced_after_import():
    # a tracer swaps cmd_* functions after import; the parser, built on the
    # first main call, dispatches to the swapped ones
    code = (
        "import betalab.cli as cli, tempfile\n"
        "calls = []\n"
        "orig = cli.cmd_exponent\n"
        "cli.cmd_exponent = lambda args, ws: calls.append(args.alpha) or orig(args, ws)\n"
        "rc = cli.main(['exponent', '--alpha', '1', '--beta', '1', '--grid', '0',\n"
        "               '--out', tempfile.mkdtemp()])\n"
        "assert (rc, calls) == (0, [1.0]), (rc, calls)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                   capture_output=True)


def test_replay_byte_identical(tmp_path):
    args = ["weyl", "--beta", "(1+sqrt5)/2", "--x", "1/3", "--m", "1,3",
            "--N", "2000"]
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", d1]) == 0
    assert main(args + ["--out", d2]) == 0
    for name in ("weyl.json", "weyl.csv", "weyl_manifest.json"):
        assert _bytes(d1, name) == _bytes(d2, name)
