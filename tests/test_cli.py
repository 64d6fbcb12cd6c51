"""Front-end checks: exit codes, artifact shapes, manifest replay.

Library numerics are covered by the module tests; here we only pin the
plumbing contract (descriptor parsing, JSON/CSV layout, determinism).
"""

import hashlib
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import betalab.cli as cli
from betalab import precision, weyl
from betalab.cli import UsageError, main, parse_point
from betalab.exactnum import Quadratic
from betalab.precision import parse_exact

# seed-0 artifact hashes of the benchmark's commands; read here, never written
REFERENCE_HASHES = Path(__file__).resolve().parents[1] / "bench" / "reference_hashes.json"


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
    assert os.listdir(d) == []


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


def test_exit_precision_undecided_ln_enclosure(tmp_path, monkeypatch, capsys):
    # an enclosure of ln(n) that never narrows cannot certify a stage
    monkeypatch.setattr("betalab.coding.ln_bounds", lambda n, bits: (0, 10**6))
    rc = main(["counterexample", "--K", "1", "--pairs", "1000", "--out", str(tmp_path)])
    assert rc == 3
    assert "precision exhausted" in capsys.readouterr().err


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


def test_replay_byte_identical(tmp_path):
    args = ["weyl", "--beta", "(1+sqrt5)/2", "--x", "1/3", "--m", "1,3",
            "--N", "2000"]
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", d1]) == 0
    assert main(args + ["--out", d2]) == 0
    for name in ("weyl.json", "weyl.csv", "weyl_manifest.json"):
        assert _bytes(d1, name) == _bytes(d2, name)
