"""The benchmark's three workloads, generated from a seed.

A workload is a list of `betalab` command lines plus the input files they
read.  The same (workload, seed) pair always gives the same commands and the
same files.  Each command names the check in `checks.py` that judges its
artifacts, and the parameters that check needs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

PHI = "(1+sqrt5)/2"

# Order-2 Markov source on {0, 1} for the finite-memory decay run.  One row
# per context (previous two symbols, most recent last: 00, 01, 10, 11), one
# entry per next symbol.  Every row is non-degenerate, so the chain has
# positive entropy, and the rows differ, so the memory is real.
MARKOV2_ROWS = [["3/4", "1/4"], ["2/5", "3/5"], ["1/2", "1/2"], ["1/5", "4/5"]]
MARKOV2_FILE = "inputs/markov2.json"

# Orbit lengths of the decay probe: the Markov decay, the i.i.d. decay and the
# invariance orbit, so the orbit cost reads as a curve in N.
DECAY_N_MARKOV = 5000
DECAY_N_IID = 10000
INVARIANCE_N = 20000
DECAY_SAMPLES = 16  # the least `mean_decay_profile` accepts


@dataclass(frozen=True)
class Command:
    label: str  # also the artifact directory of the command
    argv: tuple[str, ...]
    check: str  # name of a check function in checks.CHECKS
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    inputs: dict  # relative path -> file text
    commands: tuple[Command, ...]
    capture_orbit: int = 0  # length of the orbit kept for the mpmath check


def _point(rng: random.Random) -> Fraction:
    """A generic rational start point in (0, 1) with a six-digit denominator."""
    q = rng.randrange(100_003, 1_000_000)
    return Fraction(rng.randrange(1, q), q)


def decay_probe(seed: int) -> Workload:
    rng = random.Random(f"decay_probe:{seed}")
    seed_iid = rng.randrange(2**31)
    seed_markov = rng.randrange(2**31)
    x = _point(rng)
    source = {"alphabet_size": 2, "order": 2, "rows": MARKOV2_ROWS}
    commands = (
        Command(
            "decay_iid",
            ("decay", "--beta", PHI, "--iid", "7/10,3/10", "--N", str(DECAY_N_IID),
             "--samples", str(DECAY_SAMPLES), "--seed", str(seed_iid)),
            "decay",
            {"samples": DECAY_SAMPLES, "n_points": DECAY_N_IID},
        ),
        Command(
            "decay_markov",
            ("decay", "--beta", PHI, "--source", MARKOV2_FILE, "--N", str(DECAY_N_MARKOV),
             "--samples", str(DECAY_SAMPLES), "--seed", str(seed_markov)),
            "decay",
            {"samples": DECAY_SAMPLES, "n_points": DECAY_N_MARKOV, "rows": MARKOV2_ROWS},
        ),
        Command(
            "invariance",
            ("invariance", "--beta", PHI, "--x", str(x), "--N", str(INVARIANCE_N)),
            "invariance",
            {"x": str(x), "N": INVARIANCE_N},
        ),
    )
    return Workload("decay_probe", seed, {MARKOV2_FILE: json.dumps(source) + "\n"},
                    commands, capture_orbit=INVARIANCE_N)


def parry_density(seed: int) -> Workload:
    # Documented defaults on three fixed bases; nothing here depends on the
    # seed, so every seed gives the same commands.
    commands = tuple(
        Command(label, ("parry", "--beta", beta), "parry", {"b": exact})
        # the decimal 2.2 is the exact rational 11/5; phi has a closed form
        for label, beta, exact in (("parry_2.2", "2.2", "11/5"), ("parry_5-2", "5/2", "5/2"),
                                   ("parry_phi", PHI, "phi"))
    )
    return Workload("parry_density", seed, {}, commands)


def cli_sweep(seed: int) -> Workload:
    rng = random.Random(f"cli_sweep:{seed}")
    x_expand, x_rat, x_dec = _point(rng), _point(rng), _point(rng)
    alpha = rng.choice(["0.25", "0.5", "0.75", "1"])
    beta = rng.choice([b for b in ("0.5", "1", "1.5", "2", "3") if Fraction(b) >= Fraction(alpha)])
    k = rng.randrange(1, 20)
    iid = f"{k}/20,{20 - k}/20"
    mc_seed = rng.randrange(2**31)
    commands = (
        Command("classify_phi", ("classify", "--beta", PHI), "classify_phi"),
        Command("classify_2.2", ("classify", "--beta", "2.2", "--alphabet", "3"),
                "classify_rational", {"b": "11/5"}),
        Command("expand", ("expand", "--beta", PHI, "--x", str(x_expand)), "expand_phi",
                {"x": str(x_expand)}),
        Command("orbit_3-2", ("orbit", "--beta", "3/2", "--x", str(x_rat)), "orbit_rational",
                {"b": "3/2", "x": str(x_rat), "path": "exact"}),
        Command("orbit_2.2", ("orbit", "--beta", "2.2", "--x", str(x_dec)), "orbit_rational",
                {"b": "11/5", "x": str(x_dec), "path": "interval"}),
        Command("weyl", ("weyl", "--beta", "2", "--x", "1/3", "--m", "1", "--N", "10000"),
                "weyl_doubling"),
        Command("exponent", ("exponent", "--alpha", alpha, "--beta", beta), "exponent",
                {"alpha": alpha, "beta": beta}),
        Command("selfsim", ("selfsim", "--beta", "2.2", "--seed", str(mc_seed)), "selfsim"),
        Command("counterexample", ("counterexample", "--seed", str(mc_seed)), "counterexample"),
        Command("conditions", ("conditions", "--iid", iid), "conditions",
                {"probs": [f"{k}/20", f"{20 - k}/20"]}),
        Command("lemma32", ("lemma32", "--mu", "parry", "--beta", PHI, "--m", "4,64,256",
                            "--seed", str(mc_seed)), "lemma32"),
    )
    return Workload("cli_sweep", seed, {}, commands)


WORKLOADS = {"decay_probe": decay_probe, "parry_density": parry_density, "cli_sweep": cli_sweep}


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[name](seed)
