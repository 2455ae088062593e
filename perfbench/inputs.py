"""Seeded inputs of the benchmark workloads.

Pure Python (no numpy, no homlab), so that run.py can build every input
before any worker starts. The same (workload, seed, draw, tiny) always
gives the same inputs; the library sees only what this module generates.
"""

import random
import re

WORKLOADS = ("cell", "sweep", "resolvent", "cli")

# Two-phase contrast pairs (low, high) of the shipped configs and of the
# acceptance tests. Every pass draws each pair within +-20 % of these.
PAIRS = {
    "cell": {"checkerboard": (1.0, 4.0), "laminate3d": (1.0, 4.0)},
    "sweep": {"laminate": (1.0, 4.0)},
    "resolvent": {
        "thermo_c": (1.0, 4.0), "thermo_kappa": (1.0, 2.0),
        "thermo_w": (0.8, 1.2), "thermo_rho": (1.0, 3.0),
        "maxwell_eps": (1.0, 4.0), "maxwell_mu": (1.0, 2.0),
        "maxwell_sigma": (0.5, 1.0),
    },
    "cli": {},
}

# The ten shipped configs that run in about a second each; the heavy ones
# (cell_checkerboard, laminate2d, thermo, maxwell, evo_two_scale) are covered
# in-process by the other workloads.
CLI_CONFIGS = (
    "1d_harmonic", "divcurl_compliant", "divcurl_counterexample", "divtest",
    "evo_perturbation", "helmholtz_box", "qdind_sin", "recover",
    "schur_identity", "solve1d",
)
TINY_CLI_CONFIGS = ("helmholtz_box", "solve1d")

# the in-process operations of one pass, in order (functions in ops.py)
OPERATIONS = {
    "cell": ("checkerboard", "laminate3d"),
    "sweep": ("hconv", "schur_equiv"),
    "resolvent": ("thermo", "maxwell", "two_scale_evo"),
}

SIZES = {
    "cell": {"checkerboard_cells": 256, "laminate_cells": 16},
    "sweep": {"hconv_n": [1, 2, 4, 8, 16], "schur_n": [1, 2, 4, 8],
              "cells_per_period": 16},
    "resolvent": {"thermo_n": [2, 4, 8, 16], "thermo_cells_per_period": 32,
                  "maxwell_n": [1, 2, 4, 8], "maxwell_transverse": 8,
                  "evo_n": [2, 4, 8], "evo_cells_per_period": 32},
    "cli": {},
}
TINY_SIZES = {
    "cell": {"checkerboard_cells": 16, "laminate_cells": 4},
    "sweep": {"hconv_n": [1, 2], "schur_n": [1, 2], "cells_per_period": 8},
    "resolvent": {"thermo_n": [2, 4], "thermo_cells_per_period": 8,
                  "maxwell_n": [1, 4], "maxwell_transverse": 4,
                  "evo_n": [2, 4], "evo_cells_per_period": 8},
    "cli": {},
}

CONTRAST_SPREAD = 0.2
PROBE_SEEDS = 1000


def make_inputs(workload, seed, draw=0, tiny=False):
    """Inputs of pass ``draw`` of a run: contrast pairs, probe seed, sizes.

    Every pass draws its own inputs, so that a run's median covers several
    of them. Passes come in antithetic pairs: pass 2j+1 mirrors each
    contrast factor of pass 2j about the shipped value, which keeps the
    median of a run near the shipped configs whatever the seed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}/{draw // 2}")
    sign = -1.0 if draw % 2 else 1.0

    def factor():
        return 1.0 + sign * CONTRAST_SPREAD * (2.0 * rng.random() - 1.0)

    pairs = {name: (low * factor(), high * factor())
             for name, (low, high) in PAIRS[workload].items()}
    inputs = {
        "workload": workload,
        "seed": seed,
        "draw": draw,
        "tiny": tiny,
        "probe_seed": rng.randrange(PROBE_SEEDS),
        "pairs": pairs,
        "sizes": dict((TINY_SIZES if tiny else SIZES)[workload]),
    }
    if workload == "cli":
        names = TINY_CLI_CONFIGS if tiny else CLI_CONFIGS
        inputs["configs"] = list(names)
        # factors for up to 8 contrast values (*low, *high) per config
        inputs["config_scale"] = {name: [factor() for _ in range(8)] for name in names}
    return inputs


_CONTRAST_KEY = re.compile(r"^(\w*(?:low|high))(\s*=\s*)(\S+)\s*$")


def perturb_config(text, scales):
    """Shipped config text with each ``*low``/``*high`` value scaled by the
    next factor of ``scales``; every other line is kept verbatim."""
    out = []
    factors = iter(scales)
    for line in text.splitlines(keepends=True):
        m = _CONTRAST_KEY.match(line)
        if m:
            value = float(m.group(3)) * next(factors)
            line = f"{m.group(1)}{m.group(2)}{value!r}\n"
        out.append(line)
    return "".join(out)
