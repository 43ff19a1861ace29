"""Seeded curve specs for the generated workloads.

Each template fixes an expression shape, a domain and a sample count.
Only the numeric coefficients written as ``{value}`` vary: each one is
scaled by a factor drawn uniformly from [0.95, 1.05] with a generator
seeded by (spec name, seed).  The cost of a run therefore does not
depend on the seed, while its inputs do.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

PERTURBATION = 0.05

# name -> (curvature templates m, n, a, b; (t0, t1, samples); expectation)
TEMPLATES = {
    # non-constant a^2 + b^2: the Frenet expression trees grow fastest
    "gen_h": (("{0.5}*t+{0.1}*sin(t)", "{1}", "{2}", "{0.1}*t"),
              (-1.5, 1.5, 21), "swallowtail"),
    # de Sitter sweep: M^2 > A^2 on the whole domain, one epsilon crossing
    "gen_d": (("{2}+{0.5}*t", "{0.7}*t", "{1}", "0"),
              (0.05, 2.0, 40), "swallowtail"),
    # long constant-coefficient integrations (about 20k substeps each)
    "bounded": (("{0.2}", "{1}", "{2}", "0"), (0.0, 40.0, 201), "cuspidal_edge"),
    "boosted": (("{1}", "{1}", "{2}", "0"), (0.0, 40.0, 201), "cuspidal_edge"),
}

_COEFF = re.compile(r"\{([0-9.]+)\}")


def perturb(template: str, rng: random.Random) -> str:
    """Replace every ``{value}`` by value * U(1 - p, 1 + p), six decimals."""
    def one(match):
        value = float(match.group(1)) * rng.uniform(1.0 - PERTURBATION, 1.0 + PERTURBATION)
        return f"{value:.6f}"
    return _COEFF.sub(one, template)


def generate(name: str, seed: int) -> str:
    """JSON text of the spec `name` for `seed`; identical for identical inputs."""
    curvature, (t0, t1, samples), _ = TEMPLATES[name]
    rng = random.Random(f"{name}:{seed}")
    doc = {
        "name": name,
        "curvature": dict(zip("mnab", (perturb(c, rng) for c in curvature))),
        "domain": {"t0": t0, "t1": t1, "samples": samples},
        "theta": {"min": -1.0, "max": 1.0, "samples": 21},
        "outputs": ["report"],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
