"""Singular points as columns: the loci table, and the records and types
that a row of it is built into.

The classifiers of focal and evolute fill loci tables, the pipeline joins
them and writes the report and the loci CSV from their columns; a
SingularPointRecord is built from a row only when a caller asks for one.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np


class SingularityType(enum.Enum):
    REGULAR = "Regular"
    CUSPIDAL_EDGE = "CuspidalEdge"
    SWALLOWTAIL = "Swallowtail"
    CUSPIDAL_BEAKS = "CuspidalBeaks"
    CUSPIDAL_LIPS = "CuspidalLips"
    CUSPIDAL_CROSS_CAP = "CuspidalCrossCap"
    DEGENERATE_UNCLASSIFIED = "DegenerateUnclassified"


class SurfaceParam(NamedTuple):
    t: float
    theta: float


class _MutableRecord:
    """A record that later stages fill in place: equal to a record of its
    class field by field, and printed as Name(field=value, ...)."""

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class SingularPointRecord(_MutableRecord):
    """A located singular point with its classification diagnostics, which
    classify_h and classify_d fill in."""

    def __init__(self, surface: str, param: SurfaceParam, lam: float, sigma_f: float,
                 type: SingularityType = SingularityType.DEGENERATE_UNCLASSIFIED,
                 nondegenerate: bool = False, whole_fiber: bool = False,
                 diagnostics: dict | None = None):
        self.surface, self.param, self.lam, self.sigma_f = surface, param, lam, sigma_f
        self.type, self.nondegenerate, self.whole_fiber = type, nondegenerate, whole_fiber
        self.diagnostics = {} if diagnostics is None else diagnostics


# the surfaces of a loci table, by name, and its types: a row's codes index them
LOCI_SURFACES = ("dual_ed", "dual_eh", "focal_d", "focal_h")
TYPES = tuple(SingularityType)


def _code(member) -> int:
    """The code of an enum member: its position in its enum."""
    return list(type(member)).index(member)


_CORE = (("surface", int), ("t", float), ("theta", float), ("lam", float),
         ("sigma_f", float), ("type", int), ("nondegenerate", bool), ("whole_fiber", bool))


class LociTable:
    """Singular points as columns of a row each: the surface code, t, theta,
    lambda, sigma_F, the type code, nondegenerate and whole_fiber, and the
    classifiers' diagnostics columns by name, in (first row, columns)
    blocks.  len() is the row count; a row, indexed or iterated, is built
    into a SingularPointRecord only when a caller asks for it."""

    __slots__ = (*(name for name, _ in _CORE), "diagnostics")

    def __init__(self, surface, t, theta, lam, sigma_f, whole_fiber):
        """The unclassified rows of the surface named `surface`."""
        self.surface = np.full(len(t), LOCI_SURFACES.index(surface))
        self.t, self.theta, self.lam, self.sigma_f, self.whole_fiber = (
            t, theta, lam, sigma_f, whole_fiber)
        self.type = np.full(len(t), _code(SingularityType.DEGENERATE_UNCLASSIFIED))
        self.nondegenerate, self.diagnostics = np.zeros(len(t), dtype=bool), [(0, {})]

    @classmethod
    def join(cls, tables) -> "LociTable":
        """The rows of the tables, one after another."""
        out, start = cls.__new__(cls), 0
        for name, dtype in _CORE:
            setattr(out, name, np.concatenate([np.empty(0, dtype)]
                                              + [getattr(tab, name) for tab in tables]))
        out.diagnostics = []
        for tab in tables:
            out.diagnostics += [(start + first, cols) for first, cols in tab.diagnostics]
            start += len(tab)
        return out

    def __len__(self):
        return len(self.t)

    def __getitem__(self, i) -> SingularPointRecord:
        i = range(len(self))[i]  # an IndexError past the end ends an iteration
        t, theta, lam, sigma = (float(c[i]) for c in (self.t, self.theta, self.lam, self.sigma_f))
        surface, whole = LOCI_SURFACES[self.surface[i]], bool(self.whole_fiber[i])
        diag = {}
        if surface.startswith("focal"):
            diag = {"lambda_at_root": lam} if whole else {"lambda_at_root": lam, "sigma_f": sigma}
        first, cols = next(b for b in reversed(self.diagnostics) if b[0] <= i)
        diag.update(_diagnostics(cols, i - first))
        return SingularPointRecord(surface, SurfaceParam(t, theta), lam, sigma,
                                   TYPES[self.type[i]], bool(self.nondegenerate[i]), whole, diag)


def _diagnostics(cols, i) -> dict:
    """The diagnostics of row i of a block of classifier columns: those of
    its branch (`branch` is the branch-b mask) in the classifier's order."""
    diag = {k: c[i].item() for k, c in cols.items()}
    if "branch" in diag:
        b = diag["branch"]
        diag["branch"] = "b" if b else "a"
        drop = ("epsilon", "epsilon_prime") if b else (
            "c1_nondegeneracy", "c2_mixed_derivative", "c3_second_order")
        for k in drop + (() if diag["epsilon_via_closed_form"] else ("epsilon_via_closed_form",)):
            del diag[k]
    return diag
