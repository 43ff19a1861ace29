"""Central tolerance configuration.

Every "equals zero" decision in the engine goes through a named
tolerance so a run can be re-decided with different thresholds.
Magnitude-aware tests scale the threshold by (1 + local magnitudes).
"""

import math
from typing import NamedTuple


class Tolerances(NamedTuple):
    frame: float = 1e-9       # frame pairing residuals after integration
    zero: float = 1e-10       # a^2+b^2 and A^2-M^2 degeneracy cutoffs
    sing: float = 1e-8        # singularity / classification zero tests, magnitude scaled
    dual: float = 1e-8        # isotropy residual threshold
    rank_rtol: float = 1e-6   # front rank test: sigma_min > rank_rtol * sigma_max

    def with_overrides(self, overrides):
        """Return a copy with the named fields replaced.

        Unknown names and values that are not finite numbers >= 0 raise
        InvalidInputError, so CLI --tol typos surface.
        """
        from .errors import InvalidInputError

        values = {}
        for name, value in overrides.items():
            if name not in self._fields:
                raise InvalidInputError(f"unknown tolerance {name!r}")
            try:
                x = float(value)
            except (TypeError, ValueError):
                x = math.nan  # rejected below with the others
            if not (math.isfinite(x) and x >= 0.0):
                raise InvalidInputError(
                    f"tolerance {name!r} must be a finite number >= 0, got {value!r}")
            values[name] = x
        return self._replace(**values)


DEFAULT = Tolerances()


def is_zero(value, scale=0.0, tol=DEFAULT.sing):
    """Magnitude-aware zero test: |value| <= tol * (1 + scale)."""
    return abs(value) <= tol * (1.0 + abs(scale))
