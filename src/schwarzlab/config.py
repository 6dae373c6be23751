"""Default numerical tolerances, collected in one place.

Every tolerance that a bound check or solver consults lives here so that the
CLI can override them uniformly and reports can record the effective values.
`spec_params` reads the parameters of JSON specs, refusing a key their kind
does not name, and `spec_param` each numeric one: a value that is not a finite
number is bad input (`InvalidInput`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable

from .errors import InvalidInput


@dataclass(frozen=True)
class Tolerances:
    # quadrature: how deep the transform table grades its end cells
    quad_abs_tol: float = 1e-12
    # monotone transform inversion: |H(result) - t| <= inverse_rel_tol * r
    inverse_rel_tol: float = 1e-12
    # slack below which a bound check still counts as passed
    slack_tol: float = 1e-9
    # finite-difference oracle: stops below fd_update_tol, raises after
    # fd_max_sweeps; one "sweep" is one defect-correction step (one linear
    # solve); 208 converging cases (11 metrics, 10 boundaries, n = 33 and
    # 65) took 2-86 of them
    fd_update_tol: float = 1e-10
    fd_max_sweeps: int = 1000
    # boundary sampling
    boundary_samples: int = 1024
    # default check grid
    grid_radii: int = 24
    grid_angles: int = 96
    grid_radius: float = 0.95

    def __post_init__(self):
        for key, value in asdict(self).items():
            if not math.isfinite(value):
                raise InvalidInput(f"tolerance {key!r} must be finite, got {value!r}")
        # a negative slack band, a tolerance of zero or less or a sweep cap
        # below one lies outside its range: bad input, refused before a run
        if self.slack_tol < 0.0:
            raise InvalidInput(f"tolerance 'slack_tol' must be >= 0, got {self.slack_tol!r}")
        for key in ("quad_abs_tol", "inverse_rel_tol", "fd_update_tol"):
            value = getattr(self, key)
            if value <= 0.0:
                raise InvalidInput(f"tolerance {key!r} must be positive, got {value!r}")
        if self.fd_max_sweeps < 1:
            raise InvalidInput(
                f"tolerance 'fd_max_sweeps' must be at least 1, got {self.fd_max_sweeps!r}")
        # the check grid is input: a radius outside (0, 1) would put points
        # off the disk, and a grid needs at least one ring and one spoke
        if not 0.0 < self.grid_radius < 1.0:
            raise InvalidInput(f"grid_radius must lie in (0, 1), got {self.grid_radius!r}")
        if self.grid_radii < 1 or self.grid_angles < 1:
            raise InvalidInput("grid_radii and grid_angles must be at least 1")

    def replaced(self, **overrides: float) -> "Tolerances":
        data = asdict(self)
        for key, value in overrides.items():
            if key not in data:
                raise InvalidInput(f"unknown tolerance {key!r}")
            kind = type(data[key])
            try:
                data[key] = kind(value)
            except (ValueError, OverflowError) as exc:
                raise InvalidInput(f"bad value {value!r} for tolerance {key!r}") from exc
            # a count takes only integral values: int() would truncate 2.7 to 2
            if kind is int and data[key] != value:
                raise InvalidInput(f"tolerance {key!r} needs an integer, got {value!r}")
        return Tolerances(**data)


DEFAULT = Tolerances()


def spec_params(spec: dict, *keys: str, top: tuple[str, ...] = ()) -> dict:
    """The "params" object of a JSON spec ({} when absent or null).

    A spec reader names the keys of its kind: `keys` inside "params", and
    `top` beside "kind" and "params".  Any other key is bad input.
    """
    for key in spec:
        if key not in ("kind", "params", *top):
            raise InvalidInput(f"unknown key {key!r} in the {spec['kind']!r} spec")
    params = spec.get("params") or {}
    if not isinstance(params, dict):
        raise InvalidInput(f"spec params must be an object, got {params!r}")
    for key in params:
        if key not in keys:
            raise InvalidInput(f"unknown parameter {key!r} in the {spec['kind']!r} spec")
    return params


def spec_param(params: dict, key: str, default=None, kind: Callable = float):
    """params[key] (or `default` when absent) converted by `kind`.

    The value must be a finite number (or a string that reads as one); a
    boolean is not a number here, and an `int` parameter takes only integral
    values, since int() would truncate 1.7 to 1.
    """
    value = params.get(key, default)
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        number = float(value)
        if not math.isfinite(number) or (kind is int and not number.is_integer()):
            raise ValueError("not a finite number of the kind asked for")
        return kind(number)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(
            f"spec parameter {key!r} needs a finite number, got {value!r}") from exc
