"""Flat text configuration format and CSV serialization.

Config lines, in any order, comments starting with '#':

    fleet_a = <real>
    fleet_b = <real>
    region beta_m=<real> beta_c=<real> epsilon=<real>
    region requests=<real> profit=<real> price=<real> demand=<real> epsilon=<real>

One region line per region, aggregate or raw form each. Reals serialize
with 17 significant digits so round-trips are exact.
"""

import math

from .errors import ParseError, ValidationError
from .game import GameSpec, RegionParams, region_from_raw

_AGGREGATE_KEYS = frozenset({"beta_m", "beta_c", "epsilon"})
_RAW_KEYS = frozenset({"requests", "profit", "price", "demand", "epsilon"})


def _real(token: str, line: int, key: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{key} is not a number: {token!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"{key} must be finite, got {token!r}", line)
    return value


def _parse_region(tokens: list[str], line: int) -> RegionParams:
    pairs: dict[str, float] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ParseError(f"expected key=value, got {token!r}", line)
        if key in pairs:
            raise ParseError(f"duplicate key {key!r}", line)
        pairs[key] = _real(value, line, key)
    keys = frozenset(pairs)
    try:
        if keys == _AGGREGATE_KEYS:
            return RegionParams(
                beta_m=pairs["beta_m"], beta_c=pairs["beta_c"], epsilon=pairs["epsilon"]
            )
        if keys == _RAW_KEYS:
            return region_from_raw(
                requests=pairs["requests"],
                profit_per_request=pairs["profit"],
                energy_price=pairs["price"],
                charging_demand=pairs["demand"],
                epsilon=pairs["epsilon"],
            )
    except ValidationError as exc:
        raise ParseError(str(exc), line) from None
    raise ParseError(
        "region needs keys beta_m/beta_c/epsilon or requests/profit/price/demand/epsilon, "
        f"got {sorted(pairs)}",
        line,
    )


def parse_config(text: str) -> GameSpec:
    """Parse a config document into a validated GameSpec.

    Region order in the document is preserved. Errors carry the offending
    line number.
    """
    fleets: dict[str, float] = {}
    regions: list[RegionParams] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "region":
            regions.append(_parse_region(tokens[1:], line_no))
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in ("fleet_a", "fleet_b"):
            raise ParseError(f"unrecognized line: {line!r}", line_no)
        if key in fleets:
            raise ParseError(f"duplicate {key}", line_no)
        fleet = _real(value.strip(), line_no, key)
        if fleet <= 0:
            raise ParseError(f"{key} must be > 0, got {fleet}", line_no)
        fleets[key] = fleet
    for key in ("fleet_a", "fleet_b"):
        if key not in fleets:
            raise ParseError(f"missing {key}")
    if not regions:
        raise ParseError("no region lines")
    return GameSpec(regions=tuple(regions), fleet_a=fleets["fleet_a"], fleet_b=fleets["fleet_b"])


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def format_config(spec: GameSpec) -> str:
    """Canonical serializer; parse_config(format_config(spec)) == spec."""
    lines = [f"fleet_a = {_fmt(spec.fleet_a)}", f"fleet_b = {_fmt(spec.fleet_b)}"]
    for region in spec.regions:
        lines.append(
            f"region beta_m={_fmt(region.beta_m)} beta_c={_fmt(region.beta_c)} "
            f"epsilon={_fmt(region.epsilon)}"
        )
    return "\n".join(lines) + "\n"


def emit_csv(records, m: int | None = None) -> str:
    """Serialize sweep records to CSV, byte-stable for identical inputs.

    The region count comes from the first record with a strategy, from
    the m argument otherwise, defaulting to 2 for an empty list. Records
    that carry an error serialize with empty numeric fields and location
    'error'.
    """
    records = list(records)
    if m is None:
        m = 2
        for record in records:
            if record.strategy is not None:
                m = record.strategy.m
                break
    header = (
        ["param"]
        + [f"x_a_{j}" for j in range(1, m + 1)]
        + [f"x_b_{j}" for j in range(1, m + 1)]
        + ["u_a", "u_b", "location", "t_lambda"]
    )
    lines = [",".join(header)]
    for record in records:
        if record.strategy is None:
            fields = [_fmt(record.parameter)] + [""] * (2 * m + 2) + ["error", ""]
            lines.append(",".join(fields))
            continue
        if record.strategy.m != m:
            raise ValidationError(
                f"records mix region counts: expected {m}, got {record.strategy.m}"
            )
        fields = [_fmt(record.parameter)]
        fields += [_fmt(v) for v in record.strategy.alloc_a.values]
        fields += [_fmt(v) for v in record.strategy.alloc_b.values]
        fields += [_fmt(record.u_a), _fmt(record.u_b), str(record.location)]
        fields.append("" if record.t_lambda is None else _fmt(record.t_lambda))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"
