"""Problem config files.

Line-oriented ``key = value`` in four sections::

    [problem]           beta (required)
    [revenue]           family = linear_demand | table, plus family params
    [cost]              family = affine | cubic | table, plus family params
    [sets]              q = interval LO HI | finite V1 V2 ...
                        a = interval LO HI | right_ray LO | finite V1 V2 ...

Family params: linear_demand takes A and B; affine takes c; cubic takes K;
table takes points as comma-separated x:y pairs, e.g.
``points = 0:0, 0.5:0.4, 1:0.5``.  Unknown sections or keys are rejected
so typos fail loudly instead of silently using defaults.  Files are read as
UTF-8, whatever the locale.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .errors import InvalidParameter
from .problem import ControlSet, Curve, ProblemSpec

_KNOWN = {
    "problem": {"beta"},
    "revenue": {"family", "A", "B", "points"},
    "cost": {"family", "c", "K", "points"},
    "sets": {"q", "a"},
}


def _fail(msg: str) -> None:
    raise InvalidParameter(f"{msg}; sections [problem] [revenue] [cost] "
                           f"[sets], see config module docs for keys")


def _float(section: dict, sec: str, key: str) -> float:
    if key not in section:
        _fail(f"[{sec}] is missing required key '{key}'")
    try:
        return float(section[key])
    except ValueError:
        _fail(f"[{sec}] {key} = {section[key]!r} is not a number")


def _points(raw: str):
    pts = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.split(":")
        if len(parts) != 2:
            _fail(f"table point {tok!r} is not of the form x:y")
        try:
            pts.append((float(parts[0]), float(parts[1])))
        except ValueError:
            _fail(f"table point {tok!r} is not a pair of numbers")
    if len(pts) < 2:
        _fail("table needs at least two x:y points")
    return pts


def _curve(section: dict, sec: str) -> Curve:
    fam = section.get("family")
    if fam == "linear_demand" and sec == "revenue":
        return Curve.linear_demand_revenue(_float(section, sec, "A"),
                                           _float(section, sec, "B"))
    if fam == "affine" and sec == "cost":
        return Curve.affine_cost(_float(section, sec, "c"))
    if fam == "cubic" and sec == "cost":
        return Curve.cubic_cost(_float(section, sec, "K"))
    if fam == "table":
        if "points" not in section:
            _fail(f"[{sec}] family table needs a points key")
        return Curve.table(_points(section["points"]))
    _fail(f"[{sec}] family = {fam!r} not recognized for this section")


def _control_set(raw: str, allow_ray: bool, label: str) -> ControlSet:
    toks = raw.split()
    if not toks:
        _fail(f"[sets] {label} is empty")
    kind, args = toks[0], toks[1:]
    try:
        vals = [float(t) for t in args]
    except ValueError:
        _fail(f"[sets] {label}: non-numeric bound in {raw!r}")
    if kind == "interval" and len(vals) == 2:
        return ControlSet.interval(*vals)
    if kind == "right_ray" and len(vals) == 1:
        if not allow_ray:
            _fail(f"[sets] {label}: demand set cannot be a ray")
        return ControlSet.right_ray(vals[0])
    if kind == "finite" and len(vals) >= 2:
        return ControlSet.finite(vals)
    _fail(f"[sets] {label} = {raw!r} not recognized")


def apply_overrides(parser: configparser.ConfigParser, overrides) -> None:
    """Apply repeatable ``section.key=value`` strings on top of a file."""
    for item in overrides or ():
        head, sep, value = item.partition("=")
        if not sep:
            _fail(f"override {item!r} lacks '='")
        sec, dot, key = head.strip().partition(".")
        if not dot:
            _fail(f"override key {head!r} must be section.key")
        if not parser.has_section(sec):
            parser.add_section(sec)
        parser.set(sec, key.strip(), value.strip())


def load_problem(path, overrides=()) -> ProblemSpec:
    """Parse a config file (plus overrides) into a ProblemSpec."""
    path = Path(path)
    if not path.is_file():
        _fail(f"config file {path} not found")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except UnicodeDecodeError as exc:
        _fail(f"config file {path} is not UTF-8: {exc}")
    except configparser.Error as exc:
        _fail(f"cannot parse {path}: {exc}")
    apply_overrides(parser, overrides)

    for sec in parser.sections():
        if sec not in _KNOWN:
            _fail(f"unknown section [{sec}]")
        for key in parser[sec]:
            if key not in _KNOWN[sec]:
                _fail(f"unknown key '{key}' in [{sec}]")
    for sec in ("problem", "revenue", "cost", "sets"):
        if not parser.has_section(sec):
            _fail(f"missing section [{sec}]")

    prob = dict(parser["problem"])
    beta = _float(prob, "problem", "beta")

    revenue = _curve(dict(parser["revenue"]), "revenue")
    cost = _curve(dict(parser["cost"]), "cost")
    sets = dict(parser["sets"])
    if "q" not in sets or "a" not in sets:
        _fail("[sets] needs both q and a")
    q_set = _control_set(sets["q"], allow_ray=False, label="q")
    a_set = _control_set(sets["a"], allow_ray=True, label="a")

    return ProblemSpec(beta=beta, demand_set=q_set, production_set=a_set,
                       revenue=revenue, cost=cost)
