"""Command-line runner: configured experiments to CSV/JSON artifacts.

Every command reads a single JSON config and writes data files plus a
run_manifest.json into --out.  Manifests carry the full config echo,
integrator statistics, event logs, and residual or drift reports; they
contain no timestamps, so identical configs give byte-identical output.

A command fills its manifest and signals a failure by raising; _dispatch
alone maps the outcome to the exit code.  0: success.  1: a config or
domain error (ConfigError or any ValueError), or an output that cannot be
written (OSError); one stderr line, no manifest.
2: a numerical failure (IntegrationError, QuadratureError, NoRoot or any
ArithmeticError, a non-finite integral or residual and a run that stops
early included); one stderr line, and the manifest as filled so far plus
`error`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__, analysis, invariants, systems
from .core import (Trajectory, _blocks, crossing_times, drift_metric,
                   resample)
from .integrate import (_METHODS, Event, IntegrationError, IntegratorSettings,
                        integrate)
from .systems import AngleFunction

__all__ = ["ConfigError", "main"]


class ConfigError(Exception):
    """Bad config document; maps to exit code 1."""


def _require_unique(names: list, what: str) -> None:
    """ConfigError naming each of names that occurs more than once."""
    dupes = sorted({name for name in names if names.count(name) > 1})
    if dupes:
        raise ConfigError(f"duplicate {what}(s): {', '.join(dupes)}")


# -- config plumbing ---------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to read
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


# A schema maps each allowed key to (checker, default).  A checker takes
# (value, where) and returns the parsed value or raises ConfigError; a
# nested schema checks a nested object.  An absent key takes the default,
# which is checked like a given value, except that a None default (optional,
# no value) stays None; a given value, JSON null included, is always checked.

_REQUIRED = object()


def _parse(obj: Any, schema: dict, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    out = {}
    for key, (check, default) in schema.items():
        if key in obj:
            value = obj[key]
        elif default is _REQUIRED:
            raise ConfigError(f"missing key {key} in {where}")
        else:
            value = default
        if key in obj or value is not None:
            sub = f"{where}.{key}"
            value = (_parse(value, check, sub) if isinstance(check, dict)
                     else check(value, sub))
        out[key] = value
    return out


def _any(value: Any, where: str) -> Any:
    return value


def _num(value: Any, where: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or value != value):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ConfigError(f"{where} is an integer too large for a float") from None
    if math.isinf(x):  # JSON's Infinity; r0 spells infinity "inf"
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return x


def _num_or_inf(value: Any, where: str) -> float:
    return math.inf if value == "inf" else _num(value, where)


def _positive(value: Any, where: str) -> float:
    x = _num(value, where)
    if not x > 0.0:
        raise ConfigError(f"{where} must be positive, got {value!r}")
    return x


def _int(lo: int, hi: int | None = None) -> Callable[[Any, str], int]:
    def check(value: Any, where: str) -> int:
        if (isinstance(value, bool) or not isinstance(value, int) or value < lo
                or (hi is not None and value > hi)):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ConfigError(f"{where} must be an integer {bound}, got {value!r}")
        return value
    return check


def _typed(kind: type, what: str) -> Callable[[Any, str], Any]:
    def check(value: Any, where: str) -> Any:
        if not isinstance(value, kind):
            raise ConfigError(f"{where} must be {what}, got {value!r}")
        return value
    return check


_bool = _typed(bool, "a boolean")


def _choice(*options: str) -> Callable[[Any, str], str]:
    def check(value: Any, where: str) -> str:
        if value not in options:
            raise ConfigError(
                f"{where} must be one of {', '.join(options)}, got {value!r}")
        return value
    return check


def _list(item: Callable[[Any, str], Any], lo: int = 0,
          hi: int | None = None) -> Callable[[Any, str], list]:
    """A list of lo to hi items, each passing `item`."""
    size = f"{lo}" if lo == hi else f"{lo} to {hi}" if hi else f"at least {lo}"

    def check(value: Any, where: str) -> list:
        if (not isinstance(value, list) or len(value) < lo
                or (hi is not None and len(value) > hi)):
            raise ConfigError(f"{where} must be a list of {size} items")
        return [item(x, f"{where}[{i}]") for i, x in enumerate(value)]
    return check


def _nums(lo: int, hi: int | None = None) -> Callable[[Any, str], list]:
    return _list(_num, lo, hi)


def _span(value: Any, where: str) -> tuple[float, float]:
    start, stop = _nums(2, 2)(value, where)
    if not start < stop:
        raise ConfigError(f"{where} must be [start, stop] with start < stop")
    return start, stop


def _family(obj: Any, table: dict, where: str) -> Any:
    """Build table[family] from an object {"family": name, **keys}."""
    family = obj.get("family") if isinstance(obj, dict) else None
    if not isinstance(family, str) or family not in table:
        raise ConfigError(f"{where}.family must be one of {sorted(table)}")
    make, schema = table[family]
    return make(**_parse({k: v for k, v in obj.items() if k != "family"},
                         schema, where))


_ANGLES = {
    "zero": (AngleFunction.zero, {}),
    "constant": (AngleFunction.constant, {"c": (_num, 0.0)}),
    "linear_theta": (AngleFunction.linear_theta, {"c": (_num, 1.0)}),
    "cos": (AngleFunction.cos, {"c": (_num, 1.0), "k": (_num, 1.0)}),
    "sin": (AngleFunction.sin, {"c": (_num, 1.0), "k": (_num, 1.0)}),
    "poly": (lambda coeffs: AngleFunction.poly(*coeffs),
             {"coeffs": (_nums(0, 4), _REQUIRED)}),
}


def _angle(value: Any, where: str) -> AngleFunction:
    return _family({"family": value} if isinstance(value, str) else value,
                   _ANGLES, where)


_FIELDS = {
    "ermakov": (systems.ErmakovField, {"w": (_num, 0.0),
                                       "U": (_angle, "zero"),
                                       "V": (_angle, "zero")}),
    "gorringe_leach": (systems.GorringeLeachField, {"U": (_angle, "zero"),
                                                    "V": (_angle, "zero")}),
    "isotropic": (systems.IsotropicField, {"mu": (_num, _REQUIRED)}),
    "isotropic_drag": (systems.IsotropicDragField, {"mu": (_num, _REQUIRED),
                                                    "nu": (_num, _REQUIRED)}),
}


def _field(value: Any, where: str) -> systems.ForceField:
    return _family(value, _FIELDS, where)


_STATE = {"r": (_positive, _REQUIRED), "theta": (_num, 0.0),
          "rdot": (_num, 0.0), "thetadot": (_num, 0.0)}


def _state(value: Any, where: str) -> np.ndarray:
    s = _parse(value, _STATE, where)
    return np.array([s["r"], s["theta"], s["rdot"], s["thetadot"]])


# integrator keys a config may set; an absent key takes IntegratorSettings'
# default, and an absent t_span the command's default span.  A command's
# schema may name its own default method, as simulate's does.  rel_tol and
# abs_tol belong to rk45 and dop853 and h to rk4; IntegratorSettings refuses
# the others
_INTEGRATOR = {
    "method": (_choice(*_METHODS), None),
    "rel_tol": (_num, None),
    "abs_tol": (_num, None),
    "h": (_num, None),
    "t_span": (_span, None),
    "max_steps": (_int(1, 1_000_000), None),
}


def _integrator(block: dict, default_span: tuple[float, float],
                events: Sequence[Event] = ()) -> IntegratorSettings:
    """Settings from integrator keys, None meaning the default.

    The block's t_span wins over default_span.
    """
    kwargs = {k: v for k, v in block.items() if v is not None}
    kwargs.setdefault("t_span", default_span)
    try:
        return IntegratorSettings(events=tuple(events), **kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad integrator settings: {exc}") from exc


def _run(rhs: Callable, y0: Sequence[float], settings: IntegratorSettings,
         ends: Sequence[str] = ("completed",)) -> Trajectory:
    """integrate(); a run not ending by `ends` raises IntegrationError.

    A fixed-step run without events ends only by its last step, so one whose
    step count is certain to exceed max_steps is refused before it steps.
    The last step is the one that has at most stretch * h left, so the loop
    takes more than max_steps steps when the span is more than max_steps - 1
    + stretch of the most a step can advance t: h plus the rounding of t + h.
    This holds only when every step advances, that is when h is at least an
    ulp of every t on the span; counts within 1e-9 of the bound are left to
    the loop.
    """
    m = _METHODS[settings.method]
    if not m.norm and not settings.events:
        (t0, t1), h = settings.t_span, settings.h
        reach = max(abs(t0), abs(t1))
        if (h >= math.ulp(reach) and (t1 - t0) / (h + math.ulp(reach + h))
                > (settings.max_steps - 1 + m.stretch) * (1.0 + 1e-9)):
            raise IntegrationError(
                f"{settings.method} needs more than max_steps="
                f"{settings.max_steps} steps of h={h} over t_span=({t0}, {t1})")
    traj = integrate(rhs, y0, settings)
    if traj.termination not in ends:
        what = ("ended without its stop event"
                if traj.termination == "completed"
                else f"stopped early ({traj.termination})")
        raise IntegrationError(f"run {what} at t={traj.t[-1]}", trajectory=traj)
    return traj


# -- artifact emission -------------------------------------------------------

def _write_table(out: Path, stem: str, fmt: str, header: Sequence[str],
                 columns: Sequence[np.ndarray],
                 labels: Sequence[str] | None = None) -> str:
    """Write a data table; labels, when given, prepend a string curve column.

    Cells are %.17g in CSV, the shortest repr (NaN, Infinity, -Infinity if
    not finite) in JSON; rows reach the file a block (core._blocks) at a
    time, so a write holds one block's values and text.
    """
    as_json = fmt == "json"
    # %.17g prints what format(x, ".17g") does, and %s of a float prints its
    # repr, which is what json.dumps writes
    cells = ["%s" if as_json else "%.17g"] * len(columns)
    if labels is not None:
        cells.insert(0, "%s")
        # each distinct label is spelled once: raw in CSV, quoted in JSON
        spelled = {lab: json.dumps(lab) if as_json else lab
                   for lab in set(labels)}
    if as_json:
        name, sep, tail = f"{stem}.json", ", ", "]}\n"
        head = '{"columns": %s, "rows": [' % json.dumps(list(header))
        row = "[" + ", ".join(cells) + "]"
    else:
        name, sep, tail = f"{stem}.csv", "", ""
        head = ",".join(header) + "\n"
        row = ",".join(cells) + "\n"
    with open(out / name, "w") as f:
        f.write(head)
        for part in _blocks(len(columns[0])):
            block = np.column_stack([c[part] for c in columns])
            if as_json and not np.isfinite(block).all():
                values, block = block, block.astype(object)
                block[np.isnan(values)] = "NaN"
                block[values == math.inf] = "Infinity"
                block[values == -math.inf] = "-Infinity"
            if labels is not None:
                block = np.column_stack([np.array(
                    [spelled[lab] for lab in labels[part]],
                    dtype=object), block])
            if part.start:
                f.write(sep)
            f.write(sep.join([row] * len(block))
                    % tuple(block.ravel().tolist()))
        f.write(tail)
    return name


def _traj_block(traj: Trajectory) -> dict:
    return {
        "termination": traj.termination,
        "samples": int(traj.t.size),
        "t_final": float(traj.t[-1]),
        "events": [{"name": name, "t": float(t)} for t, name in traj.events],
        "integrator": dict(traj.meta),
    }


def _drift(values: np.ndarray, what: str) -> float:
    """drift_metric of a quantity that must be finite along the run."""
    if not np.isfinite(values).all():
        raise FloatingPointError(f"{what} is not finite along the run")
    return drift_metric(values)


# -- commands ----------------------------------------------------------------

# invariant name -> (table column, values along a polar run)
_INVARIANTS = {
    "lrr": ("I_lrr", lambda traj, field: invariants.lrr_invariant(traj, field.V)),
    "mu3": ("I_mu3", lambda traj, field: invariants.mu3_invariant(traj)),
    "angular_momentum": ("L", lambda traj, field:
                         invariants.angular_momentum(traj)),
}

_EVENT = {"type": (_choice("r_floor"), _REQUIRED), "threshold": (_num, 1e-8)}


def _event(value: Any, where: str) -> Event:
    return systems.r_floor_event(_parse(value, _EVENT, where)["threshold"])


_SIMULATE = {
    "system": (_field, _REQUIRED),
    "initial_state": (_state, _REQUIRED),
    "integrator": ({**_INTEGRATOR, "method": (_choice(*_METHODS), "dop853")},
                   {}),
    "invariants": (_list(_choice(*_INVARIANTS)), []),
    "events": (_list(_event), []),
    "label": (_any, None),
}


def cmd_simulate(c: dict, out: Path, fmt: str, manifest: dict) -> None:
    field = c["system"]
    _require_unique(c["invariants"], "invariant")
    if "lrr" in c["invariants"] and not isinstance(field, systems.ErmakovField):
        raise ConfigError(
            "the lrr invariant needs an ermakov system (it uses V(theta))")
    settings = _integrator(c["integrator"], (0.0, 10.0), c["events"])

    error = None
    try:
        traj = _run(systems.polar_rhs(field), c["initial_state"], settings)
    except IntegrationError as exc:
        if exc.trajectory is None:
            raise
        traj, error = exc.trajectory, exc

    header = ["t", "r", "theta", "rdot", "thetadot"]
    columns = [traj.t] + [traj.y[:, i] for i in range(4)]
    for name in c["invariants"]:
        col_name, invariant = _INVARIANTS[name]
        header.append(col_name)
        columns.append(invariant(traj, field))
    manifest["data"] = _write_table(out, "simulate", fmt, header, columns)
    manifest["run"] = _traj_block(traj)
    try:
        manifest["invariant_drifts"] = {
            name: {"initial": float(values[0]), "final": float(values[-1]),
                   "drift": _drift(values, f"invariant {name}")}
            for name, values in zip(c["invariants"], columns[5:])}
    except FloatingPointError:
        # a failed run reports its own failure, not what it did to an invariant
        if error is None:
            raise
    if error is not None:
        raise error


# figure -> its default I values and initial (psi, dpsi) per curve
_FIG_DEFAULTS = {
    "fig1": ([1.1, 1.2, 2.0], [[0.1, 0.1]]),
    "fig2": ([-1.1, -1.2, -2.0], [[0.1, 0.1]]),
    "fig3": ([-1.0, 0.5], [[0.1, 0.1], [-0.1, 0.1], [0.1, -0.1]]),
}
_FIGURE = {
    "which": (_choice(*_FIG_DEFAULTS), _REQUIRED),
    "I_values": (_nums(1), None),
    "initial_conditions": (_list(_nums(2, 2), 1), None),
    "theta_span": (_span, [0.0, 20.0]),
    "variant": (_choice(*systems._VARIANTS), "derived"),
}


def _figure_curves(c: dict) -> list[tuple[str, float, tuple[float, float]]]:
    i_values, ics = _FIG_DEFAULTS[c["which"]]
    i_values = c["I_values"] or i_values
    ics = c["initial_conditions"] or ics
    curves = []
    for I in i_values:
        for ic in ics:
            label = f"I={I:g}"
            if len(ics) > 1:
                label += f";psi0={ic[0]:g};dpsi0={ic[1]:g}"
            curves.append((label, I, tuple(ic)))
    _require_unique([label for label, _, _ in curves], "curve label")
    return curves


def _figure_run(I: float, ic: tuple[float, float], span: tuple[float, float],
                variant: str) -> Trajectory:
    rhs = systems.psi_reduced_rhs(I, AngleFunction.zero(), AngleFunction.cos(),
                                  variant=variant)
    event = systems.h2_singularity_event(I, AngleFunction.cos())
    return _run(rhs, np.array(ic),
                _integrator({"method": "dop853"}, span, (event,)),
                ("completed", "event"))


def cmd_figure(c: dict, out: Path, fmt: str, manifest: dict) -> None:
    variant, span = c["variant"], c["theta_span"]
    curves = _figure_curves(c)

    labels: list[str] = []
    runs: list[Trajectory] = []
    curve_blocks = []
    [other] = set(systems._VARIANTS) - {variant}
    for label, I, ic in curves:
        main_run = _figure_run(I, ic, span, variant)
        twin_run = _figure_run(I, ic, span, other)
        labels.extend([label] * main_run.t.size)
        runs.append(main_run)
        t_end = min(main_run.t[-1], twin_run.t[-1])
        grid = np.linspace(span[0], t_end, 2001)
        delta = resample(main_run, grid)[:, 0] - resample(twin_run, grid)[:, 0]
        curve_blocks.append({
            "label": label,
            "I": I,
            "initial_psi": ic[0],
            "initial_dpsi": ic[1],
            "termination": main_run.termination,
            "theta_final": float(main_run.t[-1]),
            "events": [{"name": n, "theta": float(t)}
                       for t, n in main_run.events],
            "max_abs_delta_psi_vs_other_variant": float(np.max(np.abs(delta))),
            "integrator": dict(main_run.meta),
        })

    states = np.concatenate([run.y for run in runs])
    manifest["data"] = _write_table(
        out, c["which"], fmt, ["curve", "theta", "psi", "dpsi"],
        [np.concatenate([run.t for run in runs]), states[:, 0], states[:, 1]],
        labels=labels)
    manifest["variant"] = variant
    manifest["compared_against"] = other
    manifest["theta_span"] = list(span)
    manifest["initial_conditions_note"] = (
        "default (psi, dpsi) = (0.1, 0.1) at theta = 0; not dictated by the "
        "underlying family, recorded here for reproducibility")
    manifest["curves"] = curve_blocks


# the known integrals of T'' = J^n T^m by (n, m), in the order they are
# evaluated: (map-ef drift key, noether matches_known_form key, values at
# (J, T, T')); a note, with no drift key, is written as it is
_KNOWN_INTEGRALS = {
    (2.0, -5.0): [("ef_integral_m5", "quartic_form_max_diff",
                   invariants.ef_integral_m5)],
    (2.0, -7.0): [
        ("ef_integral_m7_c_one_third", "coefficient_one_third_max_diff",
         functools.partial(invariants.ef_integral_m7, c=1.0 / 3.0)),
        ("ef_integral_m7_c_one", "coefficient_one_max_diff",
         functools.partial(invariants.ef_integral_m7, c=1.0)),
        (None, "note", "the conserved cubic-term coefficient is 1/3; the "
         "coefficient-1 variant is not constant along solutions")],
}


def _known_integrals(n: float, m: float) -> list:
    """The _KNOWN_INTEGRALS entries of the row with this n and m within 1e-9
    of the row's: a mapped m is the row's to rounding (mu = -5/3 gives
    m = -7.000000000000001); none without such a row."""
    return [entry for (n_row, m_row), row in _KNOWN_INTEGRALS.items()
            if n == n_row and abs(m - m_row) < 1e-9 for entry in row]


_MAP_EF = {
    "system": (_field, _REQUIRED),
    "initial_state": (_state, _REQUIRED),
    "integrator": (_INTEGRATOR, {}),
    "r0": (_num_or_inf, None),
    "apply_scaling": (_bool, None),
    "label": (_any, None),
}


def cmd_map_ef(c: dict, out: Path, fmt: str, manifest: dict) -> None:
    field = c["system"]
    if not isinstance(field, systems.IsotropicField):
        raise ConfigError("map-ef needs an isotropic or isotropic_drag system")
    mu = field.mu
    drag = isinstance(field, systems.IsotropicDragField)
    r0 = c["r0"] if c["r0"] is not None else (math.inf if mu < -2.0 else 0.0)
    apply_scaling = c["apply_scaling"]
    if apply_scaling is None:
        apply_scaling = (mu > -2.0) and not drag
    settings = _integrator(c["integrator"], (0.0, 10.0))
    traj = _run(systems.polar_rhs(field), c["initial_state"], settings)

    manifest["run"] = _traj_block(traj)
    manifest["mu"] = mu
    manifest["m"] = m = analysis.m_from_mu(mu)
    manifest["r0_effective"] = "inf" if math.isinf(r0) else r0
    manifest["scaled"] = apply_scaling
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series = analysis.torque_map(traj, mu, r0, apply_scaling=apply_scaling)
        if drag:
            report = dataclasses.asdict(
                analysis.drag_map_residual(traj, mu, field.nu))
            report["lambda"] = report.pop("lam")
            manifest["drag_map_residual"] = report
        else:
            manifest["ef_residual"] = dataclasses.asdict(
                analysis.ef_residual(series, analysis._N, m))
            if series.scaled:
                # the known integrals are of T'' = J^2 T^m, which only a
                # scaled series solves
                manifest["invariant_drifts"] = {
                    key: _drift(integral(series.J, series.T, series.Tprime),
                                key)
                    for key, _, integral in _known_integrals(analysis._N, m)
                    if key}
    manifest["warnings"] = [str(w.message) for w in caught]
    manifest["data"] = _write_table(out, "map_ef", fmt, ["J", "T", "Tprime"],
                                    [series.J, series.T, series.Tprime])


_NAMED_GENERATORS: dict[str, Callable[..., invariants.GeneratorSpec]] = {
    "g1": invariants.generator_g1,
    "g2": invariants.generator_g2,
    "half": invariants.generator_half,
}
_GENERATOR = {"xi": (_nums(3, 3), _REQUIRED), "eta": (_nums(2, 2), _REQUIRED),
              "gauge": (_nums(2, 2), [0.0, 0.0])}


def _generator(value: Any, where: str) -> invariants.GeneratorSpec:
    """A generator name, {"scaling": lambda}, or explicit coefficients."""
    if isinstance(value, str):
        if value in _NAMED_GENERATORS:
            return _NAMED_GENERATORS[value]()
        raise ConfigError(
            f"unknown generator name {value!r}; choose from "
            f"{sorted(_NAMED_GENERATORS)} or give an explicit object")
    if isinstance(value, dict) and "scaling" in value:
        lam = _parse(value, {"scaling": (_num, _REQUIRED)}, where)["scaling"]
        return invariants.generator_scaling(lam)
    return invariants.GeneratorSpec(**_parse(value, _GENERATOR, where))


_NOETHER = {
    "n": (_num, _REQUIRED),
    "m": (_num, _REQUIRED),
    "generator": (_generator, _REQUIRED),
    "potential_scale": (_num, 1.0),
    "grid": ({"J": (_nums(1), _REQUIRED), "T": (_nums(1), _REQUIRED),
              "Tprime": (_nums(1), _REQUIRED)},
             {"J": [0.5, 0.875, 1.25, 1.625, 2.0],
              "T": [0.5, 0.875, 1.25, 1.625, 2.0],
              "Tprime": [-1.0, -0.5, 0.0, 0.5, 1.0]}),
    "run": ({"initial": (_nums(2, 2), [1.0, 0.0]),
             "J_span": (_span, [1.0, 3.0]),
             "rel_tol": (_num, 1e-12),
             "abs_tol": (_num, 1e-13)}, {}),
    "label": (_any, None),
}
# the most points a grid (noether's J x T x T', orbit's r_grid) may have
_MAX_POINTS = 1_000_000
# (J, T, T') points where the constructed integral meets its known form
_KNOWN_FORM_PROBE = [(0.9, 1.1, 0.3), (1.4, 0.8, -0.2), (2.0, 1.7, 0.6)]


def cmd_noether(c: dict, out: Path, fmt: str, manifest: dict) -> None:
    n, m, scale, G = c["n"], c["m"], c["potential_scale"], c["generator"]
    L = invariants.PowerLagrangian(n, m, potential_scale=scale)

    g = c["grid"]
    points = len(g["J"]) * len(g["T"]) * len(g["Tprime"])
    if points > _MAX_POINTS:
        raise ConfigError(f"grid has {points} points (J x T x Tprime); "
                          f"at most {_MAX_POINTS} are allowed")
    grid = [(J, T, Tp) for J in g["J"] for T in g["T"] for Tp in g["Tprime"]]
    residuals = invariants.noether_residual(L, G, grid)
    max_resid = max(abs(r) for r in residuals)
    rms_resid = math.sqrt(sum(r * r for r in residuals) / len(residuals))
    if not math.isfinite(rms_resid):
        raise FloatingPointError("the Noether residual is not finite on the grid")
    noetherian = max_resid <= invariants._NOETHER_TOL

    # the grid above decides Noetherian-ness; the evaluator does not redo it
    evaluator = invariants._integral(L, G)

    run = c["run"]
    settings = _integrator({"rel_tol": run["rel_tol"],
                            "abs_tol": run["abs_tol"]}, run["J_span"])
    # L's Euler-Lagrange equation, T'' = scale * J^n * T^m
    traj = _run(systems.ef_rhs(n, m, scale), np.array(run["initial"]),
                settings)
    values = analysis._model(evaluator, traj.t, traj.y[:, 0], traj.y[:, 1])

    manifest["lagrangian"] = {"n": n, "m": m, "potential_scale": scale}
    manifest["generator"] = manifest["config"]["generator"]
    manifest["residual"] = {"max_abs": max_resid, "rms": rms_resid,
                            "grid_points": len(grid)}
    manifest["noetherian"] = noetherian
    manifest["integral"] = {
        "description": ("I(J, T, T') = gauge(T) - xi*L - (eta - T'*xi)*dL/dT' "
                        "built from the generator above"),
        "initial_value": float(values[0]),
        "final_value": float(values[-1]),
        "drift": _drift(values, "the Noether integral"),
        "run": _traj_block(traj),
    }
    if not noetherian:
        manifest["integral"]["note"] = (
            "generator is not Noetherian for this Lagrangian; the evaluator "
            "is generally not conserved")
    # the known integrals are of T'' = J^n T^m, the equation of scale 1
    known = _known_integrals(n, m) if scale == 1.0 else []
    if known:
        manifest["integral"]["matches_known_form"] = {
            key: integral if isinstance(integral, str) else max(
                abs(evaluator(*p) - float(integral(*p)))
                for p in _KNOWN_FORM_PROBE)
            for _, key, integral in known}


# the bound keeps np.linspace from allocating a huge grid
_LINSPACE = {"start": (_num, _REQUIRED), "stop": (_num, _REQUIRED),
             "num": (_int(2, _MAX_POINTS), _REQUIRED)}


def _r_grid(value: Any, where: str) -> np.ndarray:
    """A list of radii or {start, stop, num}."""
    if isinstance(value, dict):
        g = _parse(value, _LINSPACE, where)
        return np.linspace(g["start"], g["stop"], g["num"])
    return np.array(_nums(1)(value, where))


_ORBIT = {
    "mu": (_num, _REQUIRED),
    "r0": (_num_or_inf, 0.0),
    "r_grid": (_r_grid, _REQUIRED),
    "tol": (_num, 1e-10),
    "compare_simulation": (_bool, False),
    "integrator": (_INTEGRATOR, None),
    "label": (_any, None),
}


def _ratio_range(rep: analysis.ChainQuadrature) -> dict:
    """Min and max of the finite printed/chain ratios.

    A ratio is not finite where the chain integrand is singular, as at an
    r_grid that starts at r0; its radius is listed under excluded_r.
    """
    ratio = rep.printed_ratio
    finite = np.isfinite(ratio)
    kept = ratio[finite]
    block = {"min": float(np.min(kept)) if kept.size else None,
             "max": float(np.max(kept)) if kept.size else None}
    if not finite.all():
        block["excluded_r"] = rep.r[~finite].tolist()
    return block


def cmd_orbit(c: dict, out: Path, fmt: str, manifest: dict) -> None:
    mu, r0, tol, rg = c["mu"], c["r0"], c["tol"], c["r_grid"]
    if c["compare_simulation"]:
        if mu <= -2.0:
            raise ConfigError("compare_simulation needs mu > -2")
    elif c["integrator"] is not None:
        raise ConfigError("integrator is read only with compare_simulation")
    theta_rep = analysis.orbit_theta_of_r(mu, r0, rg, tol=tol)
    time_rep = analysis.time_of_r(mu, r0, rg, tol=tol)
    m, branch, _, _ = analysis._positive_branch(mu)

    header = ["r", "theta", "tau"]
    columns = [rg, theta_rep.values, time_rep.values]
    manifest["mu"] = mu
    manifest["m"] = m
    manifest["Lambda"] = branch.Lambda
    reps = {"theta": theta_rep, "tau": time_rep}
    manifest["quadrature"] = {
        k: {"abs_error_estimate": rep.abs_error_estimate,
            "evaluations": rep.evaluations} for k, rep in reps.items()}
    manifest["printed_form_ratio"] = {
        k: _ratio_range(rep) for k, rep in reps.items()}

    if c["compare_simulation"]:
        j1 = analysis.j_of_r(float(rg[0]), mu, r0, branch.n, m)
        seed = analysis.seed_polar_from_particular(mu, r0, j1)
        t_phys = analysis._physical_time_factor(mu) * time_rep.values
        duration = 3.0 * (t_phys[-1] - t_phys[0]) + 1.0
        stop = systems.r_floor_event(float(rg[-1]), "r-target")
        settings = _integrator(c["integrator"] or {}, (0.0, duration), (stop,))
        traj = _run(systems.polar_rhs(systems.IsotropicField(mu)),
                    seed.as_array(), settings, ("event",))
        # the seeded radius and the stopping event may round a hair past
        # the grid's ends
        times = crossing_times(traj, 0, rg, slack=1e-9)
        states = resample(traj, times)
        theta_sim = states[:, 1] - states[0, 1]
        t_sim = times - times[0]
        header += ["theta_sim", "t_sim"]
        columns += [theta_sim, t_sim]
        manifest["simulated_comparison"] = {
            "run": _traj_block(traj),
            "max_abs_delta_theta": float(np.max(np.abs(theta_sim
                                                       - theta_rep.values))),
            "max_abs_delta_t": float(np.max(np.abs(t_sim
                                                   - (t_phys - t_phys[0])))),
        }

    manifest["data"] = _write_table(out, "orbit", fmt, header, columns)


_SPECIAL = {
    "lambda": (_num, _REQUIRED),
    "sigma": (_num, None),
    "Y0": (_num, None),
    "eps": (_num, 0.3),
    "run": ({"initial": (_nums(2, 2), [0.5, 0.0]),
             "J_span": (_span, [1.0, 2.0]),
             "h": (_num, 2e-4)}, {}),
    "label": (_any, None),
}


def cmd_special(c: dict, out: Path, fmt: str, manifest: dict) -> None:
    lam = c["lambda"]
    if lam == 0.0:
        raise ConfigError("lambda = 0 is excluded (exponents divide by lambda)")
    if c["Y0"] is not None and lam != -1.0:
        raise ConfigError("Y0 is read only when lambda = -1")
    scaling = analysis._scaling_sigma(lam)
    sigma = c["sigma"] if c["sigma"] is not None else scaling
    eps = c["eps"]
    run = c["run"]
    settings = _integrator({"method": "rk4", "h": run["h"]}, run["J_span"])

    manifest["lambda"] = lam
    manifest["sigma"] = sigma
    manifest["sigma_matches_scaling_family"] = analysis._on_scaling_family(
        lam, sigma)

    if lam == -1.0:
        y0 = 1.0 if c["Y0"] is None else c["Y0"]
        z = np.linspace(0.0, 2.0, 101)
        y = y0 * np.exp(-z)
        resid = systems.third_order_residual(y, -y, y, -y, lam, sigma)
        key, block = "exponential_solution", {
            "Y0": y0, "note": "Y = Y0*exp(-z); exact only with sigma = -3"}
    else:
        try:
            y0 = analysis.power_solution_y0(lam)
        except analysis.NoRoot as exc:
            manifest["power_solution"] = {"error": str(exc)}
            raise
        p = lam / (1.0 + lam)
        z = np.linspace(0.5, 2.0, 61)
        y = y0 * z ** p
        yp = y0 * p * z ** (p - 1.0)
        ypp = y0 * p * (p - 1.0) * z ** (p - 2.0)
        yppp = y0 * p * (p - 1.0) * (p - 2.0) * z ** (p - 3.0)
        resid = systems.third_order_residual(y, yp, ypp, yppp, lam, scaling)
        key, block = "power_solution", {"Y0": y0, "exponent": p, "note": (
            "Y = Y0*z^(lambda/(1+lambda)) solves the sigma = 1+4*lambda case")}
    if not np.isfinite(resid).all():
        raise FloatingPointError(
            f"the {key.replace('_', ' ')}'s residual is not finite")
    manifest[key] = {**block, "max_abs_residual": float(np.max(np.abs(resid)))}

    rhs = systems.drag_ef_rhs(lam, sigma)
    traj = _run(rhs, np.array(run["initial"]), settings)
    stats = analysis.scaling_map_residual(traj, alpha=-1.0, beta=-lam, eps=eps,
                                          model=analysis._slope(rhs))
    manifest["scaling_map"] = {
        "eps": eps,
        "rms": stats.rms,
        "max_abs": stats.max_abs,
        "scale": stats.scale,
        "count": stats.count,
        "note": ("residual of the mapped solution e^-eps * T(e^(-lambda*eps) J) "
                 "against the damped equation; near zero only when "
                 "sigma = 1 + 4*lambda"),
    }


_SWEEPABLE = ("simulate", "figure", "map-ef", "noether", "orbit", "special")


def _run_name(value: Any, where: str) -> str:
    # "." and "run_manifest.json" name the sweep directory and the sweep's
    # own manifest.  A file name is at most 255 bytes on common file
    # systems; os.fsencode gives those bytes, and raises a ValueError for a
    # name the file system cannot encode.
    if (not isinstance(value, str) or value in ("", ".", "run_manifest.json")
            or any(bad in value for bad in ("/", "\\", "..", "\0"))):
        raise ConfigError(f"{where} must be a plain directory name")
    if len(os.fsencode(value)) > 255:
        raise ConfigError(f"{where} is longer than 255 bytes")
    return value


_RUN = {
    "name": (_run_name, _REQUIRED),
    "command": (_choice(*_SWEEPABLE), _REQUIRED),
    "config": (_typed(dict, "an object"), _REQUIRED),
}
_SWEEP = {
    "runs": (_list(lambda v, where: _parse(v, _RUN, where), 1), _REQUIRED),
    "label": (_any, None),
}


def cmd_sweep(c: dict, out: Path, fmt: str, manifest: dict) -> int:
    """Run each entry in turn, as its own command would run alone.

    A run ends in an exit code only through _dispatch's three outcomes.  Any
    other exception is a programming error, not a run outcome, so it stops
    the whole sweep: no handler turns it into an exit code.
    """
    runs = c["runs"]
    _require_unique([run["name"] for run in runs], "run name")
    results = []
    for run in runs:
        run_out = out / run["name"]
        code = (_dispatch(run["command"], run["config"], run_out, fmt)
                if _make_out(run_out) else 1)
        results.append({"name": run["name"], "command": run["command"],
                         "exit_code": code})
    results.sort(key=lambda r: r["name"])
    manifest["results"] = results
    return max(r["exit_code"] for r in results)


# command -> (function, config schema)
_COMMANDS = {"simulate": (cmd_simulate, _SIMULATE),
             "figure": (cmd_figure, _FIGURE),
             "map-ef": (cmd_map_ef, _MAP_EF),
             "noether": (cmd_noether, _NOETHER),
             "orbit": (cmd_orbit, _ORBIT),
             "special": (cmd_special, _SPECIAL),
             "sweep": (cmd_sweep, _SWEEP)}


# -- entry point --------------------------------------------------------------

# ArithmeticError: Python floats raise ZeroDivisionError or OverflowError
# where numpy returns inf or nan
_NUMERICAL = (IntegrationError, analysis.QuadratureError, analysis.NoRoot,
              ArithmeticError)


def _dispatch(command: str, cfg: dict, out: Path, fmt: str) -> int:
    """Run one command and map its outcome to an exit code (module doc).

    Each cmd_* fills the manifest; cmd_sweep also returns the largest exit
    code of its runs.
    """
    run, schema = _COMMANDS[command]
    manifest = {"tool": "curlforce", "version": __version__,
                "command": command, "config": cfg}
    error = None
    try:
        try:
            code = run(_parse(cfg, schema, "config"), out, fmt, manifest) or 0
        except _NUMERICAL as exc:
            manifest["error"] = error = str(exc)
            code = 2
        manifest["exit_code"] = code
        (out / "run_manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2, allow_nan=True)
            + "\n")
    except (ConfigError, ValueError) as exc:
        print(f"curlforce {command}: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"curlforce {command}: cannot write output: {exc}",
              file=sys.stderr)
        return 1
    if error is not None:
        print(f"curlforce {command}: numerical failure: {error}",
              file=sys.stderr)
    return code


def _make_out(out: Path) -> bool:
    """Create an output directory, or print why not and return False."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"curlforce: cannot create output directory: {exc}",
              file=sys.stderr)
        return False
    return True


# built once, at import: parse_args keeps no state between calls, so each
# main call parses with the same parser
_PARSER = argparse.ArgumentParser(
    prog="curlforce",
    description=("Numerical experiments for planar motion under "
                 "noncentral curl forces"))
_PARSER.add_argument("command", choices=list(_COMMANDS))
_PARSER.add_argument("--config", required=True,
                     help="path to a JSON config document")
_PARSER.add_argument("--out", required=True,
                     help="output directory (created if absent)")
_PARSER.add_argument("--format", choices=["csv", "json"], default="csv",
                     dest="fmt", help="data file format (default csv)")


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        print(f"curlforce: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    if not _make_out(out):
        return 1
    return _dispatch(args.command, cfg, out, args.fmt)


if __name__ == "__main__":
    raise SystemExit(main())
