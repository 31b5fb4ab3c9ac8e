"""Correctness gates for one benchmark job's output directory.

check() returns the list of violated gates (empty when the job passed).
The gates apply the README contract (exit codes, manifest echo, table
shape) and, where a job matches one of their cases, the acceptance
thresholds A1-A11 of tests/test_acceptance.py.  Numbers that the manifest
reports and the data table also carries (the lrr column, simulated orbit
columns) are recomputed from the table, so a manifest that disagrees with
its own data is flagged.

Pure stdlib, so the checker has no numerical code in common with the
program it checks.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# (n, m, generator) -> whether the generator is Noetherian for T'' = J^n T^m
NOETHER_EXPECTED = {(2.0, -5.0, "g2"): True, (2.0, -7.0, "half"): True,
                    (2.0, -5.0, "g1"): False}

_FIG_DEFAULT_SPAN = [0.0, 20.0]
# which -> (number of default I values, number of default initial conditions)
_FIG_DEFAULT_CURVES = {"fig1": (3, 1), "fig2": (3, 1), "fig3": (2, 3)}


def expected_codes(job: dict) -> tuple[int, ...]:
    # an endpoint-singular probe may finish (the singularity is integrable)
    # or stop with a clean numerical failure; either is fine within budget
    return (0, 2) if job["probe"] == "endpoint-singular" else (0,)


def read_table(path: Path) -> tuple[list[str], list[list]]:
    """(header, rows) of a csv or json data table; numbers become floats."""
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        return list(doc["columns"]), [list(r) for r in doc["rows"]]
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = [cells[0] if header[0] == "curve" else float(cells[0])]
        rows.append(row + [float(c) for c in cells[1:]])
    return header, rows


def _drift(values: list[float]) -> float:
    v0 = values[0]
    return max(abs(v - v0) for v in values) / max(1.0, abs(v0))


def _increasing(values: list[float]) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _column(header: list[str], rows: list[list], name: str) -> list[float]:
    i = header.index(name)
    return [row[i] for row in rows]


class _Gates:
    def __init__(self) -> None:
        self.violations: list[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.violations.append(what)

    def at_most(self, value: float, limit: float, what: str) -> None:
        self.require(value <= limit, f"{what} = {value!r} > {limit!r}")


def _figure(g: _Gates, cfg: dict, man: dict, header, rows) -> None:
    which = cfg["which"]
    span = cfg.get("theta_span", _FIG_DEFAULT_SPAN)
    n_i, n_ic = _FIG_DEFAULT_CURVES[which]
    n_curves = (len(cfg.get("I_values", range(n_i)))
                * len(cfg.get("initial_conditions", range(n_ic))))
    g.require(len(man["curves"]) == n_curves,
              f"{len(man['curves'])} curves, expected {n_curves}")
    for c in man["curves"]:
        if which == "fig3":
            g.require(c["termination"] == "event" and bool(c["events"])
                      and c["events"][0]["name"] == "h2-singular",
                      f"fig3 curve {c['label']} did not stop at h2-singular")
        else:
            g.require(c["termination"] == "completed"
                      and c["theta_final"] == span[1],
                      f"{which} curve {c['label']} did not complete the span")
    psi = _column(header, rows, "psi")
    g.require(_finite(psi), "psi column not finite")
    if which != "fig3":
        # A4: the regular-layer curves stay bounded
        g.at_most(max(abs(p) for p in psi), 1e2, "max |psi|")
    labels = {c["label"] for c in man["curves"]}
    g.require({row[0] for row in rows} == labels,
              "table curve labels differ from the manifest")


def _simulate(g: _Gates, cfg: dict, man: dict, header, rows) -> None:
    run = man["run"]
    span = cfg.get("integrator", {}).get("t_span", [0.0, 10.0])
    g.require(run["termination"] == "completed",
              f"termination {run['termination']!r}, expected completed")
    g.require(run["t_final"] == span[1], "run did not reach t_span end")
    g.require(len(rows) == run["samples"], "table rows != manifest samples")
    if "lrr" in cfg.get("invariants", []):
        # A2: lrr drift <= 1e-7, recomputed from the table column
        g.at_most(_drift(_column(header, rows, "I_lrr")), 1e-7,
                  "lrr drift (table)")
        g.at_most(man["invariant_drifts"]["lrr"]["drift"], 1e-7,
                  "lrr drift (manifest)")


def _map_ef(g: _Gates, cfg: dict, man: dict, header, rows) -> None:
    run = man["run"]
    g.require(run["termination"] == "completed",
              f"termination {run['termination']!r}, expected completed")
    g.require(man["warnings"] == [], f"warnings {man['warnings']!r}")
    g.require(len(rows) == run["samples"], "table rows != manifest samples")
    g.require(_increasing(_column(header, rows, "J")),
              "J column not strictly increasing")
    if cfg["system"]["family"] == "isotropic_drag":
        # A10 drag adjudication; the printed form is NaN where it needs a
        # fractional power of a negative T
        d = man["drag_map_residual"]
        g.require(d["winner"] == "derived", f"drag winner {d['winner']!r}")
        g.at_most(d["rms_derived"], 1e-3 * d["scale"], "drag rms_derived")
        g.require(math.isnan(d["rms_printed"])
                  or d["rms_printed"] > 0.1 * d["scale"],
                  "drag rms_printed not clearly worse than derived")
        return
    e = man["ef_residual"]
    g.at_most(e["max_abs"], 1e-4 * e["scale"], "ef residual")      # A5
    drifts = man["invariant_drifts"]
    if abs(man["m"] + 5.0) < 1e-9:
        g.at_most(drifts["ef_integral_m5"], 1e-6, "m5 drift")       # A5
    if abs(man["m"] + 7.0) < 1e-9:
        g.at_most(drifts["ef_integral_m7_c_one_third"], 1e-6,
                  "m7 c=1/3 drift")                                 # A6
        g.require(drifts["ef_integral_m7_c_one"] > 1e-2,
                  "m7 c=1 drift not separated from c=1/3")


def _special(g: _Gates, cfg: dict, man: dict, header, rows) -> None:
    if cfg["lambda"] == -1.0:
        g.at_most(man["exponential_solution"]["max_abs_residual"], 1e-12,
                  "exponential residual")
    else:
        g.at_most(man["power_solution"]["max_abs_residual"], 1e-10,
                  "power residual")
    s = man["scaling_map"]
    g.at_most(s["max_abs"], 1e-6 * s["scale"], "scaling map residual")


def _noether(g: _Gates, cfg: dict, man: dict, header, rows) -> None:
    key = (float(cfg["n"]), float(cfg["m"]), cfg["generator"])
    noetherian = man["noetherian"]
    if key in NOETHER_EXPECTED:
        g.require(noetherian == NOETHER_EXPECTED[key],
                  f"noetherian flag {noetherian} for {key}")
    g.require(noetherian == (man["residual"]["max_abs"] <= 1e-9),
              "noetherian flag disagrees with the residual")
    if not noetherian:
        return
    integral = man["integral"]
    g.at_most(integral["drift"], 1e-6, "Noether integral drift")
    known = integral.get("matches_known_form", {})
    if "quartic_form_max_diff" in known:
        g.at_most(known["quartic_form_max_diff"], 1e-12, "m5 form gap")
    if "coefficient_one_third_max_diff" in known:
        g.at_most(known["coefficient_one_third_max_diff"], 1e-12,
                  "m7 form gap")


def _orbit(g: _Gates, cfg: dict, man: dict, header, rows) -> None:
    num = cfg["r_grid"]["num"]
    g.require(len(rows) == num, f"{len(rows)} table rows, expected {num}")
    for name in ("theta", "tau"):
        col = _column(header, rows, name)
        g.require(_finite(col) and col[0] == 0.0 and _increasing(col),
                  f"{name} column not finite, zero-based and increasing")
        g.at_most(man["quadrature"][name]["abs_error_estimate"], 1e-6,
                  f"{name} quadrature error estimate")
    if cfg.get("compare_simulation"):
        # A9: quadrature against an independent rk45 run, <= 1e-4
        cmp_ = man["simulated_comparison"]
        g.at_most(cmp_["max_abs_delta_theta"], 1e-4, "delta theta")
        g.at_most(cmp_["max_abs_delta_t"], 1e-4, "delta t")
        gap = max(abs(a - b) for a, b in zip(_column(header, rows, "theta"),
                                             _column(header, rows,
                                                     "theta_sim")))
        g.at_most(gap, 1e-4, "delta theta (table)")


_BY_COMMAND = {"figure": _figure, "simulate": _simulate, "map-ef": _map_ef,
               "special": _special, "noether": _noether, "orbit": _orbit}


def check(job: dict, code: int, out: Path) -> list[str]:
    """Violated gates of one finished job whose outputs are in out."""
    g = _Gates()
    if code not in expected_codes(job):
        g.violations.append(f"exit code {code}, expected "
                            f"{' or '.join(map(str, expected_codes(job)))}")
        return g.violations
    manifest = out / "run_manifest.json"
    if code != 0 and not manifest.exists():
        return g.violations
    try:
        man = json.loads(manifest.read_text())
        g.require(man["command"] == job["command"], "manifest command echo")
        g.require(man["config"] == job["config"], "manifest config echo")
        g.require(man["exit_code"] == code, "manifest exit_code")
        if code != 0:
            return g.violations
        header: list[str] = []
        rows: list[list] = []
        if "data" in man:
            g.require(Path(man["data"]).suffix == "." + job["format"],
                      "data file format")
            header, rows = read_table(out / man["data"])
        _BY_COMMAND[job["command"]](g, job["config"], man, header, rows)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        g.violations.append(f"malformed output: {type(exc).__name__}: {exc}")
    return g.violations
