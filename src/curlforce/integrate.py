"""Explicit Runge-Kutta integration with events and dense sampling.

Each step method is one row of the method table _METHODS: its tableau,
propagating and error weights, error norm, controller order, stretch, the
settings it reads and any dense-output stages.  rk45 is the embedded
Dormand-Prince 5(4) pair and dop853 Hairer's 8(5,3) pair, both with
proportional-integral step control; rk4 is the fixed-step classical
method.  Accepted nodes keep both state and right-hand side, so cubic
Hermite interpolation works on every step.  A dop853 run also evaluates
three more stages per accepted step and keeps its seventh-order continuous
extension (Trajectory.dense).  core.resample, core.crossing_times and the
event bisection here evaluate a step by one rule, core._step_at: the run's
own interpolant where it has dense rows, cubic Hermite otherwise.

The step loop is Python source generated from the method's row for each
method, state size, event formulas and right-hand-side formula,
the first time a run needs it, and then cached.  The formula's text is
pasted at every stage and its constants are bound at each run, so a stage
calls nothing; a stage assigns only the inputs its text names (the time,
and of the state only what it reads: no polar stage of an isotropic or
drag field computes theta).  rk45 and dop853 count each stage as they
evaluate it, since a non-finite one ends the attempt; rk4 counts its four
once a step.  Each event's formula is pasted after every accepted step,
with its names renamed apart from the stage's; at a sign change the loop
calls nothing but returns, and integrate bisects the crossing after it.
core._paste writes every pasted text and core._compile compiles it, here
and in the modules that generate loops of their own.  State, slope and
stage components are scalar locals (y0, y1, ...), zero tableau terms are
dropped and constants are written with repr, so they round-trip exactly.
Accepted nodes go to short flat lists, dim floats a node, so a step
builds no list unless it calls an event function; every core._BLOCK_ROWS
nodes the loop has integrate move the lists into float64 storage and
clear them.  Every component keeps the operations, in order, of
elementwise array arithmetic on the whole state: stage sums add their
terms in index order, as do RK4's h6 * (f + 2 k2 + 2 k3 + k4) and the
error norm.  To read a loop (method,
state size, events, formula):

    from curlforce.integrate import _loop
    from curlforce.systems import IsotropicField, polar_rhs
    rhs = polar_rhs(IsotropicField(-1.5))
    print(_loop("rk4", 4, False, rhs.formula).source)

The stepper is deliberately free of platform-dependent branches: repeated
runs with identical inputs produce bit-identical trajectories.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import core
from .core import Trajectory, _compile, _cut, _paste, _step_at, bisect_root

__all__ = [
    "Event",
    "IntegratorSettings",
    "IntegrationError",
    "integrate",
]

# Dormand-Prince 5(4) tableau.  The seventh stage is the FSAL evaluation.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
# Error weights: fifth-order propagating solution minus the embedded
# fourth-order one.
_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

# Hairer's DOP853 8(5,3) pair (Solving ODEs I, II.10), with the digits of
# its published coefficients: stage times, then the rows of the 12 stages,
# the eighth-order solution (evaluated again, FSAL, at t + h) and the three
# stages of the dense output only, as {column: coefficient}.
_C853 = (0.0, 0.526001519587677318785587544488e-01,
         0.789002279381515978178381316732e-01,
         0.118350341907227396726757197510, 0.281649658092772603273242802490,
         0.333333333333333333333333333333, 0.25,
         0.307692307692307692307692307692, 0.651282051282051282051282051282,
         0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
         0.777777777777777777777777777778)
_A853 = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2,
     1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2,
     2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1,
     2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2,
     3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2,
     3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1,
     5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1,
     3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1,
     5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1,
     7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1,
     3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1,
     5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1,
     7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1,
     3: 5.18637242884406370830023853209, 4: 1.09143734899672957818500254654,
     5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1,
     7: 2.27394870993505042818970056734e1, 8: 2.49360555267965238987089396762,
     9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449,
     3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444,
     5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1,
     7: -2.85899827713502369474065508674, 8: -8.87285693353062954433549289258,
     9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2,
     5: 4.45031289275240888144113950566, 6: 1.89151789931450038304281599044,
     7: -5.8012039600105847814672114227, 8: 3.1116436695781989440891606237e-1,
     9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1,
     11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2,
     6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1,
     8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1,
     10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2,
     5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2,
     7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4,
     11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4,
     13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1,
     5: -4.69762141536116384314449447206, 6: 7.68342119606259904184240953878,
     7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1,
     12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)
# error weights of the fifth-order estimate; the third-order one is the
# solution's weights minus bhh at stages 1, 9 and 12
_E853 = {0: 0.1312004499419488073250102996e-1,
         5: -0.1225156446376204440720569753e+1,
         6: -0.4957589496572501915214079952,
         7: 0.1664377182454986536961530415e+1,
         8: -0.3503288487499736816886487290,
         9: 0.3341791187130174790297318841,
         10: 0.8192320648511571246570742613e-1,
         11: -0.2235530786388629525884427845e-1}
_BHH853 = {0: 0.244094488188976377952755905512,
           8: 0.733846688281611857341361741547,
           11: 0.220588235294117647058823529412e-1}
# the rows F3..F6 of the seventh-order dense output are h times these over
# the 16 stages' slopes
_D853 = (
    {0: -0.84289382761090128651353491142e+1,
     5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1,
     7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1,
     9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1,
     11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1,
     13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1,
     15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2,
     5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3,
     7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2,
     9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2,
     11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2,
     13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1,
     15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2,
     5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3,
     7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2,
     9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1,
     11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1,
     13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2,
     15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2,
     5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3,
     7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2,
     9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3,
     11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2,
     13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2,
     15: -0.14972683625798562581422125276e+3},
)


def _row(terms: dict, n: int) -> tuple:
    """A {column: coefficient} row as n coefficients."""
    return tuple(terms.get(j, 0.0) for j in range(n))


class _Method(NamedTuple):
    """One step method: what the loop generator and integrate read of it.

    c and a are the stage times and rows (a[0] is empty: the first stage is
    the node's slope f), b the propagating weights.  A fixed-step method
    (norm None) steps by the half and the whole step, and evaluates its new
    node's slope at t + h.  An adaptive pair's c has one more entry, the
    time of the FSAL evaluation of b's solution; e holds its error weights
    over the stages and, where they read it, that evaluation: one tuple
    for the "rms" norm, the fifth- and third-order tuples for the "dop853"
    norm.  order is the controller's: the exponents on the current and the
    previous scaled error are 0.7 / order and 0.4 / order.  A remainder up
    to stretch * h joins the final step, so there is no step dust.  reads
    maps each setting the method reads to its default (a setting left None
    takes its default; one the method does not read is refused).  extra
    holds the (time, row) of each stage evaluated after an accepted step
    for the dense output only, and dense the rows of that output's D
    matrix over all stages (see _dense_rows); a method without them is
    interpolated by cubic Hermite.
    """

    reads: dict
    c: tuple
    a: tuple
    b: tuple
    norm: str | None = None
    e: tuple = ()
    order: int = 0
    stretch: float = 1.05
    extra: tuple = ()
    dense: tuple = ()


_B853 = _row(_A853[12], 12)
_METHODS = {
    "rk45": _Method(reads={"rel_tol": 1e-10, "abs_tol": 1e-12}, c=_C,
                    a=_A[:6], b=_A[6], norm="rms", e=(_E,), order=4),
    "rk4": _Method(reads={"h": 1e-3}, c=(0.0, 0.5, 0.5, 1.0),
                   a=((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
                   b=(1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0),
                   stretch=1.4),
    "dop853": _Method(
        reads={"rel_tol": 1e-10, "abs_tol": 1e-12}, c=_C853[:13],
        a=tuple(_row(r, i) for i, r in enumerate(_A853[:12])), b=_B853,
        norm="dop853", e=(_row(_E853, 12), tuple(
            w - _BHH853.get(j, 0.0) for j, w in enumerate(_B853))),
        order=7,
        extra=tuple((_C853[i], _row(_A853[i], i)) for i in (13, 14, 15)),
        dense=tuple(_row(r, 16) for r in _D853)),
}

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_UNDERFLOW = 1e-14   # fraction of the integration span
_EVENT_RESOLUTION = 1e-12


class IntegrationError(RuntimeError):
    """Numerical failure; carries the partial trajectory when available."""

    def __init__(self, message: str, trajectory: Trajectory | None = None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class Event:
    """Named scalar function of (t, state); integration stops at its zero."""

    name: str
    fn: Callable[[float, list[float]], float]


@dataclass(frozen=True)
class IntegratorSettings:
    method: str = "rk45"
    rel_tol: float | None = None
    abs_tol: float | None = None
    h: float | None = None
    t_span: tuple[float, float] = (0.0, 1.0)
    max_steps: int = 1_000_000
    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        method = _METHODS.get(self.method)
        if method is None:
            raise ValueError(f"unknown method {self.method!r}")
        reads = method.reads
        for name in ("rel_tol", "abs_tol", "h"):
            value = getattr(self, name)
            if name in reads:
                value = reads[name] if value is None else value
                # written as not (x > 0) so that NaN fails each check
                if not (value > 0.0):
                    raise ValueError(f"{name} must be positive")
                object.__setattr__(self, name, value)
            elif value is not None:
                raise ValueError(f"{self.method} does not read {name}")
        t0, t1 = self.t_span
        if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
            raise ValueError("t_span must be finite with t1 > t0")
        if not (self.max_steps >= 1):
            raise ValueError("max_steps must be at least 1")
        object.__setattr__(self, "t_span", (float(t0), float(t1)))
        object.__setattr__(self, "events", tuple(self.events))


def _dense_columns(m: _Method) -> list:
    """The stages whose slopes some dense row reads, in index order."""
    return [j for j in range(len(m.dense[0])) if any(r[j] for r in m.dense)]


def _dense_rows(m: _Method, t: np.ndarray, y: np.ndarray, f: np.ndarray,
                k: np.ndarray) -> np.ndarray:
    """(steps, 5, dim) rows F2..F6 of each step's own interpolant
    (core._step_at).

    t, y and f are the steps' nodes, k their slopes at _dense_columns(m),
    shaped (steps, columns, dim).  F2 = 2 (y1 - y0) - h (f0 + f1) and F3..F6
    are h times each of m.dense's sums over the slopes, added in index
    order.  A row of a huge state may overflow to inf or nan, silently: the
    run reports its own failure.
    """
    h = (t[1:] - t[:-1])[:, None, None]
    d = np.array(m.dense)[:, _dense_columns(m), None]
    with np.errstate(over="ignore", invalid="ignore"):
        sums = d[:, 0] * k[:, None, 0]
        for i in range(1, d.shape[1]):
            sums = sums + d[:, i] * k[:, None, i]
        return np.concatenate([2.0 * (y[1:] - y[:-1])[:, None]
                               - h * (f[:-1] + f[1:])[:, None], h * sums],
                              axis=1)


def _event_lines(k: int, formula, dim: int) -> tuple[list, list]:
    """Event k's value at the new node (t_new, z0..) as lines setting e{k},
    and the names of its constants in the loop.

    formula is (args, body, free) as a stage's, its body setting d0; an
    arg left "" is not read, and None is a body calling fn on a list.  d0
    becomes e{k} and the body's other names e{k}_name (_paste's prefix),
    so an event's constants never meet the stage's or another event's.
    """
    state = ", ".join(f"s{c}" for c in range(dim))
    args, body, free = formula or (
        ("t_", *(f"s{c}" for c in range(dim))),
        f"d0 = float(fn(t_, [{state}]))", ("fn",))
    text = _paste(body, zip(args, ("t_new", *(f"z{c}" for c in range(dim)))),
                  free, f"e{k}_", outs={"d0": f"e{k}"})
    return text.splitlines(), [f"e{k}_{name}" for name in free]


def _loop_source(method: str, dim: int, events=(), stage=None) -> str:
    """Python source of the step loop for one method, state size, events
    and stage.

    stage is (args, body, free): body is the text of one right-hand-side
    evaluation.  It reads the stage time args[0] (none if empty) and state
    args[1:], and assigns the slopes d0..d{dim-1}; the loop pastes it at
    every stage, each d{c} renamed to that stage's slope.  free names the
    constants the body reads.  None is a body calling kernel.  events
    holds each event's formula, as _event_lines takes it (a false value:
    no events); the loop pastes each after every accepted step.
    make(*free, *each event's free) binds the constants and returns
    loop(gp, ts, ys, fs, t, y, f, t1, h, rel_tol, abs_tol, max_steps,
    h_min, flush=None, block=inf), with an argument ks after h_min for a
    method with dense rows.

    The loop steps from the node (t, y, f), appends each accepted node to
    the flat lists ts, ys and fs (ys and fs hold dim floats a node), and
    returns (termination, t, accepted, rejected, stage evaluations);
    "max-steps" and "not-finite" are failures at that t, and a step that
    cannot advance t (or, adaptive, is below h_min) ends it as
    "step-underflow".  A method with dense rows also appends each accepted
    step's slopes that _dense_rows reads to ks.  Whenever ts holds block
    nodes the loop calls flush(), which moves the lists' contents to
    storage of its own and clears them in place; the default block never
    calls it.  gp holds the events' values at t.  When an event's value
    changes sign, or reaches zero from a nonzero value, over an accepted
    step, the loop keeps that step's node, sets gp to the events' values
    at the step's start and then at its end, and returns "event" at the
    step's end.
    """
    comps = range(dim)
    events = events or ()

    def vec(name: str) -> str:
        return ", ".join(f"{name}{c}" for c in comps)

    args, text, free = stage or (
        ("t_", *(f"s{c}" for c in comps)),
        f"[{vec('d')}] = kernel(t_, [{vec('s')}])", ("kernel",))

    def totals(terms: list) -> list:
        # y_c plus each (coefficient, slope) term, in index order
        return [" + ".join([f"y{c}"] + [f"{b} * {k}{c}" for b, k in terms])
                for c in comps]

    def stage(slope: str, time: str, state: list) -> list:
        # the body evaluated at time and state, one expression a component
        return _paste(text, zip(args, (time, *state)),
                      outs={f"d{c}": f"{slope}{c}" for c in comps}).splitlines()

    def check(*slopes: str) -> str:
        return " and ".join(f"isfinite({k}{c})" for k in slopes for c in comps)

    def finish(time: str) -> list:
        # z is the new state and g its slope, the next step's f
        return stage("g", time, [f"z{c}" for c in comps])

    done = "n_accept, n_reject, n_evals"
    reject = ["    n_reject += 1", "    h = 0.5 * h_use", "    continue"]
    m = _METHODS[method]
    body = ["attempts += 1", "if attempts > max_steps:",
            f"    return 'max-steps', t, {done}"]
    if m.norm:
        body += ["if h < h_min:", f"    return 'step-underflow', t, {done}"]
    body += ["remaining = t1 - t", f"if remaining <= {m.stretch!r} * h:",
             "    h_use = remaining", "    t_new = t1",
             "else:", "    h_use = h", "    t_new = t + h_use",
             "if not t_new > t:", f"    return 'step-underflow', t, {done}"]
    if not m.norm:
        # stage coefficients are the half step hh or the whole step h_use;
        # the weights are written over their common denominator.  Every
        # stage is evaluated before the finiteness test, so one line
        # counts a step's len(m.a) evaluations: k2.. and the new slope g
        step = {0.5: "hh", 1.0: "h_use"}
        slopes = ["f", *(f"k{i + 1}_" for i in range(1, len(m.a)))]
        body += ["hh = 0.5 * h_use", f"n_evals += {len(m.a)}"]
        for i in range(1, len(m.a)):
            terms = [(step[a], slopes[j]) for j, a in enumerate(m.a[i]) if a]
            time = "t_new" if m.c[i] == 1.0 else f"t + {m.c[i]!r} * h_use"
            body += stage(slopes[i], time, totals(terms))
        over = 1.0 / min(m.b)
        sums = [" + ".join(f"{k}{c}" if w == min(m.b) else
                           f"{w / min(m.b)!r} * {k}{c}"
                           for w, k in zip(m.b, slopes)) for c in comps]
        body.append(f"h{over:g} = h_use / {over!r}")
        body += [f"z{c} = y{c} + h{over:g} * ({x})"
                 for c, x in enumerate(sums)]
        body += [*finish("t_new"), f"if not ({check('z', 'g')}):",
                 f"    return 'not-finite', t_new, {done}"]
    else:
        # k1 is f; the last stage evaluates the solution z (FSAL), whose
        # slope g is the next step's f.  A non-finite stage ends the
        # attempt, so each stage is counted as it is evaluated
        count = ["n_evals += 1"]
        s = len(m.a)
        slopes = ["f", *(f"k{i + 1}_" for i in range(1, s)), "g",
                  *(f"k{i + 1}_" for i in range(s + 1, s + 1 + len(m.extra)))]
        rows = [(m.c[i], m.a[i]) for i in range(1, s)] + [(m.c[s], m.b)]

        def coefficients(row: tuple) -> tuple[list, list]:
            # the lines naming h_use times each nonzero coefficient, and
            # the (name, slope) terms of the stage sum
            used = [(j, a) for j, a in enumerate(row) if a]
            return ([f"b{j + 1} = h_use * {a!r}" for j, a in used],
                    [(f"b{j + 1}", slopes[j]) for j, _ in used])

        for i, (when, row) in enumerate(rows, 1):
            lines, terms = coefficients(row)
            body += lines
            time = f"t + {when!r} * h_use"
            if i < s:
                body += count + stage(slopes[i], time, totals(terms))
            else:
                body += [f"z{c} = {x}" for c, x in enumerate(totals(terms))]
                body += count + finish(time)
            body += [f"if not ({check(slopes[i])}):", *reject]
        # the scaled error; u >= w is False when w is nan, so nan
        # propagates as it does through np.maximum
        body.append("sq = 0.0")
        if m.norm == "rms":
            # RMS of the scaled error
            for c in comps:
                e = " + ".join(f"{w!r} * {k}{c}"
                               for w, k in zip(m.e[0], slopes) if w)
                body += [f"u = abs(y{c})", f"w = abs(z{c})",
                         f"q = (abs(h_use * ({e}))\n"
                         "     / (abs_tol + rel_tol * (u if u >= w else w)))",
                         "sq += q * q"]
            body.append(f"err = sqrt(sq / {dim})")
        else:
            # DOP853's norm: the fifth-order estimate, damped where the
            # third-order one is large; 0.0 when both vanish
            body.append("sq3 = 0.0")
            for c in comps:
                e5, e3 = (" + ".join(f"{w!r} * {k}{c}"
                                     for w, k in zip(weights, slopes) if w)
                          for weights in m.e)
                body += [f"u = abs(y{c})", f"w = abs(z{c})",
                         "sc = abs_tol + rel_tol * (u if u >= w else w)",
                         f"q = ({e5}) / sc", f"p = ({e3}) / sc",
                         "sq += q * q", "sq3 += p * p"]
            body += ["den = sq + 0.01 * sq3",
                     f"err = h_use * sq / sqrt(den * {dim}) if den != 0.0"
                     " else 0.0"]
        grow = f"{_SAFETY!r} * err ** {-(0.7 / m.order)!r}"
        body += ["if not isfinite(err):", *reject,
                 "err = max(err, 1e-16)", "if err > 1.0:", "    n_reject += 1",
                 f"    h = h_use * max({_FAC_MIN!r}, min(1.0, {grow}))",
                 "    continue"]
        for i, (when, row) in enumerate(m.extra, s + 1):
            lines, terms = coefficients(row)
            body += [*lines, *count, *stage(slopes[i], f"t + {when!r} * h_use",
                                            totals(terms)),
                     f"if not ({check(slopes[i])}):", *reject]
        body += [f"fac = {grow} * err_prev ** {0.4 / m.order!r}",
                 "err_prev = max(err, 1e-4)",
                 f"h = h_use * max({_FAC_MIN!r}, min({_FAC_MAX!r}, fac))"]
    body.append("n_accept += 1")
    if m.dense:
        # the slopes the dense rows read, for integrate's _dense_rows
        kept = [f"{slopes[j]}{c}" for j in _dense_columns(m) for c in comps]
        body.append(f"ks += ({', '.join(kept)},)")
    head, stop = "", []
    if events:
        old = ", ".join(f"ep{k}" for k in range(len(events)))
        new = ", ".join(f"e{k}" for k in range(len(events)))
        for k, formula in enumerate(events):
            lines, names = _event_lines(k, formula, dim)
            body += lines
            free = (*free, *names)
        crossed = " or ".join(f"ep{k} * e{k} < 0.0 or (e{k} == 0.0 and ep{k}"
                              " != 0.0)" for k in range(len(events)))
        # the crossed step's node is kept, as any accepted node
        stop = [f"if {crossed}:", f"    gp[:] = [{old}, {new}]",
                f"    return 'event', t, {done}", f"{old} = {new}"]
        head = f"        [{old}] = gp\n"
    body += ["t = t_new", f"{vec('y')} = {vec('z')}",
             f"{vec('f')} = {vec('g')}",
             "ts.append(t)", f"ys += ({vec('y')},)",
             f"fs += ({vec('f')},)", "if len(ts) >= block:",
             "    flush()", *stop]
    return (
        f"def make({', '.join(free)}):\n"
        "    def loop(gp, ts, ys, fs, t, y, f, t1, h, rel_tol, abs_tol,\n"
        f"             max_steps, h_min{', ks' if m.dense else ''}, "
        "flush=None, block=inf):\n"
        f"        [{vec('y')}] = y\n        [{vec('f')}] = f\n" + head +
        "        n_accept = n_reject = n_evals = attempts = 0\n"
        "        err_prev = 1e-4\n        while t < t1:\n            "
        + "\n".join(body).replace("\n", "\n            ")
        + f"\n        return 'completed', t, {done}\n    return loop\n")


@functools.cache
def _loop(method: str, dim: int, events=(), stage=None):
    """make(*free) -> the step loop of one key; its text is make.source."""
    name = f"<{method} loop, {dim} components, {len(events or ())} events>"
    return _compile(_loop_source(method, dim, events, stage), name)


def integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
              y0: Sequence[float],
              settings: IntegratorSettings) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) over settings.t_span.

    rk4 steps by settings.h; rk45 and dop853 start with a step of a
    hundredth of the span and adapt it to rel_tol and abs_tol.  Returns a
    Trajectory whose termination field is one of "completed", "event" and
    "step-underflow", the last when t + step rounds to t (adaptive: or a
    step is below 1e-14 of the span); a dop853 Trajectory carries its dense
    rows.
    Exceeding max_steps raises IntegrationError with the partial trajectory
    attached, as does a non-finite right-hand side at an accepted point.
    meta["accepted"] counts the steps the controller accepted: one fewer
    than the nodes, except where an event's crossing rounds to the crossed
    step's start, so that the run drops that step's node but still counts
    the step, and accepted equals the node count.

    The nodes pass through Python floats one block at a time: the step
    loop moves its node lists into float64 storage every core._BLOCK_ROWS
    nodes, and the Trajectory's t, y and dy (and the slopes its dense rows
    are computed from) are views of that storage, so a long run holds its
    arrays and one block of floats.

    rhs is any callable rhs(t, y) -> array-like taking an ndarray y.  The
    states here have two to four components, where numpy's per-call cost
    outweighs the arithmetic, so each step runs on Python floats.  An rhs
    may expose the same formula as a float kernel, an attribute
    rhs.kernel(t, y) that takes a float and a list of floats and returns a
    new list of floats; the step loop then calls the kernel and builds no
    ndarray per stage.  An rhs with a kernel may also expose its text,
    rhs.formula = (args, body, free) as in _loop_source, and the values of
    the free names, rhs.constants; the loop then pastes the body at every
    stage and calls nothing.  The systems.*_rhs builders expose all three.
    Any other callable gets an ndarray of the stage state.  rhs itself is
    called once at the initial state to check its shape and finiteness; a
    kernel whose output changes length later raises ValueError.

    Event functions receive the state as a list of floats, as kernels do.
    An event function may expose its text in the same way, fn.formula =
    (args, body, free) with a body that sets d0 (an arg left "" is not
    read), and fn.constants; the loop then pastes the body after every
    accepted step, and calls fn only to bisect a sign change along the
    step's interpolant.  Any other event function is called at every
    accepted node.  The systems.*_event builders expose both.
    """
    t0, t1 = settings.t_span
    span = t1 - t0
    y_arr = np.array(y0, dtype=float)
    if y_arr.ndim != 1 or y_arr.size == 0:
        raise ValueError("y0 must be a non-empty one-dimensional sequence")
    f_arr = np.asarray(rhs(t0, y_arr), dtype=float)
    if f_arr.shape != y_arr.shape:
        raise ValueError("rhs shape does not match the state")
    if not np.all(np.isfinite(f_arr)):
        raise IntegrationError("right-hand side not finite at the initial state")

    kernel = getattr(rhs, "kernel", None)
    if kernel is None:
        asarray, toarray = np.asarray, np.array

        def kernel(tc: float, yc: list) -> list:
            return asarray(rhs(tc, toarray(yc)), dtype=float).tolist()

    y = y_arr.tolist()
    f = f_arr.tolist()
    dim = len(y)
    events = settings.events
    m = _METHODS[settings.method]
    # the short lists the loop appends nodes, node slopes and (dense rows)
    # step slopes to, and the float64 storage flush moves them to
    lists = ([t0], list(y), list(f), *([[]] if m.dense else []))
    store = [array("d") for _ in lists]

    def flush() -> None:
        for kept, block in zip(store, lists):
            kept.fromlist(block)
            block.clear()

    h = span / 100.0 if m.norm else settings.h
    formula = getattr(rhs, "formula", None)
    texts = tuple(getattr(ev.fn, "formula", None) for ev in events)
    constants = [*(rhs.constants if formula else (kernel,))]
    for ev, text in zip(events, texts):
        constants += ev.fn.constants if text else (ev.fn,)
    loop = _loop(settings.method, dim, texts, formula)(*constants)
    gp = [float(ev.fn(t0, y)) for ev in events]
    termination, t, n_accept, n_reject, n_evals = loop(
        gp, *lists[:3], t0, y, f, t1, h, settings.rel_tol, settings.abs_tol,
        settings.max_steps, _UNDERFLOW * span, *lists[3:], flush=flush,
        block=core._BLOCK_ROWS)
    failure = {"max-steps": f"max_steps={settings.max_steps} exceeded at t={t}",
               "not-finite": f"right-hand side not finite near t={t}",
               }.get(termination)
    flush()
    # views of the storage, no copy
    t_arr, y_arr, f_arr, *ks = (np.frombuffer(kept) for kept in store)
    y_arr, f_arr = y_arr.reshape(-1, dim), f_arr.reshape(-1, dim)
    dense = None
    if m.dense:
        dense = _dense_rows(m, t_arr, y_arr, f_arr, ks[0].reshape(
            t_arr.size - 1, len(_dense_columns(m)), dim))
    stops = ()
    if termination == "event":
        # bisect each sign change over the last step on its interpolant,
        # evaluated a component at a time on Python floats; the earliest
        # crossing (the first event's, on a tie) is the stop
        t, t_new = t_arr[-2:].tolist()
        rows = None if dense is None else dense[-1]
        comps = [((t, a, fa, t_new, b, fb), r) for a, fa, b, fb, r in zip(
            y_arr[-2].tolist(), f_arr[-2].tolist(), y_arr[-1].tolist(),
            f_arr[-1].tolist(),
            [None] * dim if rows is None else rows.T.tolist())]

        def state(tm: float) -> list:
            return [_step_at(step, tm, r) for step, r in comps]

        crossings = [
            (bisect_root(lambda tm: ev.fn(tm, state(tm)), t, t_new, g0,
                         _EVENT_RESOLUTION), ev.name)
            for ev, g0, g1 in zip(events, gp, gp[len(events):])
            if g0 * g1 < 0.0 or (g1 == 0.0 and g0 != 0.0)]
        stop_at, name = min(crossings, key=lambda crossing: crossing[0])
        stops = ((stop_at, name),)
        if stop_at > t:
            # the stop replaces the step's end; the run keeps its first part
            y_stop = state(stop_at)
            y_arr[-1] = y_stop
            f_arr[-1] = kernel(stop_at, y_stop)
            n_evals += 1
            t_arr[-1] = stop_at
            if rows is not None:
                dense[-1] = _cut(rows, (stop_at - t) / (t_new - t))
        else:
            # the crossing is the step's start: the run ends there
            t_arr, y_arr, f_arr = t_arr[:-1], y_arr[:-1], f_arr[:-1]
            dense = None if dense is None else dense[:-1]
    traj = Trajectory(
        t=t_arr, y=y_arr, dy=f_arr,
        termination="aborted" if failure else termination,
        events=stops,
        meta={"method": settings.method,
              **{k: getattr(settings, k) for k in m.reads},
              "t_span": (t0, t1),
              "accepted": n_accept, "rejected": n_reject,
              "rhs_evals": 1 + n_evals},
        dense=dense)
    if failure:
        raise IntegrationError(failure, trajectory=traj)
    return traj
