"""Numerical evaluation of generating functions and singularity search.

newton_evaluate solves Y = Phi(x, Y) by Newton iteration from Y = 0,
solving the dense linear system (I - J) d = Phi(Y) - Y each step with
partial pivoting.  Below the dominant singularity rho the iteration
converges quadratically to the combinatorial fixed point.  At or past rho
it is classified as divergent, and that dichotomy defines the bracket that
estimate_singularity returns.

Divergence is certified by a falling step.  For a well-founded system with
nonnegative coefficients and x < rho, Newton from Y = 0 rises
monotonically to the fixed point (Pivoteau, Salvy & Soria, "Algorithms for
combinatorial structures: well-founded systems and Newton iterations",
JCTA 2012): every iterate keeps Phi(Y) >= Y and (I - J)^-1 >= 0, so every
exact step d is >= 0 in every component.  A step with a clearly negative
component therefore proves x >= rho, usually within a few iterations.
"Clearly" is relative: d_i < -FALL_TOLERANCE * max(1, |Y_i|).  Rounding
makes small negative corrections on large values; feed, whose generating
function has a pole, reaches values near 4e7 just below it, where a
correction of -0.157 appears, and an absolute threshold would misread that
convergent point as divergent.  Past rho a run can also end with values
above the ceiling, a singular Newton matrix, a fixed point with negative
components, or no convergence within the iteration cap, the backstop for
the runs in which no step falls.  Convergence is relative in the same way:
every |d_i| < TOLERANCE * max(1, |Y_i|), then a residual |Phi(Y) - Y|
below TOLERANCE * max(1, max |Y|).  Near rho, I - J is nearly singular and
the steps keep a rounding noise of order eps |Y| / (1 - lambda), lambda the
Perron root of J; an absolute step test there never passed on some systems
with values near 100, and called converged points divergent.  Rounding
keeps the residual itself of order eps max |Y|: at values near 8e3 it
stays at 1.8e-12 or more, so an absolute residual test ran on to the
iteration cap and called that point divergent too.

The singularity is located in two stages.  Bisection over [0, 1] narrows
it to COARSE_WIDTH.  For a grammar with a square-root singularity, Y stays
finite at rho and the Drmota-Lalley-Woods characterisation (Flajolet &
Sedgewick, Analytic Combinatorics, VII.6) holds there: Y = Phi(rho, Y) and
J(rho, Y) has Perron root 1, with a nonnegative eigenvector v.  Newton on
that augmented system in (Y, v, x), started at the coarse lower end, gives
rho to about machine precision in a handful of steps, and one Newton run on
each side of it confirms the final bracket.  A pole grammar (feed) has no
finite Y at rho: its augmented iteration sends the values past the ceiling,
and the search goes on by bisection, as it does whenever the augmented
solve or a confirming run fails.

Phi and its Jacobian are evaluated with numpy over all monomials at once,
in the same floating-point order as a per-monomial loop (see _NumSystem),
so the values, and with them every oracle, are those of the loop bit for
bit.  numpy is imported on first use, so importing the package, or
sampling from a saved oracle, does not load it.

Constants: tolerance 1e-12 on both the update and the residual (both
relative), value ceiling 1e8, iteration cap 500, falling-step tolerance
1e-6, coarse bisection over [0, 1] to a width of 2^-8, augmented steps to
a relative 1e-10 within 15 iterations, final bracket width 1e-8,
automatic evaluation point rho_lower * (1 - 1e-7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    DivergedError,
    NoFiniteSingularityError,
    OracleMismatchError,
    SolverError,
    SystemFormatError,
)

__all__ = [
    "TOLERANCE",
    "VALUE_CEILING",
    "ITERATION_CAP",
    "FALL_TOLERANCE",
    "BRACKET_WIDTH",
    "AUTO_BACKOFF",
    "NewtonResult",
    "SingularityEstimate",
    "OracleTable",
    "newton_evaluate",
    "estimate_singularity",
    "solve",
    "save_oracle",
    "load_oracle",
]

TOLERANCE = 1e-12
VALUE_CEILING = 1e8
ITERATION_CAP = 500
FALL_TOLERANCE = 1e-6
COARSE_WIDTH = 2.0**-8
BRACKET_WIDTH = 1e-8
AUTO_BACKOFF = 1e-7
AUGMENTED_TOLERANCE = 1e-10
AUGMENTED_CAP = 15

_ORACLE_HEADER = "boltzxml-oracle 1"


class _NumSystem:
    """Index-based float view of a GfSystem for fast Phi and Jacobian.

    Every monomial c * x**xe * prod(Y[j]**e) becomes a row of K factor
    slots, K being the largest number of factors in any monomial.  A slot
    indexes a table of the powers Y[j]**e over the distinct (class,
    exponent) pairs, built once per Y and shared by Phi and J; unused
    slots index a trailing 1.0.  Each Jacobian term d/dY[j] of a monomial
    is a row of its own: the power Y[j]**(e-1) first, then the other
    factors in their order.

    The arithmetic is that of a per-monomial loop, operation for operation:
    products run over the slot columns left to right, the powers come from
    Python's ** operator, which rounds as the ** of float64 scalars does
    (np.power rounds differently in a few percent of cases), and
    np.bincount adds the terms of each equation in monomial order,
    starting from 0.0.  tests/test_newton.py keeps the loop as the
    reference and requires equal results."""

    def __init__(self, system):
        import numpy as np

        self.names = list(system.classes)
        self.m = len(self.names)
        index = {name: i for i, name in enumerate(self.names)}
        slots = {}  # (class index, exponent) -> slot in the power table
        coeffs, xexps, eqs, phi_rows = [], [], [], []
        jac_mons, jac_scales, jac_cells, jac_rows = [], [], [], []
        for i, name in enumerate(self.names):
            for mon in system.equations[name]:
                factors = [(index[c], e) for c, e in mon.powers]
                row = [slots.setdefault(f, len(slots)) for f in factors]
                for k, (j, e) in enumerate(factors):
                    jac_mons.append(len(coeffs))
                    jac_scales.append(float(e))
                    jac_cells.append(i * self.m + j)
                    jac_rows.append(
                        [slots.setdefault((j, e - 1), len(slots))]
                        + row[:k] + row[k + 1:]
                    )
                try:
                    coeffs.append(float(mon.coeff))
                except OverflowError:
                    raise SolverError(
                        "a coefficient of class %r is past the float range" % name
                    ) from None
                xexps.append(mon.xexp)
                eqs.append(i)
                phi_rows.append(row)
        self._pairs = list(slots)
        self._coeffs = coeffs
        self._xexps = xexps
        self._eqs = np.array(eqs, dtype=np.intp)
        self._jac_mons = np.array(jac_mons, dtype=np.intp)
        self._jac_scales = np.array(jac_scales)
        self._jac_cells = np.array(jac_cells, dtype=np.intp)
        width = max(map(len, phi_rows), default=0)
        self._phi_cols = self._columns(phi_rows, width)
        self._jac_cols = self._columns(jac_rows, width)
        # numpy arrays for the augmented system
        self._coeff_array = np.array(coeffs)
        self._xexp_array = np.array(xexps)
        pairs = np.array(self._pairs, dtype=np.intp).reshape(-1, 2)
        self._pair_classes, self._pair_exps = pairs[:, 0], pairs[:, 1]
        self._jac_i, self._jac_j = np.divmod(self._jac_cells, self.m)

    def _columns(self, rows, width):
        """Slot rows padded with the 1.0 slot, as a (width, len(rows)) array."""
        import numpy as np

        one = len(self._pairs)
        flat = [row[k] if k < len(row) else one for k in range(width) for row in rows]
        return np.array(flat, dtype=np.intp).reshape(width, len(rows))

    def bind(self, x):
        """Monomial coefficients times x**xexp, and their Jacobian multiples."""
        import numpy as np

        cx = np.array([c * x**xe for c, xe in zip(self._coeffs, self._xexps)])
        return cx, cx[self._jac_mons] * self._jac_scales

    def powers(self, Y):
        """Table of Y[j]**e for the distinct (class, exponent) pairs, then 1.0."""
        import numpy as np

        ys = Y.tolist()
        try:
            table = [ys[j] ** e for j, e in self._pairs]
        except OverflowError:
            # Python floats raise where float64 scalars give inf
            ys = list(Y)
            table = [ys[j] ** e for j, e in self._pairs]
        table.append(1.0)
        return np.array(table)

    def phi(self, bound, Y, table=None):
        import numpy as np

        if table is None:
            table = self.powers(Y)
        terms = bound[0]
        for col in self._phi_cols:
            terms = terms * table[col]
        return np.bincount(self._eqs, weights=terms, minlength=self.m)

    def jacobian(self, bound, Y, table=None):
        import numpy as np

        if table is None:
            table = self.powers(Y)
        terms = bound[1]
        for col in self._jac_cols:
            terms = terms * table[col]
        J = np.bincount(self._jac_cells, weights=terms, minlength=self.m * self.m)
        return J.reshape(self.m, self.m)

    def augmented(self, x, Y, v):
        """Residual F and Jacobian A of the augmented system at z = (Y, v, x).

        The equations are Y = Phi(x, Y), (I - J(x, Y)) v = 0 and sum(v) = 1.
        A has the blocks

            [ J - I   0       dPhi/dx  ]
            [ H       J - I   dJ/dx v  ]
            [ 0       1...1   0        ]

        where H = d/de J(x, Y + e v) at e = 0, whose [i, k] entry is
        sum_j v[j] d2Phi_i / dY[j] dY[k].  H comes from the Jacobian rows
        by the product rule: beside each power Y[j]**e the table carries
        its derivative along v, e * Y[j]**(e-1) * v[j], and the row
        products carry theirs.  Rounding does not matter here, so the
        powers are numpy's."""
        import numpy as np

        m = self.m
        coeffs, xexps = self._coeff_array, self._xexp_array
        cls, exps = self._pair_classes, self._pair_exps
        cx = coeffs * x**xexps
        dx = coeffs * xexps * x ** np.maximum(xexps - 1, 0)
        table = np.append(Y[cls] ** exps, 1.0)
        dtable = np.append(exps * Y[cls] ** np.maximum(exps - 1, 0) * v[cls], 0.0)
        phi_t = np.ones(len(cx))
        for col in self._phi_cols:
            phi_t = phi_t * table[col]
        jac_t = self._jac_scales
        jac_d = np.zeros(len(jac_t))
        for col in self._jac_cols:
            jac_d = jac_d * table[col] + jac_t * dtable[col]
            jac_t = jac_t * table[col]
        cj = cx[self._jac_mons]
        J = np.bincount(self._jac_cells, weights=cj * jac_t, minlength=m * m)
        H = np.bincount(self._jac_cells, weights=cj * jac_d, minlength=m * m)
        J, H = J.reshape(m, m), H.reshape(m, m)
        Phi = np.bincount(self._eqs, weights=cx * phi_t, minlength=m)
        A = np.zeros((2 * m + 1, 2 * m + 1))
        A[:m, :m] = A[m:-1, m:-1] = J - np.eye(m)
        A[:m, -1] = np.bincount(self._eqs, weights=dx * phi_t, minlength=m)
        A[m:-1, :m] = H
        A[m:-1, -1] = np.bincount(
            self._jac_i, weights=dx[self._jac_mons] * jac_t * v[self._jac_j],
            minlength=m,
        )
        A[-1, m:-1] = 1.0
        F = np.concatenate([Phi - Y, J @ v - v, [v.sum() - 1.0]])
        return F, A


@dataclass
class NewtonResult:
    values: dict
    iterations: int
    residual: float


def _as_num(system):
    if isinstance(system, _NumSystem):
        return system
    return _NumSystem(system)


def newton_evaluate(system, x):
    """Evaluate all class generating functions at x, or raise DivergedError."""
    import numpy as np

    num = _as_num(system)
    bound = num.bind(x)
    m = num.m
    Y = np.zeros(m)
    eye = np.eye(m)
    for it in range(1, ITERATION_CAP + 1):
        table = num.powers(Y)
        F = num.phi(bound, Y, table)
        if not np.isfinite(F).all() or (F > VALUE_CEILING).any():
            raise DivergedError(x, "values exceeded the ceiling %g" % VALUE_CEILING)
        J = num.jacobian(bound, Y, table)
        try:
            delta = np.linalg.solve(eye - J, F - Y)
        except np.linalg.LinAlgError:
            raise DivergedError(x, "singular Newton matrix") from None
        Y = Y + delta
        size = np.abs(Y)
        if not (size <= VALUE_CEILING).all():  # also false for nan
            raise DivergedError(x, "values exceeded the ceiling %g" % VALUE_CEILING)
        scale = np.maximum(1.0, size)
        if (delta < -FALL_TOLERANCE * scale).any():
            raise DivergedError(
                x, "Newton step fell at iteration %d, so x is at or past "
                "the singularity" % it
            )
        if (np.abs(delta) < TOLERANCE * scale).all():
            residual = float(np.max(np.abs(num.phi(bound, Y) - Y)))
            if residual >= TOLERANCE * float(scale.max()):
                continue
            if np.min(Y) < -1e-9:
                raise DivergedError(
                    x, "converged to a branch with negative components"
                )
            Y = np.maximum(Y, 0.0)
            values = {name: float(Y[i]) for i, name in enumerate(num.names)}
            return NewtonResult(values, it, residual)
    raise DivergedError(x, "no convergence within %d iterations" % ITERATION_CAP)


@dataclass
class SingularityEstimate:
    """Bracket [lower, upper] of the dominant singularity, and its trace.

    rho is the augmented solution when method is "augmented", else lower.
    newton_runs counts the calls of newton_evaluate that found it."""

    rho: float
    lower: float
    upper: float
    newton_runs: int = 0
    method: str = "bisection"


def _augmented_rho(num, lo, hi, start):
    """Singularity of a square-root grammar in [lo, hi], or None.

    Newton on the augmented system (see _NumSystem.augmented), started at
    x = lo from the values there and from (I - J)^-1 1, which points
    nearly along J's Perron vector close to the singularity.  None when a
    solve is singular, values run past the ceiling (a pole: Y has no finite
    value at rho), the iteration does not settle within AUGMENTED_CAP steps,
    or it settles outside [lo, hi] or off the Perron vector."""
    import numpy as np

    m = num.m
    Y = np.array([start.values[name] for name in num.names])
    try:
        w = np.linalg.solve(np.eye(m) - num.jacobian(num.bind(lo), Y), np.ones(m))
    except np.linalg.LinAlgError:
        return None
    z = np.concatenate([Y, w / w.sum(), [lo]])
    for _ in range(AUGMENTED_CAP):
        F, A = num.augmented(z[-1], z[:m], z[m:-1])
        try:
            step = np.linalg.solve(A, -F)
        except np.linalg.LinAlgError:
            return None
        z = z + step
        if not (np.abs(z) <= VALUE_CEILING).all():
            return None
        if (np.abs(step) < AUGMENTED_TOLERANCE * np.maximum(1.0, np.abs(z))).all():
            rho = float(z[-1])
            if lo <= rho <= hi and (z[m:-1] > -AUGMENTED_TOLERANCE).all():
                return rho
            return None
    return None


def estimate_singularity(system):
    """Bracket of the dominant singularity in [0, 1].

    Bisection narrows [0, 1] to COARSE_WIDTH.  For a square-root grammar
    the augmented system then gives rho, and one Newton run on each side
    of it, BRACKET_WIDTH apart, confirms the bracket.  When the augmented
    solve fails (always on a pole grammar) or a confirming run disagrees,
    bisection goes on down to BRACKET_WIDTH.

    Invariant: Newton converges at the lower end and diverges at the upper
    end.  Raises NoFiniteSingularityError if it converges at x = 1."""
    num = _as_num(system)
    lo, hi, at_lo, runs = 0.0, 1.0, None, 0

    def converges(x):
        nonlocal lo, hi, at_lo, runs
        runs += 1
        try:
            result = newton_evaluate(num, x)
        except DivergedError:
            hi = x
            return False
        lo, at_lo = x, result
        return True

    def bisect(width):
        while hi - lo > width:
            converges(0.5 * (lo + hi))

    if converges(1.0):
        raise NoFiniteSingularityError(1.0)
    bisect(COARSE_WIDTH)
    rho = None if at_lo is None else _augmented_rho(num, lo, hi, at_lo)
    if rho is not None:
        # Newton's steps at x < rho carry rounding noise of order
        # eps |Y| / (1 - lambda), lambda the Perron root of J, which nears 1
        # like the square root of rho - x; the diverging end is certified by
        # a falling step of that square-root order.  So the converging end
        # sits most of the bracket below rho and the diverging end close
        # above it, 0.99 BRACKET_WIDTH apart.  A coarse end closer to rho
        # than that is already probed.
        lower = max(lo, rho - 0.9 * BRACKET_WIDTH)
        upper = min(hi, rho + 0.09 * BRACKET_WIDTH)
        if (lower == lo or converges(lower)) and (upper == hi or not converges(upper)):
            return SingularityEstimate(rho, lower, upper, runs, "augmented")
    bisect(BRACKET_WIDTH)
    return SingularityEstimate(lo, lo, hi, runs, "bisection")


@dataclass
class OracleTable:
    """Solved evaluation point: x, one value per class, and metadata.

    newton_runs and method trace the solve (the calls of newton_evaluate,
    and how the bracket was found, None without a search).  The oracle file
    does not keep them, and equality ignores them."""

    x: float
    values: dict
    rho_lower: "float | None"
    rho_upper: "float | None"
    iterations: int
    residual: float
    system_digest: str
    newton_runs: int = field(default=0, compare=False)
    method: "str | None" = field(default=None, compare=False)


def solve(system, x="auto"):
    """Produce an OracleTable for a system.

    With x="auto" the singularity is bracketed first and the evaluation
    point is rho_lower * (1 - AUTO_BACKOFF).  With an explicit x the values
    are computed directly; if Newton diverges there, the singularity is
    bracketed and reported in the error; one that is not a finite number
    at least 0 raises ValueError."""
    num = _NumSystem(system)
    if x == "auto":
        est = estimate_singularity(num)
        x = est.lower * (1.0 - AUTO_BACKOFF)
        result = newton_evaluate(num, x)
    else:
        est = None
        x = float(x)
        if not 0.0 <= x < math.inf:
            raise ValueError("x must be a finite number at least 0, got %r" % x)
        try:
            result = newton_evaluate(num, x)
        except DivergedError as exc:
            try:
                est = estimate_singularity(num)
                bracket = (est.lower, est.upper)
            except NoFiniteSingularityError:
                bracket = None
            raise DivergedError(x, exc.reason, bracket=bracket) from None
    return OracleTable(
        x=x,
        values=result.values,
        rho_lower=None if est is None else est.lower,
        rho_upper=None if est is None else est.upper,
        iterations=result.iterations,
        residual=result.residual,
        system_digest=system.digest(),
        newton_runs=1 if est is None else est.newton_runs + 1,
        method=None if est is None else est.method,
    )


# ---------------------------------------------------------------------------
# oracle file format


def _fmt(v):
    return "%.17g" % v


def save_oracle(oracle, path):
    lines = [
        _ORACLE_HEADER,
        "system %s" % oracle.system_digest,
        "x %s" % _fmt(oracle.x),
        "rho-lo %s" % (_fmt(oracle.rho_lower) if oracle.rho_lower is not None else "none"),
        "rho-hi %s" % (_fmt(oracle.rho_upper) if oracle.rho_upper is not None else "none"),
        "iterations %d" % oracle.iterations,
        "residual %s" % _fmt(oracle.residual),
    ]
    for name, value in oracle.values.items():
        lines.append("class %s %s" % (name, _fmt(value)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _point_value(raw, lineno):
    """x or a class value from an oracle file: a finite number at least 0."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise SystemFormatError(
            "line %d: bad value %r, not a finite number at least 0" % (lineno, raw)
        )
    return value


def load_oracle(path, system=None):
    """Read an oracle file; verify its digest against a system if given.
    x and every class value must be finite numbers at least 0."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != _ORACLE_HEADER:
        raise SystemFormatError("%s: not an oracle file (missing header)" % path)
    fields = {}
    values = {}
    for lineno, line in enumerate(lines[1:], 2):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "class":
            if len(parts) != 3:
                raise SystemFormatError("line %d: bad class line" % lineno)
            if parts[1] in values:
                raise SystemFormatError(
                    "line %d: duplicate class %r" % (lineno, parts[1])
                )
            values[parts[1]] = _point_value(parts[2], lineno)
        elif parts[0] in ("system", "x", "rho-lo", "rho-hi", "iterations", "residual"):
            if len(parts) != 2:
                raise SystemFormatError("line %d: bad %s line" % (lineno, parts[0]))
            fields[parts[0]] = parts[1]
            if parts[0] == "x":
                x = _point_value(parts[1], lineno)
        else:
            raise SystemFormatError("line %d: unrecognized line %r" % (lineno, line))
    missing = {"system", "x", "iterations", "residual"} - set(fields)
    if missing:
        raise SystemFormatError(
            "%s: missing field(s): %s" % (path, ", ".join(sorted(missing)))
        )

    def opt_float(key):
        raw = fields.get(key, "none")
        return None if raw == "none" else float(raw)

    try:
        oracle = OracleTable(
            x=x,
            values=values,
            rho_lower=opt_float("rho-lo"),
            rho_upper=opt_float("rho-hi"),
            iterations=int(fields["iterations"]),
            residual=float(fields["residual"]),
            system_digest=fields["system"],
        )
    except ValueError as exc:
        raise SystemFormatError("%s: %s" % (path, exc)) from None
    if system is not None:
        verify_oracle(oracle, system)
    return oracle


def verify_oracle(oracle, system):
    digest = system.digest()
    if oracle.system_digest != digest:
        raise OracleMismatchError(
            "oracle was solved for system %s... but this system is %s..."
            % (oracle.system_digest[:12], digest[:12]),
            "re-run solve to refresh it, or pass the system it was solved for",
        )
    missing = set(system.classes) - set(oracle.values)
    if missing:
        raise OracleMismatchError(
            "oracle lacks values for class(es): %s" % ", ".join(sorted(missing))
        )

