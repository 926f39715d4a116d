"""Numerical evaluation of generating functions and singularity search.

newton_evaluate solves Y = Phi(x, Y) by Newton iteration from Y = 0,
solving the dense linear system (I - J) d = Phi(Y) - Y each step with
partial pivoting.  Below the dominant singularity rho the iteration
converges quadratically to the combinatorial fixed point.  At or past rho
it is classified as divergent, and that dichotomy drives the bisection in
estimate_singularity.

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
the runs in which no step falls.

Phi and its Jacobian are evaluated with numpy over all monomials at once,
in the same floating-point order as a per-monomial loop (see _NumSystem),
so the values, and with them the bisection and every oracle, are those of
the loop bit for bit.  numpy is imported on first use, so importing the
package, or sampling from a saved oracle, does not load it.

Constants: tolerance 1e-12 on both the update and the residual, value
ceiling 1e8, iteration cap 500, falling-step tolerance 1e-6, bisection
over [0, 1] to a bracket width of 1e-8, automatic evaluation point
rho_lower * (1 - 1e-7).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DivergedError,
    NoFiniteSingularityError,
    OracleMismatchError,
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
BRACKET_WIDTH = 1e-8
AUTO_BACKOFF = 1e-7

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
                coeffs.append(float(mon.coeff))
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
        if not np.isfinite(Y).all() or (np.abs(Y) > VALUE_CEILING).any():
            raise DivergedError(x, "values exceeded the ceiling %g" % VALUE_CEILING)
        if (delta < -FALL_TOLERANCE * np.maximum(1.0, np.abs(Y))).any():
            raise DivergedError(
                x, "Newton step fell at iteration %d, so x is at or past "
                "the singularity" % it
            )
        if np.max(np.abs(delta)) < TOLERANCE:
            residual = float(np.max(np.abs(num.phi(bound, Y) - Y)))
            if residual >= TOLERANCE:
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
    rho: float
    lower: float
    upper: float


def estimate_singularity(system):
    """Bisection estimate of the dominant singularity in [0, 1].

    Invariant: Newton converges at the lower end and diverges at the upper
    end.  Raises NoFiniteSingularityError if it converges at x = 1."""
    num = _as_num(system)

    def converges(x):
        try:
            newton_evaluate(num, x)
            return True
        except DivergedError:
            return False

    if converges(1.0):
        raise NoFiniteSingularityError(1.0)
    lo, hi = 0.0, 1.0
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if converges(mid):
            lo = mid
        else:
            hi = mid
    return SingularityEstimate(rho=lo, lower=lo, upper=hi)


@dataclass
class OracleTable:
    """Solved evaluation point: x, one value per class, and metadata."""

    x: float
    values: dict
    rho_lower: "float | None"
    rho_upper: "float | None"
    iterations: int
    residual: float
    system_digest: str


def solve(system, x="auto"):
    """Produce an OracleTable for a system.

    With x="auto" the singularity is bracketed first and the evaluation
    point is rho_lower * (1 - AUTO_BACKOFF).  With an explicit x the values
    are computed directly; if Newton diverges there, the singularity is
    bracketed and reported in the error."""
    num = _NumSystem(system)
    if x == "auto":
        est = estimate_singularity(num)
        x = est.rho * (1.0 - AUTO_BACKOFF)
        result = newton_evaluate(num, x)
    else:
        est = None
        x = float(x)
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


def load_oracle(path, system=None):
    """Read an oracle file; verify its digest against a system if given."""
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
            try:
                values[parts[1]] = float(parts[2])
            except ValueError:
                raise SystemFormatError(
                    "line %d: bad value %r" % (lineno, parts[2])
                ) from None
        elif parts[0] in ("system", "x", "rho-lo", "rho-hi", "iterations", "residual"):
            if len(parts) != 2:
                raise SystemFormatError("line %d: bad %s line" % (lineno, parts[0]))
            fields[parts[0]] = parts[1]
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
            x=float(fields["x"]),
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
            "re-run solve to refresh it",
        )
    missing = set(system.classes) - set(oracle.values)
    if missing:
        raise OracleMismatchError(
            "oracle lacks values for class(es): %s" % ", ".join(sorted(missing))
        )

