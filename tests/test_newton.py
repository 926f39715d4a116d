"""Newton evaluation, singularity bracketing, and the oracle file format.

Reference values come from closed forms: the ternary singularity is
tau/(1+tau^3) with tau^3 = 1/2, the binary one is 1/2, the oneormore
discriminant (1+x-x^2)^2 = 4x vanishes at (3-sqrt5)/2, the attrs
discriminant gives the real root of 8x^3+4x^2-1, and the feed sequence
hits its pole where x(1+x) = 1, i.e. the reciprocal golden ratio."""

import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from boltzxml import (
    AUTO_BACKOFF,
    BRACKET_WIDTH,
    DivergedError,
    GfSystem,
    NoFiniteSingularityError,
    OracleMismatchError,
    Sampler,
    SystemFormatError,
    compile_grammar,
    estimate_singularity,
    load_oracle,
    load_system,
    newton_evaluate,
    parse_grammar,
    parse_grammar_file,
    save_oracle,
    save_system,
    solve,
    verify_oracle,
)
from boltzxml import newton
from boltzxml.newton import _NumSystem

RNG = 'xmlns="http://relaxng.org/ns/structure/1.0"'

TERNARY_RHO = 2 ** (-1.0 / 3.0) / 1.5
ONEORMORE_RHO = (3.0 - math.sqrt(5.0)) / 2.0
FEED_RHO = (math.sqrt(5.0) - 1.0) / 2.0

# data/schema-S-R-L.rng is the text of perfbench/schema.generate_schema(S, R, L);
# 4-16-8 has 29 classes and up to 4 factors a monomial, 13-80-16 has 122 classes
DATA = Path(__file__).parent / "data"
SCHEMA = DATA / "schema-4-16-8.rng"


def generated_system(name):
    return compile_grammar(parse_grammar_file(DATA / ("schema-%s.rng" % name)))


def attrs_rho():
    # real root of 8x^3 + 4x^2 - 1 by plain bisection
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 8 * mid**3 + 4 * mid**2 - 1 < 0:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# evaluation


def test_ternary_value_matches_plain_fixpoint(systems):
    x = 0.4
    t = 0.0
    for _ in range(500):
        t = x * (1.0 + t**3)
    result = newton_evaluate(systems["ternary"], x)
    assert abs(result.values["t"] - t) < 1e-14
    assert result.residual < 1e-12


def test_binary_value_matches_closed_form(systems):
    # b = x + x b^2 solves to (1 - sqrt(1-4x^2)) / (2x)
    for x in (0.1, 0.25, 0.4, 0.49):
        closed = (1.0 - math.sqrt(1.0 - 4.0 * x * x)) / (2.0 * x)
        result = newton_evaluate(systems["binary"], x)
        assert abs(result.values["b"] - closed) < 1e-12, x


def test_evaluation_at_zero(systems):
    for name, system in systems.items():
        result = newton_evaluate(system, 0.0)
        assert all(v == 0.0 for v in result.values.values()), name


def test_quadratic_convergence_iteration_count(systems):
    # far below the singularity Newton needs only a handful of steps
    assert newton_evaluate(systems["ternary"], 0.3).iterations <= 10


def test_diverges_past_singularity(systems):
    with pytest.raises(DivergedError):
        newton_evaluate(systems["ternary"], 0.56)


@pytest.mark.parametrize("name,x", [("binary", 0.75), ("ternary", 0.56)])
def test_divergence_is_certified_by_an_early_falling_step(systems, name, x):
    # below the singularity every Newton step from 0 is >= 0, so a falling
    # step proves divergence long before the iteration cap
    with pytest.raises(DivergedError) as info:
        newton_evaluate(systems[name], x)
    match = re.fullmatch(
        r"Newton step fell at iteration (\d+), so x is at or past the singularity",
        info.value.reason,
    )
    assert match, info.value.reason
    assert int(match.group(1)) <= 10


def _loop_monomials(system, x):
    index = {name: i for i, name in enumerate(system.classes)}
    return [
        [
            (float(mon.coeff) * x**mon.xexp, [(index[c], e) for c, e in mon.powers])
            for mon in system.equations[name]
        ]
        for name in system.classes
    ]


def _loop_phi(system, x, Y):
    """Per-monomial reference for Phi, in the order the vectorized kernel keeps."""
    out = []
    for mons in _loop_monomials(system, x):
        total = 0.0
        for cx, powers in mons:
            term = cx
            for j, e in powers:
                term *= Y[j] ** e
            total += term
        out.append(total)
    return out


def _loop_jacobian(system, x, Y):
    m = len(system.classes)
    J = [[0.0] * m for _ in range(m)]
    for i, mons in enumerate(_loop_monomials(system, x)):
        for cx, powers in mons:
            for k, (j, e) in enumerate(powers):
                term = cx * e * Y[j] ** (e - 1)
                for jj, ee in powers[:k] + powers[k + 1:]:
                    term *= Y[jj] ** ee
                J[i][j] += term
    return J


def test_vectorized_phi_and_jacobian_equal_the_loops(systems):
    rng = random.Random(7)
    schema = compile_grammar(parse_grammar_file(SCHEMA))
    for name, system in {**systems, "schema": schema}.items():
        num = _NumSystem(system)
        for _ in range(50):
            x = rng.uniform(0.0, 1.0)
            Y = np.array([rng.uniform(-3.0, 3.0) for _ in range(num.m)])
            bound = num.bind(x)
            assert num.phi(bound, Y).tolist() == _loop_phi(system, x, Y), name
            assert num.jacobian(bound, Y).tolist() == _loop_jacobian(system, x, Y), name


def test_overflowing_powers_give_inf_like_the_loops(tmp_path):
    # Python floats raise OverflowError on 1e10 ** 40; float64 gives inf
    path = tmp_path / "steep.gfs"
    path.write_text("boltzxml-system 1\nclasses 1\nstart t\neq t = 1 1 + 1 1 t:40\n")
    system = load_system(path)
    num = _NumSystem(system)
    Y = np.array([1e10])
    bound = num.bind(0.5)
    with np.errstate(over="ignore"):
        assert num.phi(bound, Y).tolist() == _loop_phi(system, 0.5, Y) == [math.inf]
        assert num.jacobian(bound, Y).tolist() == _loop_jacobian(system, 0.5, Y)


def test_feed_rejects_negative_branch(systems):
    # past the pole the fixpoint that Newton can reach has a negative
    # sequence component; it must be classified as divergence
    with pytest.raises(DivergedError):
        newton_evaluate(systems["feed"], 0.65)


# ---------------------------------------------------------------------------
# singularity bracketing


def test_bracket_invariant(systems):
    est = estimate_singularity(systems["ternary"])
    assert est.upper - est.lower <= BRACKET_WIDTH * 1.001
    newton_evaluate(systems["ternary"], est.lower)
    with pytest.raises(DivergedError):
        newton_evaluate(systems["ternary"], est.upper)


@pytest.mark.parametrize(
    "name,rho",
    [
        ("ternary", TERNARY_RHO),
        ("binary", 0.5),
        ("oneormore", ONEORMORE_RHO),
        ("attrs", attrs_rho()),
        ("feed", FEED_RHO),
    ],
)
def test_bracket_contains_analytic_singularity(systems, name, rho):
    est = estimate_singularity(systems[name])
    assert est.lower <= rho <= est.upper, (name, est.lower, rho, est.upper)


@pytest.mark.parametrize(
    "name,rho",
    [
        ("ternary", TERNARY_RHO),
        ("binary", 0.5),
        ("oneormore", ONEORMORE_RHO),
        ("attrs", attrs_rho()),
    ],
)
def test_augmented_solve_finds_analytic_singularity(systems, name, rho):
    est = estimate_singularity(systems[name])
    assert est.method == "augmented"
    assert abs(est.rho - rho) <= 1e-14 * rho, (name, est.rho, rho)


def test_pole_grammar_stays_on_bisection(systems):
    # feed's values have no finite limit at its pole, so the augmented
    # system has no solution there and the bracket comes from bisection
    est = estimate_singularity(systems["feed"])
    assert est.method == "bisection"
    assert est.upper - est.lower <= BRACKET_WIDTH
    assert est.lower <= FEED_RHO <= est.upper


@pytest.mark.parametrize("name", ["6-12-4", "10-3-3"])
def test_generated_bracket_invariant(name):
    # just below rho these systems' Newton steps keep a rounding noise near
    # 3e-12 on values up to ~120; an absolute 1e-12 step test never passed
    # there, so converging probes ran to the iteration cap and were called
    # divergent, which put the bracket below the singularity
    system = generated_system(name)
    est = estimate_singularity(system)
    assert est.method == "augmented"
    assert est.upper - est.lower <= BRACKET_WIDTH
    newton_evaluate(system, est.lower)
    with pytest.raises(DivergedError):
        newton_evaluate(system, est.upper)


def test_auto_solve_converges_where_values_are_large():
    # one probe of this schema's singularity search converges to values
    # near 1.3e4, where rounding keeps |Phi(Y) - Y| at 1.8e-12; an absolute
    # 1e-12 residual test ran it to the iteration cap, called it divergent
    # and made solve(x="auto") raise
    system = generated_system("38-6-6")
    probe = newton_evaluate(system, 0.69417534532349778)
    assert probe.residual > 1e-12 and probe.iterations < 10
    assert max(probe.values.values()) > 8e3
    oracle = solve(system, "auto")
    assert oracle.x < oracle.rho_lower <= oracle.rho_upper
    assert oracle.rho_upper - oracle.rho_lower <= BRACKET_WIDTH
    with pytest.raises(DivergedError):
        newton_evaluate(system, oracle.rho_upper)


@pytest.mark.parametrize("name", ["4-16-8", "13-80-16"])
def test_auto_solve_stays_within_newton_run_budget(name):
    # a count of Newton runs stands in for a wall-clock gate: the probe at
    # x = 1, 8 coarse bisection probes, two confirming runs and the final
    # evaluation, where bisection to 1e-8 alone took 27 probes
    oracle = solve(generated_system(name), "auto")
    assert oracle.method == "augmented"
    assert oracle.newton_runs <= 12


@pytest.mark.parametrize("name", ["ternary", "binary"])
def test_auto_oracle_carries_solver_trace(oracles, name):
    assert oracles[name].method == "augmented"
    assert oracles[name].newton_runs <= 12


def test_augmented_jacobian_matches_finite_differences(systems):
    rng = random.Random(3)
    schema = compile_grammar(parse_grammar_file(SCHEMA))
    for name, system in {**systems, "schema": schema}.items():
        num = _NumSystem(system)
        n = 2 * num.m + 1
        for _ in range(5):
            z = np.array([rng.uniform(0.1, 2.0) for _ in range(n - 1)]
                         + [rng.uniform(0.1, 0.6)])
            _, A = num.augmented(z[-1], z[:num.m], z[num.m:-1])
            for k in range(n):
                h = 1e-6 * max(1.0, abs(z[k]))
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                Fp = num.augmented(zp[-1], zp[:num.m], zp[num.m:-1])[0]
                Fm = num.augmented(zm[-1], zm[:num.m], zm[num.m:-1])[0]
                fd = (Fp - Fm) / (2.0 * h)
                assert np.allclose(A[:, k], fd, rtol=1e-6, atol=1e-6), (name, k)


def test_no_finite_singularity():
    grammar = parse_grammar(
        '<element name="a" %s><empty/></element>' % RNG
    )
    system = compile_grammar(grammar)
    with pytest.raises(NoFiniteSingularityError):
        estimate_singularity(system)
    with pytest.raises(NoFiniteSingularityError):
        solve(system, "auto")


# ---------------------------------------------------------------------------
# solve


def test_auto_point_sits_just_below_bracket(oracles):
    oracle = oracles["ternary"]
    assert oracle.x == oracle.rho_lower * (1.0 - AUTO_BACKOFF)
    assert oracle.rho_lower < TERNARY_RHO < oracle.rho_upper


def test_explicit_solve_records_no_bracket(systems):
    oracle = solve(systems["ternary"], 0.4)
    assert oracle.rho_lower is None and oracle.rho_upper is None
    assert oracle.x == 0.4


def test_explicit_divergence_reports_bracket(systems):
    with pytest.raises(DivergedError) as info:
        solve(systems["ternary"], 0.6)
    bracket = info.value.bracket
    assert bracket is not None
    assert bracket[0] <= TERNARY_RHO <= bracket[1]


@pytest.mark.parametrize(
    "x", [math.nan, math.inf, -0.1, "nan"], ids=["nan", "inf", "negative", "text"]
)
def test_explicit_x_outside_zero_to_infinity_runs_no_newton(systems, monkeypatch, x):
    def newton_evaluate(num, x):
        raise AssertionError("Newton ran at x=%r" % x)

    monkeypatch.setattr(newton, "newton_evaluate", newton_evaluate)
    with pytest.raises(ValueError, match="x must be a finite number at least 0"):
        solve(systems["ternary"], x)


def test_feed_divergence_reports_golden_bracket(systems):
    with pytest.raises(DivergedError) as info:
        solve(systems["feed"], 0.9)
    lo, hi = info.value.bracket
    assert lo <= FEED_RHO <= hi


def test_solve_carries_system_digest(systems, oracles):
    assert oracles["binary"].system_digest == systems["binary"].digest()


def test_solve_then_sampler_serializes_the_system_once(grammars, monkeypatch):
    system = compile_grammar(grammars["binary"])
    calls = []
    to_text = GfSystem.to_text
    monkeypatch.setattr(
        GfSystem, "to_text", lambda self: calls.append(self) or to_text(self)
    )
    oracle = solve(system, 0.4)
    Sampler(grammars["binary"], oracle, system=system)
    assert calls == [system]


# ---------------------------------------------------------------------------
# oracle file


def test_oracle_round_trip(oracles, tmp_path):
    for name, oracle in oracles.items():
        path = tmp_path / (name + ".oracle")
        save_oracle(oracle, path)
        back = load_oracle(path)
        assert back == oracle, name  # 17 digits round-trip doubles exactly


def test_load_oracle_verifies_against_system(systems, oracles, tmp_path):
    path = tmp_path / "t.oracle"
    save_oracle(oracles["ternary"], path)
    load_oracle(path, system=systems["ternary"])
    with pytest.raises(OracleMismatchError, match="re-run solve"):
        load_oracle(path, system=systems["binary"])


def test_oracle_fits_only_the_system_it_was_solved_for(grammars, tmp_path):
    # `boltzxml compile` records the grammar file's sha256 in the .gfs, so a
    # fresh compile_grammar of the same grammar has another digest
    grammar = grammars["ternary"]
    path = tmp_path / "ternary.gfs"
    save_system(compile_grammar(grammar, grammar_digest="ab" * 32), path)
    oracle = solve(load_system(path), 0.5)
    with pytest.raises(OracleMismatchError, match="pass the system it was solved"):
        Sampler(grammar, oracle)
    Sampler(grammar, oracle, system=load_system(path))


def test_verify_rejects_missing_class(systems, oracles):
    import dataclasses

    oracle = oracles["feed"]
    clipped = dataclasses.replace(
        oracle,
        values={k: v for k, v in oracle.values.items() if k != "item"},
    )
    with pytest.raises(OracleMismatchError, match="item"):
        verify_oracle(clipped, systems["feed"])


def test_load_oracle_rejects_wrong_header(tmp_path, systems):
    path = tmp_path / "x.gfs"
    systems["ternary"].save(path)
    with pytest.raises(SystemFormatError, match="oracle"):
        load_oracle(path)


@pytest.mark.parametrize(
    "text,match",
    [
        ("boltzxml-oracle 1\nx 0.4\niterations 3\nresidual 0\n", "system"),
        (
            "boltzxml-oracle 1\nsystem ab\nx 0.4\niterations 3\nresidual 0\n"
            "class t 0.5\nclass t 0.5\n",
            "duplicate",
        ),
        (
            "boltzxml-oracle 1\nsystem ab\nx 0.4\niterations 3\nresidual 0\n"
            "class t nope\n",
            "bad value",
        ),
        (
            "boltzxml-oracle 1\nsystem ab\nx 0.4\niterations 3\nresidual 0\n"
            "wat 1\n",
            "unrecognized",
        ),
    ],
)
def test_load_oracle_rejects_malformed(tmp_path, text, match):
    path = tmp_path / "bad.oracle"
    path.write_text(text)
    with pytest.raises(SystemFormatError, match=match):
        load_oracle(path)


def test_written_precision_is_17_significant_digits(oracles, tmp_path):
    path = tmp_path / "p.oracle"
    save_oracle(oracles["ternary"], path)
    for line in path.read_text().splitlines():
        if line.startswith("class t "):
            digits = line.split()[-1].replace(".", "").replace("-", "").lstrip("0")
            assert len(digits) >= 16
