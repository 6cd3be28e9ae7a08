"""The three benchmark workloads: inputs from a seed, one timed op, its checks.

Every op looks its library entry point up on the module at call time, so
the traced run's wrappers see the call. Inputs are made before the op is
timed and checks run after it, both outside the timed region.
"""
from __future__ import annotations

import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

import checks
import gramquad.cli
import gramquad.weights


def _coefficients(rng, p_points):
    return [float(c) for c in rng.uniform(-1.0, 1.0, min(checks.degree_cap(p_points), 4) + 1)]


class RuleWorkload:
    """Each op is ``compute_rule(P)`` plus ``integrate_on_interval`` of one sample vector."""

    def __init__(self, name, why, draw_points):
        self.name = name
        self.why = why
        self.draw_points = draw_points

    def prepare(self, p_points, rng, workdir):
        coefficients = _coefficients(rng, p_points)
        samples, exact = checks.polynomial_samples(p_points, coefficients)
        return {"p": p_points, "coefficients": coefficients, "samples": samples, "exact": exact}

    def run(self, case, tracer):
        rule = gramquad.weights.compute_rule(case["p"])
        value = gramquad.weights.integrate_on_interval(rule, -1.0, 1.0, case["samples"])
        return {"rule": rule, "value": value}, {}

    def check(self, case, result):
        rule = result["rule"]
        return checks.rule_errors(
            case["p"], rule.degree, rule.nodes, rule.weights
        ) + checks.integral_errors(case["p"], result["value"], case["exact"], case["coefficients"])

    def io_bytes(self, case):
        return 0, 0


class CliWorkload(RuleWorkload):
    """Each op is four in-process ``gramquad.cli.main`` calls at one P."""

    def prepare(self, p_points, rng, workdir):
        case = super().prepare(p_points, rng, workdir)
        case["paths"] = paths = {
            key: os.path.join(workdir, name)
            for key, name in (("csv", "table.csv"), ("json", "table.json"), ("samples", "samples.txt"))
        }
        for stale in (paths["csv"], paths["json"]):
            if os.path.exists(stale):
                os.remove(stale)
        with open(paths["samples"], "w", encoding="utf-8") as handle:
            handle.write("".join(f"{value!r}\n" for value in case["samples"].tolist()))
        return case

    def _argvs(self, case):
        p = str(case["p"])
        paths = case["paths"]
        return {
            "weights_csv": ["weights", "--points", p, "--format", "csv", "--output", paths["csv"]],
            "weights_json": ["weights", "--points", p, "--format", "json", "--output", paths["json"]],
            "integrate_samples": ["integrate", "--points", p, "--samples", paths["samples"]],
            "check": ["check", "--points", p],
        }

    def run(self, case, tracer):
        outputs, seconds = {}, {}
        for stage, argv in self._argvs(case).items():
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            with tracer.region(f"cli.{stage}"), redirect_stdout(out), redirect_stderr(err):
                try:
                    code = gramquad.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            seconds[stage] = perf_counter() - start
            outputs[stage] = (code, out.getvalue(), err.getvalue())
        return outputs, seconds

    def check(self, case, outputs):
        p = case["p"]
        paths = case["paths"]
        errors = [
            f"P={p}: {stage} exited {code}: {err.strip()}"
            for stage, (code, _, err) in outputs.items()
            if code != 0
        ]
        if errors:
            return errors
        rule = gramquad.weights.compute_rule(p)
        errors += checks.rule_errors(p, rule.degree, rule.nodes, rule.weights)
        with open(paths["csv"], encoding="utf-8") as handle:
            nodes, weights = checks.parse_csv_table(handle.read())
        if not (checks.same_bits(nodes, rule.nodes) and checks.same_bits(weights, rule.weights)):
            errors.append(f"P={p}: CSV table does not round-trip to compute_rule")
        with open(paths["json"], encoding="utf-8") as handle:
            points, degree, nodes, weights = checks.parse_json_table(handle.read())
        if not (points == p and degree == rule.degree
                and checks.same_bits(nodes, rule.nodes) and checks.same_bits(weights, rule.weights)):
            errors.append(f"P={p}: JSON table does not round-trip to compute_rule")
        expected = gramquad.weights.integrate_on_interval(rule, -1.0, 1.0, case["samples"])
        printed = outputs["integrate_samples"][1]
        if printed != f"{expected!r}\n":
            errors.append(f"P={p}: integrate printed {printed!r}, expected {expected!r}")
        else:
            errors += checks.integral_errors(p, expected, case["exact"], case["coefficients"])
        if "status: ok" not in outputs["check"][1].splitlines():
            errors.append(f"P={p}: check did not print 'status: ok'")
        return errors

    def io_bytes(self, case):
        paths = case["paths"]
        written = sum(os.path.getsize(paths[key]) for key in ("csv", "json")
                      if os.path.exists(paths[key]))
        return written, os.path.getsize(paths["samples"])


def _distinct(low, high):
    """Every P in [low, high] once, in seeded order: no P repeats."""
    return lambda rng: rng.permutation(np.arange(low, high + 1)).tolist()


def _log_uniform(low, high, count):
    def draw(rng):
        values = np.exp(rng.uniform(math.log(low), math.log(high + 1), count))
        return np.clip(np.floor(values), low, high).astype(int).tolist()

    return draw


WORKLOADS = {
    w.name: w
    for w in (
        RuleWorkload(
            "rule-1m",
            "million-point rules, distinct P: the weight-assembly loop is 99.6% of the op "
            "and its 8 MB vectors exceed L2",
            _distinct(998_002, 1_000_001),
        ),
        RuleWorkload(
            "small-rules",
            "log-uniform P in [2, 1025]: fixed per-call cost dominates, and P repeats",
            _log_uniform(2, 1025, 1 << 18),
        ),
        CliWorkload(
            "cli-100k",
            "CLI weights csv/json, integrate --samples and check at distinct P near 100001: "
            "table I/O both ways and the dense check matrix",
            _distinct(99_857, 100_489),
        ),
    )
}
