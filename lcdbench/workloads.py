"""The three workloads: inputs drawn from the seed, operations, and checks.

Every workload is a closed loop with one client: an operation starts
when the one before it has returned. Operations come in rounds whose
make-up (operation kinds, grid sizes, Bessel cost class) is fixed; the
seed only moves parameters inside that make-up, so any two seeds do the
same amount of work of the same kinds.

* cli_cold: each operation is a fresh `lcdunkl transform` or
  `lcdunkl estimate` process at p=2 on a seeded bump config. It pays
  interpreter start, import, rule building and one cold Bessel table
  build, which is what a CLI user pays for one answer.
* estimate_warm: one process whose bump contexts (and so their kernel
  tables) are realized in set-up; the timed phase is estimator calls at
  p in {1, inf}, each n_max+1 inverse transforms against cached tables.
  Each round also holds one call that fails today (see KNOWN_FAULT).
* calculus_gauss: one process on Gaussian-profile grids with the
  Schwartz-class members x^m exp(alpha x^2); each operation is one bundle
  of symbolic transform, chirp cross-check, operator iterates, dual-path
  norms, spectral derivatives and Sobolev norms for one (k, M, member).
"""

import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))

# Bump contexts share one make-up: the support shape below keeps the bump
# grids at exactly BUMP_SIZES nodes. cli_cold draws k from CLI_K, where both
# Bessel table orders run on the same evaluator tiers (k + 1 stays below the
# large-argument cut-off 3.2, k = 1.5 hits a much cheaper closed form, and
# k in [0.4, 1.2] fails the frequency rule's calibration). estimate_warm
# times only the contraction, which does not depend on k, so it keeps
# k = 0.5, where the table build in its set-up is cheapest.
CLI_K = (1.6, 2.1)
WARM_K = 0.5
BUMP_ABS_B = (0.8, 1.0)
BUMP_HI_OVER_B = (1.993, 2.009)
BUMP_WIDTH_OVER_B = (0.955, 0.995)
BUMP_SIZES = (3120, 528)
# poly_domain_test targets: sup |P| clearly inside or clearly outside 1
POLY_SUP_INSIDE = (0.5, 0.8)
POLY_SUP_OUTSIDE = (1.25, 1.6)

CLI_KINDS = ("transform", "sigma", "delta", "poly", "compact", "vanishing")
# at n_max = 30 the ratio estimator misfires on some seeds (see KNOWN_FAULT)
CLI_N_MAX = 40
WARM_N_MAX = 40

# estimate_sigma(method="ratio", p=2, n_max=30) on this context returns
# sigma_hat = inf: the terminal-slope divergence test misfires on a
# compactly supported spectrum. Its inputs do not depend on the seed.
KNOWN_FAULT = {"k": 0.5, "matrix": (1.0, 1.0, 0.0, 1.0), "intervals": ((0.5, 1.5),)}

# calculus_gauss make-up: two k slots and three b slots, four members.
# k = 0.5 and k = 1.0 make |x|^(2k+1) a polynomial, so the Gaussian-profile
# rules are exact where the checks need 1e-7. The signs of b are fixed too:
# at b = 1 the chirp route shares the forward route's kernel table, at
# b = -1 it would build one more.
CALC_K = (0.5, 1.0)
CALC_B = (1.0, -0.8660254037844386, 0.9)
CALC_MEMBERS = (  # (name, m, alpha range real, alpha range imag)
    ("gaussian", 0, (-0.6, -0.4), (0.0, 0.0)),
    ("x_gaussian", 1, (-1.1, -0.9), (0.0, 0.0)),
    ("x2_gaussian", 2, (-1.1, -0.9), (0.0, 0.0)),
    ("chirped_gaussian", 0, (-1.1, -0.9), (0.2, 0.3)),
)
CALC_ITERATES = 6
CALC_NORM_N = 12
CALC_DERIV_X = np.linspace(-4.0, 4.0, 81)
CALC_SOBOLEV_S = (0.0, 1.0, 2.0)


@dataclass
class Op:
    kind: str
    params: dict
    known_fault: bool = False
    round: int = 0


@dataclass
class Record:
    op: Op
    seconds: float
    output: object
    error: str | None = None
    checks: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(c.ok for c in self.checks)


def matrix_with_b(rng, b):
    """A unimodular (a, b; c, d) with the given b and seeded a, d."""
    a = rng.uniform(-1.0, 1.0)
    d = rng.uniform(-1.0, 1.0)
    return a, b, (a * d - 1.0) / b, d


def inverse_reads_view(prof):
    """Whether this grid pair's inverse transforms read a transposed table view.

    The program keeps one kernel table per grid pair, keyed by the raw bytes
    of the two node arrays in sorted order, and serves the other direction
    as a transposed view. Contractions on the view run about 1.5x slower, so
    which direction gets it is part of a workload's make-up.
    """
    return prof.x_rule.nodes.tobytes() > prof.lam_rule.nodes.tobytes()


def draw_bump(rng, bump_profile, ParameterError, k_range, inverse_view):
    """One bump context of the fixed make-up, or raise after many misses."""
    for _ in range(1000):
        k = rng.uniform(*k_range)
        b = rng.choice((-1.0, 1.0)) * rng.uniform(*BUMP_ABS_B)
        hi = abs(b) * rng.uniform(*BUMP_HI_OVER_B)
        lo = hi - abs(b) * rng.uniform(*BUMP_WIDTH_OVER_B)
        intervals = ((lo, hi),)
        try:
            prof = bump_profile(k, intervals, b=b)
        except ParameterError:
            continue
        if (len(prof.x_rule), len(prof.lam_rule)) == BUMP_SIZES and \
                inverse_view in (None, inverse_reads_view(prof)):
            return {"k": k, "matrix": matrix_with_b(rng, b), "intervals": intervals}, prof
    raise RuntimeError("no bump context of the fixed make-up found")


def draw_poly(rng, intervals, b):
    """P(t) = c t^2 whose sup over the support is seeded inside or outside 1."""
    lo, hi = rng.choice((POLY_SUP_INSIDE, POLY_SUP_OUTSIDE))
    r = checks.support_extremes(intervals, b)[1]
    return (0.0, 0.0, rng.uniform(lo, hi) / (r * r))


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


# ---------------------------------------------------------------------------

class CliCold:
    """Fresh `lcdunkl` processes, one per operation."""

    name = "cli_cold"
    in_process = False
    IMPORT_SAMPLES = 5

    def __init__(self, seed, src, raw_dir):
        self.seed = seed
        self.src = src
        self.raw_dir = raw_dir
        self.traced = False
        self._rounds = {}
        from lcdunkl.corpus import bump_profile
        from lcdunkl.errors import ParameterError
        # every config's table is read as the transposed view by its inverse
        # transform, the more common draw (see inverse_reads_view)
        self._draw = lambda rng: draw_bump(rng, bump_profile, ParameterError, CLI_K, inverse_view=True)

    def setup_samples(self):
        """Wall time of `import lcdunkl.cli` in fresh interpreters."""
        code = "import time; t = time.perf_counter(); import lcdunkl.cli; print(time.perf_counter() - t)"
        out = []
        for _ in range(self.IMPORT_SAMPLES):
            res = subprocess.run([sys.executable, "-c", code], env=child_env(self.src),
                                 capture_output=True, text=True, timeout=120, check=True)
            out.append(float(res.stdout.strip().splitlines()[-1]))
        return out

    def setup(self):
        pass

    def round_ops(self, i):
        got = self._rounds.get(i)
        if got is None:
            rng = random.Random(f"cli_cold/{self.seed}/{i}")
            got = []
            for j, kind in enumerate(CLI_KINDS):
                ctx, _ = self._draw(rng)
                cfg = {
                    "k": ctx["k"],
                    "matrix": dict(zip("abcd", ctx["matrix"])),
                    "function": {"type": "bump", "intervals": [list(p) for p in ctx["intervals"]]},
                    "estimator": {"p": 2.0, "n_max": CLI_N_MAX, "method": "ratio",
                                  "poly": list(draw_poly(rng, ctx["intervals"], ctx["matrix"][1]))},
                }
                op_dir = os.path.join(self.raw_dir, f"r{i}_{j}_{kind}")
                os.makedirs(op_dir, exist_ok=True)
                with open(os.path.join(op_dir, "cfg.json"), "w") as fh:
                    json.dump(cfg, fh)
                got.append(Op(kind, {"cfg": cfg, "dir": op_dir}, round=i))
            self._rounds[i] = got
        return got

    def run(self, op):
        d = op.params["dir"]
        out = os.path.join(d, "out")
        shutil.rmtree(out, ignore_errors=True)
        args = ["transform"] if op.kind == "transform" else ["estimate", "--which", op.kind]
        args += ["--config", os.path.join(d, "cfg.json"), "--out", out]
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), os.path.join(d, "spans.json")] + args
        else:
            cmd = [sys.executable, "-c", "import sys; from lcdunkl.cli import main; sys.exit(main())"] + args
        res = subprocess.run(cmd, env=child_env(self.src), capture_output=True, text=True, timeout=170)
        if res.returncode != 0:
            raise RuntimeError(f"exit {res.returncode}: {(res.stdout + res.stderr).strip()[-400:]}")
        return out

    def check(self, rec, same_round):
        cfg = rec.op.params["cfg"]
        k, b, iv = cfg["k"], cfg["matrix"]["b"], [tuple(p) for p in cfg["function"]["intervals"]]
        if rec.op.kind == "transform":
            with open(os.path.join(rec.output, "spectrum.json")) as fh:
                spec = json.load(fh)
            rule = spec["rule"]
            values = np.array(spec["re"]) + 1j * np.array(spec["im"])
            return [checks.check_rule(rule["nodes"], rule["weights"], k, rule["X"]),
                    checks.check_bump_spectrum(rule["nodes"], rule["weights"], values, iv)]
        with open(os.path.join(rec.output, "report.json")) as fh:
            rep = json.load(fh)
        return report_checks(rec.op.kind, rep, iv, b, cfg["estimator"]["poly"])

    def traced_spans(self, records):
        """Spans of all traced children, re-indexed into one list, and their median import time."""
        spans, imports = [], []
        for r in records:
            with open(os.path.join(r.op.params["dir"], "spans.json")) as fh:
                got = json.load(fh)
            base = len(spans)
            spans.extend([s[0], s[1], s[2], s[3], s[4] + base if s[4] >= 0 else -1, s[5]] for s in got["spans"])
            imports.append(got["import_s"])
        return spans, statistics.median(imports)

    def cleanup(self, records):
        for r in records:
            shutil.rmtree(os.path.join(r.op.params["dir"], "out"), ignore_errors=True)


def report_checks(kind, rep, intervals, b, poly=None):
    """Checks of one estimator report (CLI report.json or a result's to_report())."""
    if kind == "sigma":
        return [checks.check_sigma(rep["sigma_hat"], intervals, b)]
    if kind == "root_sigma":
        return [checks.check_root_sigma(rep["sigma_hat"], intervals, b)]
    if kind == "delta":
        return [checks.check_delta(rep["delta_hat"], intervals, b)]
    if kind == "vanishing":
        return [checks.check_vanishing(rep["r_hat"], intervals, b)]
    if kind == "poly":
        return checks.check_poly(rep["score"], rep["inside"], poly, intervals, b)
    if kind == "compact":
        return checks.check_compact(rep["compact"], rep["sigma2_hat"], intervals, b)
    raise ValueError(kind)


# ---------------------------------------------------------------------------

class EstimateWarm:
    """Estimator calls at p in {1, inf} against kernel tables built in set-up."""

    name = "estimate_warm"
    in_process = True
    # table orientation of each context: two on the transposed view (the
    # more common draw) and one not, so the median operation sits inside
    # the larger cost cluster and the throughput sees both
    CONTEXT_VIEWS = (True, True, False)
    # per context: (op kind, check kind, p); sigma at both p for the
    # p-independence check, then one more estimator per context
    SIGMA_KINDS = (("sigma", "root_sigma", 1.0), ("sigma", "root_sigma", math.inf))
    THIRD_KINDS = (("poly", "poly", math.inf), ("compact", "compact", 1.0), ("delta", "delta", math.inf))

    def __init__(self, seed, src, raw_dir):
        self.seed = seed

    def setup(self):
        from lcdunkl.corpus import bump_profile, realize_bump
        from lcdunkl.errors import ParameterError
        from lcdunkl.specfun import CanonicalMatrix

        rng = random.Random(f"estimate_warm/{self.seed}")
        self.contexts = []
        for view in self.CONTEXT_VIEWS:
            ctx, prof = draw_bump(rng, bump_profile, ParameterError, (WARM_K, WARM_K), inverse_view=view)
            ctx["M"] = CanonicalMatrix(*ctx["matrix"])
            ctx["prof"] = prof
            ctx["f"], ctx["spec"] = realize_bump(ctx["k"], ctx["M"], ctx["intervals"], prof)
            ctx["poly"] = draw_poly(rng, ctx["intervals"], ctx["matrix"][1])
            self.contexts.append(ctx)
        fault = dict(KNOWN_FAULT)
        fault["M"] = CanonicalMatrix(*fault["matrix"])
        fault["prof"] = bump_profile(fault["k"], fault["intervals"], b=fault["M"].b)
        fault["f"], fault["spec"] = realize_bump(fault["k"], fault["M"], fault["intervals"], fault["prof"])
        ops = []
        for c, ctx in enumerate(self.contexts):
            for kind, check_kind, p in self.SIGMA_KINDS + (self.THIRD_KINDS[c],):
                ops.append(Op(kind, {"ctx": ctx, "p": p, "check": check_kind, "pair": c}))
        ops.append(Op("sigma", {"ctx": fault, "p": 2.0, "check": "sigma", "method": "ratio", "n_max": 30},
                      known_fault=True))
        self._ops = ops

    def round_ops(self, i):
        return [Op(o.kind, o.params, o.known_fault, i) for o in self._ops]

    def run(self, op):
        from lcdunkl.operators import RealPolynomial
        from lcdunkl.paleywiener import (compact_spectrum_test, estimate_delta, estimate_sigma,
                                         poly_domain_test)

        ctx, p = op.params["ctx"], op.params["p"]
        rules = {"lam_rule": ctx["prof"].lam_rule, "x_rule": ctx["prof"].x_rule}
        k, M = ctx["k"], ctx["M"]
        if op.kind == "sigma":
            res = estimate_sigma(ctx["f"], k, M, p=p, n_max=op.params.get("n_max", WARM_N_MAX),
                                 method=op.params.get("method", "root"), **rules)
        elif op.kind == "poly":
            res = poly_domain_test(ctx["spec"], k, M, RealPolynomial(ctx["poly"]), p=p, n_max=WARM_N_MAX, **rules)
        elif op.kind == "compact":
            res = compact_spectrum_test(ctx["spec"], k, M, p=p, n_max=WARM_N_MAX, **rules)
        else:
            res = estimate_delta(ctx["spec"], k, M, p=p, n_max=WARM_N_MAX, **rules)
        return res.to_report()

    def check(self, rec, same_round):
        ctx = rec.op.params["ctx"]
        out = report_checks(rec.op.params["check"], rec.output, ctx["intervals"], ctx["matrix"][1], ctx.get("poly"))
        if rec.op.kind == "sigma" and rec.op.params["p"] == math.inf:
            partner = [r for r in same_round if r.op.kind == "sigma" and r.op.params.get("pair") == rec.op.params["pair"]
                       and r.op.params["p"] == 1.0 and r.output is not None]
            p1 = partner[0].output["sigma_hat"] if partner else math.nan
            out.append(checks.check_p_independence(p1, rec.output["sigma_hat"]))
        return out


# ---------------------------------------------------------------------------

class CalculusGauss:
    """Symbolic-member bundles on Gaussian-profile grids."""

    name = "calculus_gauss"
    in_process = True

    def __init__(self, seed, src, raw_dir):
        self.seed = seed

    def setup(self):
        from lcdunkl.corpus import gauss_profile
        from lcdunkl.specfun import CanonicalMatrix
        from lcdunkl.symfun import gaussian
        from lcdunkl.transform import chirp_factorized_forward, lcdt_forward

        rng = random.Random(f"calculus_gauss/{self.seed}")
        members = []
        for name, m, are, aim in CALC_MEMBERS:
            alpha = complex(rng.uniform(*are), rng.uniform(*aim) if aim[1] else 0.0)
            members.append({"name": name, "m": m, "alpha": alpha, "expr": gaussian(alpha, m=m)})
        ops = []
        for k in CALC_K:
            prof = gauss_profile(k)
            for b in CALC_B:
                M = CanonicalMatrix(*matrix_with_b(rng, b))
                # build this (k, M)'s kernel tables now so the timed phase only hits them
                lcdt_forward(members[0]["expr"], k, M, prof.lam_rule, x_rule=prof.x_rule)
                chirp_factorized_forward(members[0]["expr"], k, M, prof.lam_rule, prof.x_rule)
                for mem in members:
                    ops.append(Op(mem["name"], {"k": k, "M": M, "prof": prof, "member": mem}))
        self._ops = ops

    def round_ops(self, i):
        return [Op(o.kind, o.params, o.known_fault, i) for o in self._ops]

    def run(self, op):
        from lcdunkl.operators import norm_sequence
        from lcdunkl.sobolev import derivative_via_spectrum, sobolev_norm
        from lcdunkl.symfun import iterate_op
        from lcdunkl.transform import chirp_factorized_forward, lcdt_forward

        k, M, prof, expr = op.params["k"], op.params["M"], op.params["prof"], op.params["member"]["expr"]
        lam, xr = prof.lam_rule, prof.x_rule
        g = lcdt_forward(expr, k, M, lam, x_rule=xr)
        gc = chirp_factorized_forward(expr, k, M, lam, xr)
        minv = M.inverse()
        iterates = [lcdt_forward(iterate_op(k, minv, expr, n), k, M, lam, x_rule=xr).values
                    for n in range(1, CALC_ITERATES + 1)]
        spectral = norm_sequence(expr, k, M, 2.0, CALC_NORM_N, path="spectral", lam_rule=lam, x_rule=xr)
        symbolic = norm_sequence(expr, k, M, 2.0, CALC_NORM_N, path="symbolic", x_rule=xr)
        derivs = [derivative_via_spectrum(expr, k, M, n, CALC_DERIV_X, lam, x_rule=xr) for n in (1, 2)]
        sob = [sobolev_norm(expr, k, M, s, lam_rule=lam, x_rule=xr) for s in CALC_SOBOLEV_S]
        return {"g": g.values, "gc": gc.values, "iterates": iterates, "spectral": spectral.lognorm,
                "symbolic": symbolic.lognorm, "derivs": derivs, "sobolev": sob}

    def check(self, rec, same_round):
        out = rec.output
        k, M, prof, mem = (rec.op.params[key] for key in ("k", "M", "prof", "member"))
        lam = prof.lam_rule
        m, alpha = mem["m"], mem["alpha"]
        res = [
            checks.check_plancherel(lam.weights, out["g"], k, m, alpha),
            checks.check_chirp_route(out["g"], out["gc"]),
            checks.check_intertwining(out["iterates"], out["g"], lam.nodes / M.b),
            checks.check_dual_path(out["spectral"], out["symbolic"]),
            checks.check_nesting(out["sobolev"]),
            checks.Check("w0_vs_l2", checks.rel_dev(out["sobolev"][0], checks.gauss_member_l2(k, m, alpha)),
                         checks.PLANCHEREL_RTOL),
        ]
        for n, d in zip((1, 2), out["derivs"]):
            res.append(checks.check_derivative(d, m, alpha, n, CALC_DERIV_X))
        return res

    def rule_checks(self):
        """The benchmark's own closed-form calibration of every grid in use."""
        seen, out = set(), []
        for op in self._ops:
            prof = op.params["prof"]
            if id(prof) not in seen:
                seen.add(id(prof))
                for rule in (prof.x_rule, prof.lam_rule):
                    out.append(checks.check_rule(rule.nodes, rule.weights, op.params["k"], rule.X))
        return out


WORKLOADS = {w.name: w for w in (CliCold, EstimateWarm, CalculusGauss)}
