import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import lcdunkl
from lcdunkl import cli, transform
from lcdunkl.cli import main
from lcdunkl.corpus import bump_profile, realize_bump
from lcdunkl.errors import AccuracyWarning
from lcdunkl.transform import lcdt_forward


def write_cfg(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


GAUSSIAN_EXPR = {
    "type": "sum_of_terms",
    "terms": [{"coeff": [1.0, 0.0], "m": 0, "alpha": [-0.5, 0.0], "beta": [0.0, 0.0]}],
}


def test_transform_gaussian_symmetric_csv(tmp_path):
    cfg = write_cfg(tmp_path, {"k": 0.0, "function": {"type": "symexpr", "expr": GAUSSIAN_EXPR}})
    out = tmp_path / "run"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    mags = np.hypot(data[:, 1], data[:, 2])
    assert np.allclose(mags, mags[::-1], atol=1e-12)
    meta = json.loads((out / "spectrum.json").read_text())
    assert meta["config"]["k"] == 0.0
    assert meta["matrix"]["b"] == 1.0


def test_transform_reads_a_product_node(tmp_path):
    # e^(-x^2/4) e^(-x^2/4) merges into the one-term Gaussian: the same spectrum, byte for byte
    half = {"type": "sum_of_terms", "terms": [{"coeff": [1.0, 0.0], "m": 0, "alpha": [-0.25, 0.0]}]}
    spectra = []
    for expr in ({"type": "product", "children": [half, half]}, GAUSSIAN_EXPR):
        out = tmp_path / str(len(spectra))
        cfg = write_cfg(tmp_path, {"function": {"type": "symexpr", "expr": expr}})
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
        spectra.append((out / "spectrum.csv").read_bytes())
    assert spectra[0] == spectra[1]


def test_transform_reports_a_tail_bound_beyond_gamma_range(tmp_path):
    # Gamma(s) of the tail bound leaves double range at s = 181 (k = 150, x^60)
    expr = {"type": "sum_of_terms", "terms": [{"coeff": [1.0, 0.0], "m": 60, "alpha": [-0.5, 0.0]}]}
    cfg = write_cfg(tmp_path, {"k": 150, "function": {"type": "symexpr", "expr": expr},
                               "grid": {"x_radius": 8.0, "lambda_radius": 8.0}})
    out = tmp_path / "run"
    with pytest.warns(AccuracyWarning, match="estimated tail mass"):
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
    warns = json.loads((out / "spectrum.json").read_text())["warnings"]
    assert len(warns) == 1 and warns[0].startswith("estimated tail mass")


def test_transform_records_a_missed_round_trip(tmp_path, capsys):
    # at k = 10 the default bump's transform misses its constructed spectrum by 3.4 of its peak:
    # spectrum.json says so, and nothing reaches stderr
    out = tmp_path / "run"
    assert main(["transform", "--config", write_cfg(tmp_path, {"k": 10}), "--out", str(out)]) == 0
    warns = json.loads((out / "spectrum.json").read_text())["warnings"]
    assert len(warns) == 1 and warns[0].startswith("round trip") and f"beyond {cli.ROUND_TRIP_TOL:g}" in warns[0]
    assert capsys.readouterr().err == ""


def test_default_transform_files_are_the_forward_payload(tmp_path):
    # below ROUND_TRIP_TOL nothing is added: the files are lcdt_forward's, byte for byte
    out = tmp_path / "run"
    assert main(["transform", "--out", str(out)]) == 0
    given, cfg = cli._load_config(None)
    k, M, _, prof, (_, intervals) = cli._build_context(cfg)
    g = lcdt_forward(realize_bump(k, M, intervals, prof)[0], k, M, prof.lam_rule)
    assert not g.warnings
    assert (out / "spectrum.json").read_text() == cli._json_text({**g.payload(), "config": given})
    assert (out / "spectrum.csv").read_text() == g.to_csv_text()


def test_transform_zero_function(tmp_path):
    zero_expr = {
        "type": "sum_of_terms",
        "terms": [{"coeff": [0.0, 0.0], "m": 0, "alpha": [-0.5, 0.0], "beta": [0.0, 0.0]}],
    }
    cfg = write_cfg(tmp_path, {"function": {"type": "symexpr", "expr": zero_expr}})
    out = tmp_path / "run"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert np.all(data[:, 1:] == 0.0)


def test_invalid_matrix_b_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"matrix": {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0}})
    code = main(["transform", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert "matrix.b" in err["error"]["field"]


def test_corrupted_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code = main(["transform", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["field"] == "config"


@pytest.mark.parametrize(
    "command,cfg,field",
    [
        ("transform", {"k": -1}, "k"),
        ("transform", {"k": 1e308}, "k"),
        ("estimate", {"estimator": {"n_max": "x"}}, "estimator.n_max"),
        ("estimate", {"estimator": {"p": "x"}}, "estimator.p"),
        ("estimate", {"estimator": {"n_max": 0}}, "estimator.n_max"),
        ("estimate", {"estimator": {"n_max": -1}}, "estimator.n_max"),
        ("estimate", {"estimator": {"n_max": 61}}, "estimator.n_max"),
        ("transform", {"function": {"type": "symexpr", "expr": GAUSSIAN_EXPR}, "grid": {"x_panels": "abc"}}, "grid.x_panels"),
        ("transform", {"matrix": {"d": "x"}}, "matrix.d"),
        ("transform", {"function": {"type": "bump", "intervals": [[1, "a"]]}}, "function.intervals"),
        ("estimate", {"estimator": {"p": "nan"}}, "estimator.p"),
        ("estimate", {"estimator": {"p": 0.5}}, "estimator.p"),
        ("transform", {"function": 5}, "function"),
        ("estimate", {"estimator": 5}, "estimator"),
        ("transform", {"function": {"type": "symexpr", "expr": 5}}, "function.expr"),
        ("estimate", {"estimator": {"poly": ["a"]}}, "estimator.poly"),
        ("estimate", {"estimator": {"poly": 5}}, "estimator.poly"),
        ("estimate", {"estimator": {"poly": [0.5]}}, "estimator.poly"),
        ("estimate", {"estimator": {"method": "foo"}}, "estimator.method"),
        ("transform", {"function": {"symmetrize": "false"}}, "function.symmetrize"),
        ("transform", {"kk": 0.5}, "kk"),
        ("estimate", {"estimator": {"nmax": 30}}, "estimator.nmax"),
        ("estimate", {"estimator": {"n_max": 30.7}}, "estimator.n_max"),
        ("estimate", {"estimator": {"n_max": True}}, "estimator.n_max"),
        ("transform", {"matrix": {"a": True}}, "matrix.a"),
        ("transform", {"function": {"type": "bump", "intervals": [[1, 1e400]]}}, "function.intervals"),
        ("transform", {"function": {"type": "symexpr", "expr": GAUSSIAN_EXPR}, "grid": {"x_panels": 40.9}},
         "grid.x_panels"),
        ("transform", {"grid": {"x_nodes": 100000}}, "grid.x_nodes"),
        ("transform", {"matrix": {"a": 1.0, "b": 0.5, "c": 0.0, "d": 1.0},
                       "function": {"type": "bump", "intervals": [[2, 3]]}}, "function.intervals"),
        # folded tables of 2^17 x 2^17 nodes: refused before any Bessel table is built
        ("transform", {"function": {"type": "symexpr", "expr": GAUSSIAN_EXPR},
                       "grid": {"x_panels": 4096, "x_nodes": 64, "lambda_panels": 4096, "lambda_nodes": 64}},
         "grid"),
        # |x|^(2k+1) overflows on the x rule: refused while the rule is built, not after a transform
        ("transform", {"k": 80, "function": {"type": "symexpr", "expr": GAUSSIAN_EXPR},
                       "grid": {"x_radius": 320, "x_panels": 64, "x_nodes": 12, "lambda_radius": 6.0}}, "grid"),
        # a quotpow child that does not vanish to order j at 0 (here exp(-x^2/2) / x)
        ("transform", {"function": {"type": "symexpr", "expr": {"type": "quotpow", "j": 1, "child": GAUSSIAN_EXPR}}},
         "function.expr"),
        # a term's degree must be an integer (not 1.5, not a bool), and its Bessel factor finite
        ("transform", {"function": {"type": "symexpr", "expr": {
            "type": "sum_of_terms", "terms": [{"coeff": [1.0, 0.0], "m": 1.5, "alpha": [-0.5, 0.0]}]}}},
         "function.expr"),
        ("transform", {"function": {"type": "symexpr", "expr": {
            "type": "sum_of_terms", "terms": [{"coeff": [1.0, 0.0], "m": True, "alpha": [-0.5, 0.0]}]}}},
         "function.expr"),
        ("transform", {"function": {"type": "symexpr", "expr": {"type": "sum_of_terms", "terms": [
            {"coeff": [1.0, 0.0], "alpha": [-0.5, 0.0], "bessel": {"kappa": 0.5, "c": 1e400}}]}}},
         "function.expr"),
    ],
)
def test_bad_field_exit_code(tmp_path, capsys, command, cfg, field):
    code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["field"] == field


def test_transform_refuses_an_oversized_product_before_forming_it(tmp_path, capsys):
    # six ten-term sums whose products never merge would reach 10^6 terms;
    # the sixth factor is refused under TERM_BUDGET before its product exists
    factors = [{"type": "sum_of_terms", "terms": [
        {"coeff": [1.0, 0.0], "m": 0, "alpha": [-0.5, 0.0], "beta": [i * 10.0 ** (f - 6), 0.0]} for i in range(10)]}
        for f in range(6)]
    cfg = write_cfg(tmp_path, {"function": {"type": "symexpr", "expr": {"type": "product", "children": factors}}})
    t0 = time.perf_counter()
    code = main(["transform", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2 and time.perf_counter() - t0 < 10.0
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert err["field"] == "function.expr" and "ResourceBudgetError" in err["message"]
    assert captured.err == ""


def test_transform_refuses_an_expression_past_the_evaluation_budget(tmp_path, capsys):
    # 6 * 10^4 distinct terms on the default 640-node x rule pass EVAL_BUDGET: refused before any value
    factors = [{"type": "sum_of_terms", "terms": [
        {"coeff": [1.0, 0.0], "m": 0, "alpha": [-0.5, 0.0], "beta": [i * 10.0 ** (f - 6), 0.0]}
        for i in range(6 if f == 4 else 10)]} for f in range(5)]
    cfg = write_cfg(tmp_path, {"function": {"type": "symexpr", "expr": {"type": "product", "children": factors}}})
    code = main(["transform", "--config", cfg, "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert code == 2 and err["field"] == "function.expr" and "term-points" in err["message"]
    assert captured.err == ""


OVERFLOWING_TERMS = {
    "x^400": [{"coeff": [1.0, 0.0], "m": 400, "alpha": [-0.5, 0.0]}],
    "beta 300": [{"coeff": [1.0, 0.0], "alpha": [-0.5, 0.0], "beta": [300.0, 0.0]}],
    "two 1e308": [{"coeff": [1e308, 0.0], "alpha": [-0.5, 0.0]}, {"coeff": [1e308, 0.0], "m": 2, "alpha": [-0.5, 0.0]}],
}


@pytest.mark.parametrize("terms", OVERFLOWING_TERMS.values(), ids=OVERFLOWING_TERMS.keys())
@pytest.mark.parametrize("command", ["transform", "estimate"])
def test_expression_with_overflowing_samples_names_its_field(tmp_path, capsys, command, terms):
    # every term is finite, its samples on the x rule are not: refused under
    # function.expr, with no floating-point warning on the way
    cfg = write_cfg(tmp_path, {"function": {"type": "symexpr", "expr": {"type": "sum_of_terms", "terms": terms}}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", cfg, "--out", str(tmp_path / "x")])
    out, err = capsys.readouterr()
    assert code == 2 and json.loads(out)["error"]["field"] == "function.expr" and err == ""


LEAVES = ["k", "matrix.a", "matrix.b", "matrix.c", "matrix.d", "grid.x_radius", "grid.x_panels",
          "grid.x_nodes", "grid.lambda_radius", "grid.lambda_panels", "grid.lambda_nodes", "function.type",
          "function.intervals", "function.symmetrize", "function.expr", "estimator.p", "estimator.n_max",
          "estimator.method", "estimator.poly"]
BAD_VALUES = [None, "x", True, [], {}, float("inf"), -1e9]
VALID = [("matrix.b", -1e9), ("function.symmetrize", True)]


@pytest.mark.parametrize("leaf", LEAVES)
def test_bad_value_sweep_names_the_leaf(tmp_path, capsys, leaf):
    allowed = {leaf, "matrix.det", "matrix.b"} if leaf.startswith("matrix.") else {leaf}
    for value in BAD_VALUES:
        if (leaf, value) in VALID:
            continue
        symexpr = leaf.startswith("grid.") or leaf == "function.expr"
        cfg = {"function": {"type": "symexpr", "expr": GAUSSIAN_EXPR}} if symexpr else {}
        section, _, name = leaf.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[name] = value
        code = main(["transform", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x")])
        out = capsys.readouterr().out
        assert code == 2, (leaf, value, out)
        assert json.loads(out)["error"]["field"] in allowed, (leaf, value, out)


@pytest.mark.parametrize("k", [0.3, 0.4, 0.6, 0.8, 1.1])
def test_default_transform_across_k(tmp_path, k):
    # Gauss-Jacobi origin panels: the default bump rules calibrate at any k
    cfg = write_cfg(tmp_path, {"k": k})
    assert main(["transform", "--config", cfg, "--out", str(tmp_path / "run")]) == 0


def test_infinite_p_report_is_strict_json(tmp_path):
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, {"estimator": {"p": "inf"}})
    assert main(["estimate", "--which", "sigma", "--config", cfg, "--out", str(out)]) == 0

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert report["p"] == "inf"
    assert report["config"]["estimator"]["p"] == "inf"


def test_report_writes_nonfinite_values_as_strings(tmp_path):
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    payload = {"a": math.nan, "b": [1.5, -math.inf], "c": {"d": math.inf, "e": (math.nan,)}}
    assert json.loads(cli._json_text(payload), parse_constant=refuse) == {
        "a": "nan", "b": [1.5, "-inf"], "c": {"d": "inf", "e": ["nan"]}}
    # at p = 1000 the compact report held NaN values while its L^p sums underflowed
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, {"estimator": {"p": 1000.0}})
    assert main(["estimate", "--which", "compact", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert report["compact"] and report["sigma2_hat"] == pytest.approx(4.0, rel=0.02)


def test_estimate_sigma_at_p_1000(tmp_path, monkeypatch):
    # the p != 2 fold runs by row blocks with a running per-column scale; the
    # default config's sigma at p = 1000 reads as the whole-column scaling
    # does, with every output class in one block
    assert bump_profile(0.5, ((1.0, 2.0),)).x_rule.fold[0].size > transform._FOLD_ROWS
    cfg = write_cfg(tmp_path, {"estimator": {"p": 1000.0}})
    reports = []
    for rows in (transform._FOLD_ROWS, 1 << 30):
        monkeypatch.setattr(transform, "_FOLD_ROWS", rows)
        out = tmp_path / str(rows)
        assert main(["estimate", "--which", "sigma", "--config", cfg, "--out", str(out)]) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    blocked, whole = reports
    assert blocked["converged"] and whole["converged"]
    assert blocked["sigma_hat"] == pytest.approx(whole["sigma_hat"], rel=1e-12)


def test_estimate_sigma_bump(tmp_path):
    out = tmp_path / "run"
    assert main(["estimate", "--which", "sigma", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    # the default bump [1, 2] at b = 1: the exact support radius is 2
    assert report["support_radius"] == 2.0
    assert abs(report["sigma_hat"] - report["support_radius"]) <= 0.02 * report["support_radius"]
    seq = (out / "sequence.csv").read_text().splitlines()
    assert seq[0] == "n,lognorm,root,ratio"


def test_estimate_reports_the_exact_support_radius(tmp_path):
    # max|edge| / |b| over every interval, a negative one included
    cfg = write_cfg(tmp_path, {"matrix": {"a": 1.0, "b": 2.0, "c": 0.0, "d": 1.0},
                               "function": {"type": "bump", "intervals": [[-3.0, -1.0], [1.0, 2.0]]}})
    out = tmp_path / "run"
    assert main(["estimate", "--which", "delta", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["support_radius"] == 1.5


def test_estimate_delta_bump(tmp_path):
    out = tmp_path / "run"
    assert main(["estimate", "--which", "delta", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["delta_hat"] == pytest.approx(1.0, rel=0.02)


def test_estimate_poly_verdict(tmp_path):
    out = tmp_path / "run"
    assert main(["estimate", "--which", "poly", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["inside"] is True
    assert report["score"] == pytest.approx(1.0, abs=0.05)


def test_estimate_compact_bump(tmp_path):
    out = tmp_path / "run"
    assert main(["estimate", "--which", "compact", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["compact"] is True
    assert report["sigma2_hat"] == pytest.approx(report["support_radius"] ** 2, rel=0.05)


def test_estimate_vanishing_bump(tmp_path):
    out = tmp_path / "run"
    assert main(["estimate", "--which", "vanishing", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    # the default bump's spectrum avoids (-1, 1)
    assert report["r_hat"] == pytest.approx(1.0, rel=0.02)


@pytest.mark.parametrize(
    "which,headline",
    [
        ("sigma", {"sigma_hat", "method", "p"}),
        ("delta", {"delta_hat"}),
        ("poly", {"inside", "score"}),
        ("compact", {"compact", "sigma2_hat"}),
        ("vanishing", {"r_hat"}),
    ],
)
def test_estimate_report_keys(tmp_path, which, headline):
    out = tmp_path / "run"
    assert main(["estimate", "--which", which, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    common = {"n_used", "converged", "diagnostics", "which", "support_radius", "sequence_csv", "config"}
    assert set(report) == headline | common


@pytest.mark.filterwarnings("ignore::lcdunkl.errors.AccuracyWarning")
def test_verify_subset_report(tmp_path):
    out = tmp_path / "run"
    code = main(["verify", "--suite", "operators", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is True
    assert all(c["suite"] == "operators" for c in report["checks"])


@pytest.mark.filterwarnings("ignore::lcdunkl.errors.AccuracyWarning")
def test_verify_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--suite", "operators", "--out", str(out1)]) == 0
    assert main(["verify", "--suite", "operators", "--out", str(out2)]) == 0
    r1 = (out1 / "verify_report.json").read_bytes()
    r2 = (out2 / "verify_report.json").read_bytes()
    assert r1 == r2


SPECTRAL_WHICH = ("delta", "poly", "compact", "vanishing")


def _run_child(code, *args, env=()):
    src = os.path.dirname(os.path.dirname(lcdunkl.__file__))
    env = {**os.environ, **dict(env), "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300)


def test_cli_files_byte_identical_across_hash_seeds(tmp_path):
    # transform and every estimate, each in a process with its own string hashing
    code = ("import sys\n"
            "from lcdunkl.cli import ESTIMATORS, main\n"
            "runs = [['transform']] + [['estimate', '--which', w] for w in ESTIMATORS]\n"
            "sys.exit(max(main([*run, '--out', sys.argv[1] + '/' + run[-1]]) for run in runs))")
    for seed in ("1", "2"):
        res = _run_child(code, str(tmp_path / seed), env={"PYTHONHASHSEED": seed})
        assert res.returncode == 0, res.stdout + res.stderr
    names = sorted(path.relative_to(tmp_path / "1") for path in (tmp_path / "1").rglob("*") if path.is_file())
    assert len(names) == 2 * (1 + len(cli.ESTIMATORS))
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_cli_import_leaves_scipy_unloaded():
    res = _run_child("import sys, lcdunkl.cli; print('scipy.special' in sys.modules)")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_spectral_estimates_run_without_scipy(tmp_path):
    # the p = 2 estimators on a bump read its closed-form spectrum, with no
    # kernel table; transform, sigma and p != 2 build one, and its panel fits
    # run on numpy alone: none of them imports scipy
    bump = {"k": 2.02, "matrix": {"a": 1.0, "b": 0.936, "c": 0.0, "d": 1.0},
            "function": {"type": "bump", "intervals": [[0.95, 1.87]]}}
    cfgs = {}
    for name, extra in (("p2", {}), ("pinf", {"estimator": {"p": "inf"}})):
        cfgs[name] = tmp_path / f"{name}.json"
        cfgs[name].write_text(json.dumps({**bump, **extra}))
    runs = [["transform", "--config", str(cfgs["p2"])], ["estimate", "--which", "sigma", "--config", str(cfgs["p2"])],
            ["estimate", "--which", "compact", "--config", str(cfgs["pinf"])]]
    runs += [["estimate", "--which", w, "--config", str(cfgs["p2"])] for w in SPECTRAL_WHICH]
    code = ("import json, sys; sys.modules['scipy'] = None\n"
            "from lcdunkl.cli import main\n"
            "runs, out = json.loads(sys.argv[1]), sys.argv[2]\n"
            "sys.exit(max(main([*run, '--out', f'{out}/{i}']) for i, run in enumerate(runs)))")
    res = _run_child(code, json.dumps(runs), str(tmp_path / "blocked"))
    assert res.returncode == 0, res.stdout + res.stderr
    for i, run in enumerate(runs):
        blocked, free = tmp_path / "blocked" / str(i), tmp_path / "free" / str(i)
        assert main([*run, "--out", str(free)]) == 0
        names = sorted(path.name for path in free.iterdir())
        assert names == sorted(path.name for path in blocked.iterdir()) and len(names) == 2
        for name in names:
            assert (blocked / name).read_bytes() == (free / name).read_bytes(), (run, name)


class TableBuilt(Exception):
    pass


def test_only_sigma_builds_a_kernel_table(tmp_path, monkeypatch):
    def refuse(*args):
        raise TableBuilt

    monkeypatch.setattr(transform, "_bessel_tables", refuse)
    for which in SPECTRAL_WHICH:
        assert main(["estimate", "--which", which, "--out", str(tmp_path / which)]) == 0
    with pytest.raises(TableBuilt):
        main(["estimate", "--which", "sigma", "--out", str(tmp_path / "sigma")])
