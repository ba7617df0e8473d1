import json

import numpy as np
import pytest

from lcdunkl.cli import main


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
    ],
)
def test_bad_field_exit_code(tmp_path, capsys, command, cfg, field):
    code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["field"] == field


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


def test_estimate_sigma_bump(tmp_path):
    out = tmp_path / "run"
    assert main(["estimate", "--which", "sigma", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["sigma_hat"] - report["support_radius_oracle"]) <= 0.02 * report["support_radius_oracle"]
    seq = (out / "sequence.csv").read_text().splitlines()
    assert seq[0] == "n,lognorm,root,ratio"


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
    assert report["sigma2_hat"] == pytest.approx(report["support_radius_oracle"] ** 2, rel=0.05)


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
    common = {"n_used", "converged", "diagnostics", "which", "support_radius_oracle", "sequence_csv", "config"}
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
