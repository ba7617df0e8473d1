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
        ("transform", {"function": {"type": "symexpr", "expr": GAUSSIAN_EXPR}, "grid": {"x_panels": "abc"}}, "grid"),
        ("transform", {"matrix": {"d": "x"}}, "matrix"),
        ("transform", {"function": {"type": "bump", "intervals": [[1, "a"]]}}, "function.intervals"),
    ],
)
def test_bad_field_exit_code(tmp_path, capsys, command, cfg, field):
    code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["field"] == field


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


def test_verify_subset_report(tmp_path):
    out = tmp_path / "run"
    code = main(["verify", "--suite", "operators", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is True
    assert all(c["suite"] == "operators" for c in report["checks"])


def test_verify_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--suite", "operators", "--out", str(out1)]) == 0
    assert main(["verify", "--suite", "operators", "--out", str(out2)]) == 0
    r1 = (out1 / "verify_report.json").read_bytes()
    r2 = (out2 / "verify_report.json").read_bytes()
    assert r1 == r2
