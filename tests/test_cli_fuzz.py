"""The CLI's input checks, fuzzed: seeded garbage and valid-looking configs, in process.

Every run exits 0 or 2. An exit 2 prints one strict-JSON error naming a known
field; an exit 0 writes strict-JSON files. Nothing reaches stderr, and the only
warnings raised are AccuracyWarnings.
"""

import copy
import json
import random
import warnings

from lcdunkl import transform
from lcdunkl.cli import DEFAULT_CONFIG, ESTIMATORS, main
from lcdunkl.errors import AccuracyWarning

SEED = 20261021
N_CONFIGS = 400


def _paths(tree, prefix=""):
    """Every key path of a nested dict, sections included."""
    out = set()
    if isinstance(tree, dict):
        for key, val in tree.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out |= {path} | _paths(val, path)
    return out


# the refusals that name no config key: an unreadable file, the determinant, the expression
KNOWN_FIELDS = _paths(DEFAULT_CONFIG) | {"config", "matrix.det", "function.expr"}
LEAVES = sorted(p for p in _paths(DEFAULT_CONFIG) if "." in p)
GARBAGE = [None, "x", "", "inf", "nan", True, False, [], {}, [1, "a"], {"a": 1}, 0, -1, 1e308, -1e308, 1e-320,
           2.5, 10**400, [[1.0, 2.0]], [[2.0, 1.0]], [[1.0]], "NaN"]


def _garbage(rng):
    return copy.deepcopy(rng.choice(GARBAGE))


def _section(cfg, name):
    if not isinstance(cfg.get(name), dict):
        cfg[name] = {}
    return cfg[name]


def _term(rng):
    term = {"coeff": [rng.uniform(-2, 2), rng.uniform(-1, 1)], "m": rng.randint(0, 4),
            "alpha": [rng.uniform(-2.0, -0.2), rng.uniform(-0.5, 0.5)], "beta": [rng.uniform(-0.5, 0.5), 0.0]}
    if rng.random() < 0.2:
        term["bessel"] = {"kappa": rng.choice([-0.5, 0.0, 1.5]), "c": rng.uniform(0.0, 2.0)}
    if rng.random() < 0.15:
        term[rng.choice(["coeff", "m", "alpha", "beta", "bessel"])] = _garbage(rng)
    return term


def _expr(rng, depth=0):
    roll = rng.random()
    if roll < 0.1:
        return _garbage(rng)
    if roll < 0.2 and depth < 2:
        return {"type": rng.choice(["sum", "product"]), "children": [_expr(rng, depth + 1) for _ in range(2)]}
    if roll < 0.25:
        return {"type": "quotpow", "j": rng.choice([1, 2, 0, 1.5]), "child": _expr(rng, depth + 1)}
    if roll < 0.3:
        return {"type": rng.choice(["sum_of_terms", "bogus", None]), "terms": _garbage(rng)}
    return {"type": "sum_of_terms", "terms": [_term(rng) for _ in range(rng.randint(1, 3))]}


# per field, values of its type near its documented range, a few of them just outside it
# (small grids, so that a run stays cheap)
VALID_LOOKING = {
    "k": [-0.5, 0.0, 0.5, 1.3, 2.0, 10.0, 70.0, 150.0, -0.6, 151.0],
    "matrix.a": [1.0, 0.0, 0.5, 2.0],
    "matrix.b": [1.0, -1.0, 0.8, 2.0, 1e-10, 0.0],
    "matrix.c": [0.0, -1.0, 0.5],
    "matrix.d": [1.0, 0.0, 2.0],
    "grid.x_radius": [6.0, 10.0, 1e-4, 2000.0, 2001.0],
    "grid.lambda_radius": [6.0, 14.0, 1e-4, 2000.0],
    "grid.x_panels": [2, 8, 16, 40, 3, 4097],
    "grid.lambda_panels": [2, 8, 16, 48, 5, 0],
    "grid.x_nodes": [2, 8, 16, 1, 65],
    "grid.lambda_nodes": [2, 8, 14, 1, 65],
    "function.type": ["bump", "symexpr", "other"],
    "function.intervals": [[[1.0, 2.0]], [[0.5, 1.5]], [[-1.5, -0.5], [0.5, 1.5]], [[1.0, 20.0]], [[2.0, 1.0]], []],
    "function.symmetrize": [True, False],
    "estimator.p": [1, 2.0, 3.5, "inf", 0.5],
    "estimator.n_max": [4, 10, 30, 60, 3, 61],
    "estimator.method": ["ratio", "root", "other"],
    "estimator.poly": [[0.0, 0.0, 0.25], [0.0, 0.5], [1.0], [0.0, 1.0, 0.0, 0.1]],
}


def _valid_looking(rng, path):
    return copy.deepcopy(rng.choice(VALID_LOOKING[path]))


def _config(rng):
    """A JSON text: mostly a config object built from the defaults and one to three mutations."""
    roll = rng.random()
    if roll < 0.04:
        return rng.choice(["{nope", "", "[]", "5", "null", '"text"', "[" * 5000, '{"k": NaN}'])
    cfg = {}
    if rng.random() < 0.5:
        cfg["function"] = {"type": "symexpr", "expr": _expr(rng)}
        cfg["grid"] = {"x_panels": 16, "x_nodes": 8, "lambda_panels": 16, "lambda_nodes": 8,
                       "x_radius": 8.0, "lambda_radius": 8.0}
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        leaf = rng.choice(LEAVES)
        section, _, name = leaf.partition(".")
        if kind < 0.45:
            _section(cfg, section)[name] = _valid_looking(rng, leaf)
        elif kind < 0.8:
            _section(cfg, section)[name] = _garbage(rng)
        elif kind < 0.9:
            target = cfg if rng.random() < 0.5 else _section(cfg, section)
            target[rng.choice(["kk", "extra", "n_max", "type"]) + "_x"] = 1
        else:
            cfg[section] = _garbage(rng)
    if rng.random() < 0.1:
        cfg["k"] = _garbage(rng) if rng.random() < 0.7 else _valid_looking(rng, "k")
    return json.dumps(cfg)


def _strict(text):
    def refuse(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_cli_fuzz(tmp_path, capsys, monkeypatch):
    # a small table cache, so that the many grid pairs below never hold much memory
    monkeypatch.setattr(transform, "TABLE_BUDGET", 32 * 2**20)
    rng = random.Random(SEED)
    codes = []
    for i in range(N_CONFIGS):
        text = _config(rng)
        path = tmp_path / f"cfg{i}.json"
        path.write_text(text)
        run = ["transform"] if rng.random() < 0.4 else ["estimate", "--which", rng.choice(list(ESTIMATORS))]
        out = tmp_path / f"out{i}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*run, "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        where = (i, run, text[:300])
        assert code in (0, 2), where
        assert captured.err == "", where
        assert all(issubclass(w.category, AccuracyWarning) for w in caught), (where, [str(w) for w in caught])
        if code == 2:
            error = _strict(captured.out)["error"]
            unknown = error["message"] == "unknown field" and error["field"] in _paths(_strict(text))
            assert error["field"] in KNOWN_FIELDS or unknown, (where, error)
        else:
            written = sorted(p.name for p in out.glob("*.json"))
            assert written == (["spectrum.json"] if run == ["transform"] else ["report.json"]), where
            for name in written:
                _strict((out / name).read_text())
        codes.append(code)
    # the generator reaches both sides of the checks
    assert codes.count(0) >= N_CONFIGS // 10 and codes.count(2) >= N_CONFIGS // 3
