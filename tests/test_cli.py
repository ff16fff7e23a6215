import json
import math

from pviso.cli import main

ZERO_CFG = {
    "parameters": {
        "theta0": 0.0,
        "thetax": 0.0,
        "thetainf": 0.0,
        "c0": 1.0,
        "cx": 1.0,
        "sigma": 0.0,
    }
}

P1_CFG = {
    "parameters": {
        "theta0": 0.21,
        "thetax": 0.16,
        "thetainf": 0.11,
        "c0": 1.0,
        "cx": [0.7, 0.2],
        "sigma": [0.24, 0.05],
    }
}


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, args):
    out = tmp_path / "out.json"
    rc = main(args + ["--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return rc, payload


def test_verify_zero_parameters_all_pass(tmp_path):
    cfg = _write(tmp_path, ZERO_CFG)
    rc, doc = _run(tmp_path, ["--config", cfg, "verify"])
    assert rc == 0
    assert doc["result"]["all_pass"]
    m0 = doc["result"]["monodromy"]["M0"]
    assert abs(m0[0][0][0] - 1.0) < 1e-9 and abs(m0[0][1][0]) < 1e-9
    mx = doc["result"]["monodromy"]["Mx"]
    assert abs(mx[1][1][0] - 1.0) < 1e-9


def test_zeros_table_seed_column(tmp_path):
    cfg = dict(P1_CFG)
    cfg["parameters"] = dict(cfg["parameters"], cx=-0.31 / 4.0, sigma=0.0)
    path = _write(tmp_path, cfg)
    csv = tmp_path / "rows.csv"
    rc, doc = _run(
        tmp_path,
        ["--config", path, "zeros", "--m-from", "10", "--m-to", "12", "--no-refine", "--csv", str(csv)],
    )
    assert rc == 0
    row = doc["result"]["table"][0]
    assert row["m"] == 10
    # seed = 2 m pi i - log(2 m pi i) for rho0 c = 1, sigma = 0
    assert abs(row["seed"][0] + math.log(20.0 * math.pi)) < 1e-9
    assert abs(row["seed"][1] - (20.0 * math.pi - math.pi / 2.0)) < 1e-9
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("# m,")
    assert len(lines) == 4


def test_braid_roundtrip(tmp_path):
    cfg = _write(tmp_path, P1_CFG)
    rc, doc = _run(tmp_path, ["--config", cfg, "braid", "--steps", "2"])
    assert rc == 0
    shifted = doc["result"]["shifted"]
    rc2, doc2 = _run(
        tmp_path,
        ["--config", cfg, "braid", "--steps", "-2"],
    )
    assert rc2 == 0
    # +2 then -2 is the identity on the stored matrices; check against input
    orig = doc["result"]["input"]["M0"]
    back = None
    # feed the +2-shifted data through a -2 shift via config
    cfg2 = dict(P1_CFG)
    cfg2["options"] = {"monodromy": {"M0": shifted["M0"], "Mx": shifted["Mx"]}}
    path2 = _write(tmp_path, cfg2, "cfg2.json")
    rc3, doc3 = _run(tmp_path, ["--config", path2, "braid", "--steps", "-2"])
    assert rc3 == 0
    back = doc3["result"]["shifted"]["M0"]
    for i in range(2):
        for j in range(2):
            assert abs(back[i][j][0] - orig[i][j][0]) < 1e-10
            assert abs(back[i][j][1] - orig[i][j][1]) < 1e-10


def test_evaluate_and_determinism(tmp_path):
    cfg = _write(tmp_path, P1_CFG)
    args = [
        "--config",
        cfg,
        "evaluate",
        "--x-points",
        "40j;41j",
        "--seed-radius",
        "200",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    pt = doc["result"]["points"][0]
    assert pt["x"] == [0.0, 40.0]
    assert not pt["pole"]


def test_config_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "verify"]) == 2


def test_missing_parameters_exit_code(tmp_path):
    cfg = _write(tmp_path, {"parameters": {"theta0": 0.1}})
    assert main(["--config", cfg, "verify"]) == 2


def test_numerical_failure_exit_code(tmp_path):
    # a seed radius that fails the admissibility check trips a numerical
    # error path (PathError -> config/value error family -> exit 2)
    cfg = _write(tmp_path, P1_CFG)
    rc = main(["--config", cfg, "evaluate", "--x-points", "40j", "--seed-radius", "5"])
    assert rc in (2, 3)


P1_FLAGS = [
    "--theta0", "0.21", "--thetax", "0.16", "--thetainf", "0.11",
    "--cx", "0.7+0.2i", "--sigma", "0.24+0.05i",
]


def test_zero_c0_braid_exit_code():
    assert main([*P1_FLAGS, "--c0", "0", "braid"]) == 2


def test_malformed_option_exit_code(tmp_path):
    cfg = _write(tmp_path, dict(P1_CFG, options={"tol": "x"}))
    assert main(["--config", cfg, "monodromy"]) == 2


def test_nan_parameter_exit_code():
    assert main([*P1_FLAGS, "--c0", "nan", "braid"]) == 2
