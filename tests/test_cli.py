import contextlib
import io
import json
import math
import warnings

import pytest

from pviso import flow
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


# criterion 8's zero-lattice parameter set
P8Z_CFG = {
    "parameters": {
        "theta0": 0.45,
        "thetax": 0.05,
        "thetainf": 0.1,
        "c0": 1.0,
        "cx": 0.05,
        "sigma": 0.1,
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
    diagnostics = doc["result"]["monodromy_diagnostics"]
    assert set(diagnostics) == {"R", "consistency_defect", "frame_truncation"}
    assert diagnostics["frame_truncation"] == 0.0


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


def test_lattice_smallness_reported(tmp_path):
    # README's example config fails the smallness heuristic; the JSON says so
    path = _write(tmp_path, P1_CFG)
    for command, level in (("zeros", 5.273), ("poles", 94.229)):
        rc, doc = _run(tmp_path, ["--config", path, command, "--m-to", "12", "--no-refine"])
        assert rc == 0
        smallness = doc["result"]["smallness"]
        assert round(smallness["score"], 2) == 2.16
        assert round(smallness["strip_level"], 3) == level
        assert smallness["pass"] is False


def test_zero_cx_lattice_exit_code():
    assert main([*P1_FLAGS, "--c0", "1", "--cx", "0", "zeros", "--no-refine"]) == 2


def test_resonant_lattice_exit_code():
    # rho0's denominator sigma + 2 theta0 - thetainf vanishes (zeros), and
    # rhoinf = -(sigma - 2 thetax + thetainf)/4 vanishes (poles)
    zeros = ["--theta0", "0.25", "--thetax", "0.16", "--thetainf", "0.5", "--sigma", "0"]
    poles = ["--theta0", "0.3", "--thetax", "0.25", "--thetainf", "0", "--sigma", "0.5"]
    for command, flags in (("zeros", zeros), ("poles", poles)):
        argv = [command, *flags, "--c0", "1", "--cx", "0.7", "--no-refine"]
        assert main(argv) == 2, command


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
    zeros = ["--config", _write(tmp_path, P8Z_CFG, "p8z.json"), "zeros", "--m-to", "12"]
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
    for run in (zeros, args):
        assert main(run + ["--out", str(out1)]) == 0
        assert main(run + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    pt = doc["result"]["points"][0]
    assert pt["x"] == [0.0, 40.0]
    assert not pt["pole"]


def test_config_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "verify"]) == 2


def test_non_object_config_exit_code(tmp_path):
    for cfg in ([], [ZERO_CFG], "x", 3):
        assert main(["--config", _write(tmp_path, cfg), "braid"]) == 2


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


def test_empty_x_points_exit_code(tmp_path):
    cfg = _write(tmp_path, dict(P1_CFG, options={"x_points": []}))
    assert main(["--config", cfg, "flow"]) == 2
    assert main(["--config", cfg, "evaluate"]) == 2


def test_zero_tol_exit_code():
    assert main([*P1_FLAGS, "--c0", "1", "monodromy", "--tol", "0"]) == 2


def test_negative_tol_exit_code():
    assert main([*P1_FLAGS, "--c0", "1", "flow", "--tol", "-1"]) == 2


def test_non_boolean_refine_exit_code(tmp_path):
    cfg = _write(tmp_path, dict(P1_CFG, options={"refine": "false"}))
    assert main(["--config", cfg, "zeros", "--m-from", "10", "--m-to", "10"]) == 2


def test_non_positive_options_exit_code(tmp_path):
    # every tolerance, radius and step must be finite and > 0
    for opts, command in (
        ({"seed_radius": 0}, "flow"),
        ({"radius": -5}, "monodromy"),
        ({"root_tol": 0}, "zeros"),
        ({"monodromy_tol": math.nan}, "verify"),
        ({"tol": math.inf}, "flow"),
        ({"h_values": [0.01, -1]}, "tau"),
    ):
        cfg = _write(tmp_path, dict(P1_CFG, options=opts))
        assert main(["--config", cfg, command]) == 2, opts


def test_zeros_feval_budget(tmp_path, monkeypatch):
    # criterion 8's zero lattice: one series seed, then one transport per
    # root with Newton derivatives from the vector field (60,028 field
    # calls with two walks per root and finite-difference hops)
    calls = {"nfev": 0}
    transport = flow.integrate_rk54

    def counting(f, *args, **kwargs):
        def g(*a):
            calls["nfev"] += 1
            return f(*a)

        return transport(g, *args, **kwargs)

    monkeypatch.setattr(flow, "integrate_rk54", counting)
    cfg = _write(tmp_path, P8Z_CFG)
    rc, doc = _run(tmp_path, ["--config", cfg, "zeros", "--m-from", "10", "--m-to", "40"])
    assert rc == 0
    assert all(row["residual"] <= 1e-9 for row in doc["result"]["table"])
    assert all(0.0 < row["root_error"] <= 1e-5 for row in doc["result"]["table"])
    # the degree-5 series is seeded at the top zero itself: no 2|top| -> top
    # transport (33,764 field calls with it)
    top = doc["result"]["table"][-1]["seed"][1]
    anchor = doc["result"]["anchor"]
    assert anchor["degree"] == 5 and anchor["seed_radius"] == top
    assert 0.0 < anchor["seed_truncation"] <= 1e-10
    assert calls["nfev"] <= 20_000


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_braid_exit_code(tmp_path, capsys):
    # c0 = 1e300 overflows the shifted matrices to inf and nan, which
    # have no strict-JSON form: exit 3 and no output
    cfg = _write(tmp_path, P1_CFG)
    rc, doc = _run(tmp_path, ["--config", cfg, "--c0", "1e300", "braid"])
    assert rc == 3 and doc is None
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_lattice_float_range_exit_code(tmp_path):
    # c0 = 1e300 makes the smallness score infinite; cx/c0 = 1e-400
    # underflows to 0, whose log no seed can take
    cfg = _write(tmp_path, P1_CFG)
    for command, flags in (
        ("zeros", ["--c0", "1e300"]),
        ("zeros", ["--c0", "1e200", "--cx", "1e-200"]),
        ("poles", ["--c0", "1e200", "--cx", "1e-200"]),
    ):
        rc, doc = _run(tmp_path, ["--config", cfg, command, "--no-refine", *flags])
        assert rc == 3 and doc is None, (command, flags)


def test_overflow_exit_code(tmp_path, capsys):
    # the closed form at theta0 = 200 or 300 overflows a float
    for theta0 in ("200", "300"):
        rc, doc = _run(tmp_path, [*P1_FLAGS, "--c0", "1", "--theta0", theta0, "braid"])
        assert rc == 3 and doc is None
        assert "Traceback" not in capsys.readouterr().err


def test_cheap_commands_exit_code_contract():
    # any complex parameters, over many magnitudes: braid and the
    # unrefined lattices exit 0, 2, 3 or 4, and on 0 print strict JSON
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # each real and imaginary part is a mantissa times 10^e, with e = 0
    # about three times in four, so about a third of the runs succeed
    exponents = (0,) * 120 + tuple(range(-300, 301, 15))
    parts = st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12)
    scales = st.lists(st.sampled_from(exponents), min_size=12, max_size=12)
    commands = st.sampled_from((["braid"], ["zeros", "--no-refine"], ["poles", "--no-refine"]))

    @hypothesis.settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @hypothesis.given(parts, scales, commands)
    def check(mantissas, exps, command):
        v = [m * 10.0**e for m, e in zip(mantissas, exps)]
        flags = [
            f"--{key}={complex(v[2 * i], v[2 * i + 1])!r}"
            for i, key in enumerate(ZERO_CFG["parameters"])
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rc = main([*flags, *command])
        assert rc in (0, 2, 3, 4), (rc, err.getvalue())
        if rc == 0:
            _strict_json(out.getvalue())

    check()
