import json
import math

import numpy as np
import pytest

from multiphoton.cli import main
from multiphoton.network import network_to_dict, random_unitary


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def identical_photons(tmp_path):
    return write_json(tmp_path / "photons.json", [
        {"gaussian": {"omega": 0.0, "delta": 1.0, "t": 0.0}},
        {"gaussian": {"omega": 0.0, "delta": 1.0, "t": 0.0}},
    ])


def run(args):
    return main(args)


def test_distribution_hom(tmp_path, identical_photons):
    out = tmp_path / "dist.json"
    code = run(["distribution", "--network", "fourier:2", "--input", "1,1",
                "--photons", identical_photons, "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    probs = {tuple(o["m"]): o["p"] for o in data["outputs"]}
    assert probs[(2, 0)] == pytest.approx(0.5, abs=1e-12)
    assert probs[(1, 1)] == pytest.approx(0.0, abs=1e-12)
    assert probs[(0, 2)] == pytest.approx(0.5, abs=1e-12)
    assert data["sum"] == pytest.approx(1.0, abs=1e-9)
    assert data["engine"] == "jmatrix"


@pytest.mark.parametrize("engine", ["permanent", "general", "oracle", "ideal"])
def test_distribution_other_engines(tmp_path, identical_photons, engine):
    out = tmp_path / "dist.json"
    code = run(["distribution", "--network", "fourier:2", "--input", "1,1",
                "--photons", identical_photons, "--engine", engine,
                "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    probs = {tuple(o["m"]): o["p"] for o in data["outputs"]}
    assert probs[(1, 1)] == pytest.approx(0.0, abs=1e-12)
    assert data["sum"] == pytest.approx(1.0, abs=1e-9)


def test_hom_scan_with_photon_file(tmp_path):
    photons = write_json(tmp_path / "p.json", [
        {"gaussian": {"omega": 1.5, "delta": 0.8, "t": 0.0}},
        {"gaussian": {"omega": 1.5, "delta": 0.8, "t": 0.3}},
    ])
    out = tmp_path / "hom.csv"
    assert run(["hom-scan", "--range", "0:2:9", "--photons", photons,
                "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    assert float(rows[0][1]) < 1e-12  # dip at tau = 0


def test_distribution_classical_engine(tmp_path):
    out = tmp_path / "dist.json"
    code = run(["distribution", "--network", "fourier:2", "--input", "1,1",
                "--engine", "classical", "--out", str(out)])
    assert code == 0
    probs = {tuple(o["m"]): o["p"] for o in json.loads(out.read_text())["outputs"]}
    assert probs[(2, 0)] == pytest.approx(0.25, abs=1e-12)
    assert probs[(1, 1)] == pytest.approx(0.5, abs=1e-12)


def test_distribution_json_roundtrip(tmp_path, identical_photons):
    # a dumped network file reproduces the built-in source bit for bit
    net = tmp_path / "net.json"
    write_json(net, network_to_dict(random_unitary(3, 5)))
    photons3 = write_json(tmp_path / "p3.json", [
        {"gaussian": {"omega": 0.0, "delta": 1.0, "t": float(t)}} for t in (0, 0.5, 1.0)
    ])
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["distribution", "--network", str(net), "--input", "1,1,1",
                "--photons", photons3, "--out", str(out1)]) == 0
    assert run(["distribution", "--network", "haar:3:5", "--input", "1,1,1",
                "--photons", photons3, "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_distribution_validation_exit_codes(tmp_path, identical_photons):
    # wrong occupation length -> validation (2)
    assert run(["distribution", "--network", "fourier:2", "--input", "1,1,1",
                "--photons", identical_photons]) == 2
    # missing photon file for a spectral engine -> validation (2)
    assert run(["distribution", "--network", "fourier:2", "--input", "1,1"]) == 2
    # photon count mismatch -> validation (2)
    assert run(["distribution", "--network", "fourier:3", "--input", "1,1,1",
                "--photons", identical_photons]) == 2


def test_distribution_refuses_a_non_finite_network_file(tmp_path, identical_photons, capsys):
    data = network_to_dict(random_unitary(2, 5))
    data["rows"][0][1][0] = math.nan
    net = write_json(tmp_path / "nan.json", data)
    assert run(["distribution", "--network", net, "--input", "1,1",
                "--photons", identical_photons]) == 2
    assert capsys.readouterr().err == "error: network matrix entries must be finite\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_distribution_refuses_an_unusable_tolerance(tmp_path, capsys, tol):
    """--tol nan and --tol inf used to let a non-unitary network through
    (exit 0 with probabilities); --tol -1 would refuse every network."""
    net = write_json(tmp_path / "ones.json", network_to_dict(np.ones((2, 2))))
    assert run(["distribution", "--network", net, "--input", "1,0", "--engine", "ideal",
                f"--tol={tol}"]) == 2
    assert "unitarity tolerance must be finite and >= 0" in capsys.readouterr().err


def test_distribution_passes_a_zero_tolerance(tmp_path, capsys):
    """--tol 0 is a tolerance, not a missing option: a network 2e-12 from
    unitary passes the default 1e-8 and fails --tol 0."""
    net = write_json(tmp_path / "near.json", network_to_dict(random_unitary(2, 5) * (1 + 1e-12)))
    args = ["distribution", "--network", net, "--input", "1,0", "--engine", "ideal"]
    assert run(args + ["--out", str(tmp_path / "dist.json")]) == 0
    assert run(args + ["--tol", "0"]) == 2
    assert "network matrix is not unitary" in capsys.readouterr().err


def test_distribution_size_cap_exit(tmp_path):
    photons9 = write_json(tmp_path / "p9.json", [
        {"gaussian": {"omega": 0.0, "delta": 1.0, "t": 0.0}} for _ in range(9)
    ])
    code = run(["distribution", "--network", "fourier:3", "--input", "3,3,3",
                "--photons", photons9])
    assert code == 3


def test_hom_scan(tmp_path):
    out = tmp_path / "hom.csv"
    assert run(["hom-scan", "--range", "0:3:13", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau,p_coincidence"
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    assert len(rows) == 13
    assert rows[0][1] < 1e-12
    # known value at tau = 2 for unit width
    tau2 = [p for t, p in rows if abs(t - 2.0) < 1e-9][0]
    assert tau2 == pytest.approx((1 - math.exp(-4.0)) / 2, abs=1e-8)
    # monotone nondecreasing in |tau|
    ps = [p for _, p in rows]
    assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))


def test_hom_scan_rejects_non_gaussian(tmp_path):
    bad = write_json(tmp_path / "p.json", [{"coeffs": [[1.0, 0.0]]},
                                           {"coeffs": [[1.0, 0.0]]}])
    assert run(["hom-scan", "--range", "0:1:3", "--photons", bad]) == 2


def test_purity_csv(tmp_path):
    out = tmp_path / "purity.csv"
    assert run(["purity", "--range", "0:0.9:10", "--n-list", "2,4,10,20,30",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "gamma,N,purity,trace"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 10 * 5
    for row in rows:
        if float(row[0]) == 0.0:
            assert float(row[2]) == pytest.approx(1.0)


def test_purity_gamma_validation():
    assert run(["purity", "--range", "0.5:1.2:4"]) == 2


def test_suppress_fourier3(tmp_path):
    groups = write_json(tmp_path / "groups.json", {
        "groups": [
            {"state": {"gaussian": {"omega": 0.0, "delta": 1.0, "t": 0.0}},
             "modes": [0, 1, 2]},
        ]
    })
    out = tmp_path / "report.json"
    code = run(["suppress", "--network", "fourier:3", "--groups", groups,
                "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    flagged = {tuple(r["m"]) for r in report["records"]
               if r["verdict"].startswith("suppressed")}
    assert (2, 1, 0) in flagged
    assert (1, 1, 1) not in flagged
    assert report["violations"] == 0


def test_suppress_identity_empty(tmp_path):
    groups = write_json(tmp_path / "groups.json", {
        "groups": [
            {"state": {"gaussian": {"omega": 0.0, "delta": 1.0, "t": 0.0}},
             "modes": [0, 1, 2]},
        ]
    })
    net = write_json(tmp_path / "net.json", network_to_dict(np.eye(3, dtype=complex)))
    out = tmp_path / "report.json"
    assert run(["suppress", "--network", net, "--groups", groups, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["flagged"] == 0


def test_verify_pass_and_fault_injection(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--seed", "7", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    assert run(["verify", "--seed", "7", "--inject-fault", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["all_pass"] is False


def test_verify_checks_product_ensemble_then_permutation_tables(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--seed", "7", "--out", str(out)]) == 0
    product, tables, fold = json.loads(out.read_text())["checks"][-3:]
    assert product["name"] == "product-ensemble-vs-photons" and product["pass"] is True
    assert product["max_discrepancy"] < 1e-12
    assert tables == {"name": "permutation-tables", "pass": True, "mismatches": 0}
    assert fold["name"] == "fold-gather-vs-stack" and fold["pass"] is True
    assert fold["max_relative_error"] < 1e-13


def test_permutation_tables_check_flags_a_wrong_rank(monkeypatch):
    """The vectorised rank comparison of the check sees a ranker that is off."""
    from multiphoton import symgroup, verify

    monkeypatch.setattr(verify, "_lehmer_rank",
                        lambda images: symgroup._lehmer_rank(images[..., ::-1]))
    tables = verify.run_checks(seed=7)[-2]
    assert tables["name"] == "permutation-tables" and tables["mismatches"] > 0


def test_fold_gather_check_flags_ignored_offsets(monkeypatch):
    """The fold check sees a gather that reads every draw at offset 0."""
    from multiphoton import verify

    gather = verify.permanent_gather_batch
    monkeypatch.setattr(verify, "permanent_gather_batch",
                        lambda w, images, offsets, **kw: gather(w, images, 0 * offsets, **kw))
    fold = verify.run_checks(seed=7)[-1]
    assert fold["name"] == "fold-gather-vs-stack" and fold["pass"] is False


def test_fold_check_above_oracle_cap_flags_a_dropped_tuple(monkeypatch):
    """The N = 6 fold-against-tau check passes, and sees a fold that skips a
    basis tuple whose permanent is not zero."""
    from multiphoton import probability, verify

    def find(checks):
        [check] = [c for c in checks if c["name"] == "permanent-vs-jmatrix-above-oracle-cap"]
        return check

    check = find(verify.run_checks(seed=7))
    assert check["pass"] is True and check["max_discrepancy"] < 1e-12
    tuples = probability._basis_tuples
    monkeypatch.setattr(probability, "_basis_tuples",
                        lambda r, sizes, hall: tuple(a[1:] for a in tuples(r, sizes, hall)))
    assert find(verify.run_checks(seed=7))["pass"] is False


def test_verify_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "--seed", "3", "--out", str(a)]) == 0
    assert run(["verify", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_json_float_precision(tmp_path, identical_photons):
    out = tmp_path / "dist.json"
    run(["distribution", "--network", "fourier:2", "--input", "1,1",
         "--photons", identical_photons, "--out", str(out)])
    # 17 significant digits round-trip exactly
    text = out.read_text()
    data = json.loads(text)
    assert data["outputs"][0]["p"] == 0.49999999999999994 or \
        data["outputs"][0]["p"] == pytest.approx(0.5, abs=1e-15)
