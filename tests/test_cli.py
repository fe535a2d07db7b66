import json

from delpezzo.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lattice_counts(capsys):
    code, out = _run(capsys, "lattice", "--degree", "3", "--what", "lines")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == "1"
    assert data["results"]["count"] == 27
    code, out = _run(capsys, "lattice", "--degree", "3", "--what", "trios")
    assert json.loads(out)["results"]["count"] == 45


def test_usage_errors_exit_2(capsys):
    code, out = _run(capsys, "lattice", "--degree", "12", "--what", "roots")
    assert code == 2
    code, _ = _run(capsys, "lattice", "--degree", "3")
    assert code == 2
    code, _ = _run(capsys, "nonsense")
    assert code == 2


def test_deterministic_output(capsys):
    _, out1 = _run(capsys, "frames", "--degree", "3", "--k", "2")
    _, out2 = _run(capsys, "frames", "--degree", "3", "--k", "2")
    assert out1 == out2


def test_cubic_checks_pass(capsys):
    code, out = _run(
        capsys, "cubic", "--model", "clebsch", "--twist", "t12", "--count-real-lines"
    )
    assert code == 0
    data = json.loads(out)
    assert data["results"]["real_lines"] == 3
    assert all(c["pass"] for c in data["checks"])
    assert data["checks"][0]["source"].startswith("table:5")


def test_dp2_example(capsys):
    code, out = _run(capsys, "dp2-example", "--orbits")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["disjoint_real_orbits"] == []


def test_invariants(capsys):
    code, out = _run(capsys, "invariants", "--group", "d8", "--degree", "6")
    data = json.loads(out)
    assert code == 0
    assert data["results"]["dimension"] == 1
    assert data["results"]["basis"] == [["1", "0", "3", "0", "3", "0", "1"]]


def test_dp1_rationality(capsys):
    code, out = _run(
        capsys, "dp1", "rationality", "--f4=-2,0,-2,0,-2", "--f6=-1,0,-2,0,-2,0,2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["results"]["verdict"] == "rational"
    assert data["results"]["euler"] < 0


def test_dp1_rationality_rejects_non_rational_scalar(capsys):
    code, _ = _run(capsys, "dp1", "rationality", "--f4=z4^1,0,0,0,0", "--f6=1,0,0,0,0,0,1")
    assert code == 2


def test_graph_json_and_dot(capsys):
    code, out = _run(capsys, "graph", "--degree", "5", "--sigma", "fig_b")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["automorphism_order"] == 8
    code, out = _run(capsys, "graph", "--degree", "6", "--sigma", "split", "--dot")
    assert code == 0
    assert out.startswith("graph lines {")
    assert out.rstrip().endswith("}")


def test_dp4_rank_elements(capsys):
    payload = json.dumps(
        [
            {"sign": [0, 0, 0, 0, 0], "perm": [1, 2, 3, 4, 5]},
            {"sign": [1, 0, 1, 1, 1], "perm": [1, 2, 3, 4, 5]},
        ]
    )
    code, out = _run(capsys, "dp4", "--form", "q31-0-2", "--rank-elements", payload)
    assert code == 0
    data = json.loads(out)
    assert data["results"]["strongly_minimal"] is True


def test_table_driver(capsys):
    code, out = _run(capsys, "table", "--id", "5")
    assert code == 0
    data = json.loads(out)
    assert all(c["pass"] for c in data["checks"])
    assert all("source" in c for c in data["checks"])
    code, out = _run(capsys, "table", "--id", "4")
    assert code == 0
    data = json.loads(out)
    assert all(c["pass"] for c in data["checks"])
    assert data["results"]["characteristics"]["A_1^2'"] == [2, 2, 1]
    code, _ = _run(capsys, "table", "--id", "9")
    assert code == 2


def test_minimal_subcommand(capsys):
    from delpezzo.picard import PicardLattice
    from delpezzo.weyl import minus_on_kperp

    geiser = minus_on_kperp(PicardLattice(2)).matrix
    payload = json.dumps([[list(row) for row in geiser]])
    code, out = _run(capsys, "minimal", "--degree", "2", "--generators", payload, "--sigma", "0")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["rank"] == 1
    assert data["results"]["strongly_minimal"] is True
    assert data["results"]["contractible_set"] is None


def test_table_flags_a_scan_cut_by_its_budget(capsys, monkeypatch):
    import delpezzo.cli
    from delpezzo import weyl

    monkeypatch.setattr(
        delpezzo.cli, "involution_frames", lambda lat, k: weyl.involution_frames(lat, k, budget=50)
    )
    code, out = _run(capsys, "table", "--id", "7")
    assert code == 1
    failed = {c["name"] for c in json.loads(out)["checks"] if not c["pass"]}
    assert {"scan_exhausted_k3", "scan_exhausted_k4", "scan_exhausted_k8"} <= failed


def test_frames_budget_equal_to_the_frame_count_is_exhaustive(capsys):
    code, out = _run(capsys, "frames", "--degree", "3", "--k", "1", "--budget", "36")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["frames_examined"] == 36 and results["exhausted"] is True
    code, out = _run(capsys, "frames", "--degree", "3", "--k", "1", "--budget", "0")
    assert code == 2 and "error" in json.loads(out)
