import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinwigner as sw
from spinwigner.cli import main, parse_grid, parse_state_text


ROOT2 = math.sqrt(2.0)

UP_ONE_SPIN = "kind raw\nspins 1\namp 0 0\namp 1 0\n"

SINGLET = (
    "kind raw\nspins 2\n"
    "amp 0 0\n"
    f"amp {-1/ROOT2!r} 0\n"
    f"amp {1/ROOT2!r} 0\n"
    "amp 0 0\n"
)

# |uu> plus the singlet, an equal superposition across shells
MIXED_SHELLS = (
    "kind raw\nspins 2\n"
    "amp 0 0\n"
    "amp -0.5 0\n"
    "amp 0.5 0\n"
    f"amp {1/ROOT2!r} 0\n"
)

NONREDUCIBLE_OPERATOR = (
    "kind operator\nspins 2\n"
    "row 0,0 0,0 0,0 0,0\n"
    "row 0,0 0,0 0,0 0,0\n"
    "row 0,0 0,0 0,0 0,0\n"
    f"row 0,0 {-1/ROOT2!r},0 {1/ROOT2!r},0 0,0\n"
)

CAT5 = "kind cat\nspins 5\n"

FOCK5_2 = "kind fock\nspins 5\nexcitations 2\n"

SQUEEZED5 = "kind squeezed\nspins 5\nbeta 0.2 0\n"

MIXTURE5 = (
    "kind mixture\nspins 5\n"
    "component 0.5 coherent 0 0\n"
    f"component 0.5 coherent {math.pi!r} 0\n"
)


def _state_file(tmp_path, text, name="state.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_table(path):
    header, columns, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return header, columns, np.array(rows)


def test_parse_state_kinds():
    spec = parse_state_text(CAT5)
    assert spec.kind == "cat" and spec.n == 5
    spec = parse_state_text(SQUEEZED5)
    assert spec.beta == 0.2 + 0.0j
    spec = parse_state_text(MIXTURE5)
    assert len(spec.components) == 2
    spec = parse_state_text(NONREDUCIBLE_OPERATOR)
    assert spec.matrix[3][2] == pytest.approx(1 / ROOT2)


def test_parse_state_errors():
    with pytest.raises(sw.ValidationError):
        parse_state_text("spins 2\n")
    with pytest.raises(sw.ValidationError):
        parse_state_text("kind raw\nspins 2\namp 1 0\n")
    with pytest.raises(sw.ValidationError):
        parse_state_text("kind nebula\nspins 2\n")
    with pytest.raises(sw.ValidationError):
        parse_state_text("kind fock\nspins 2\n")


def test_parse_grid_validation():
    with pytest.raises(sw.ValidationError):
        parse_grid("volume", "x1:0:1:5,x2:0:1:5")
    with pytest.raises(sw.ValidationError):
        parse_grid("volume", "x1:0:1:5,x2:0:1:5,x3:1:0:5")
    with pytest.raises(sw.ValidationError):
        parse_grid("volume", "x1:0:1:1,x2:0:1:5,x3:0:1:5")
    with pytest.raises(sw.CapacityError):
        parse_grid("volume", "x1:0:1:200,x2:0:1:200,x3:0:1:200")
    with pytest.raises(sw.ValidationError):
        parse_grid("plane4d", "q1:0:1:5,q1:0:1:5")
    grid = parse_grid("plane4d", "q1:-1:1:5,p1:-1:1:5", "q2=0.5,p2=-1")
    assert dict(grid.fixed) == {"q2": 0.5, "p2": -1.0}


def test_volume_command_small_grid(tmp_path, capsys):
    state = _state_file(tmp_path, UP_ONE_SPIN)
    out = str(tmp_path / "vol.csv")
    code = main(["volume", "--state", state, "--grid",
                 "x1:-4:4:3,x2:-4:4:3,x3:-4:4:3", "--out", out])
    assert code == 0
    header, columns, rows = _read_table(out)
    assert columns == ["x1", "x2", "x3", "value"]
    assert rows.shape == (27, 4)
    assert any("spinwigner" in h for h in header)
    origin = rows[np.all(rows[:, :3] == 0.0, axis=1)]
    assert origin[0, 3] == pytest.approx(-1.0 / math.pi**2, abs=1e-10)
    report = capsys.readouterr().out
    assert "represented_trace=1.0" in report
    assert "commutes_with_s2=true" in report


def test_volume_command_singlet_matches_closed_form(tmp_path):
    state = _state_file(tmp_path, SINGLET)
    out = str(tmp_path / "vol.csv")
    assert main(["volume", "--state", state, "--grid",
                 "x1:-2:2:4,x2:-2:2:4,x3:-2:2:4", "--out", out]) == 0
    _, _, rows = _read_table(out)
    r = np.linalg.norm(rows[:, :3], axis=1)
    assert np.max(np.abs(rows[:, 3] - np.exp(-r) / math.pi**2)) <= 1e-10


def test_volume_refuses_cross_shell_state(tmp_path, capsys):
    state = _state_file(tmp_path, MIXED_SHELLS)
    out = str(tmp_path / "vol.csv")
    code = main(["volume", "--state", state, "--grid",
                 "x1:-1:1:3,x2:-1:1:3,x3:-1:1:3", "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert "plane4d" in err


def test_sphere_command_singlet_uniform(tmp_path):
    state = _state_file(tmp_path, SINGLET)
    out = str(tmp_path / "sph.csv")
    assert main(["sphere", "--state", state, "--grid",
                 "theta:0:3.141592653589793:5,phi:0:6.283185307179586:8",
                 "--out", out, "--method", "numeric"]) == 0
    _, columns, rows = _read_table(out)
    assert columns == ["theta", "phi", "value"]
    assert np.max(np.abs(rows[:, 2] - 1.0 / (4.0 * math.pi))) <= 1e-10


def test_sphere_command_both_methods_agree(tmp_path):
    state = _state_file(tmp_path, FOCK5_2)
    out = str(tmp_path / "sph.csv")
    assert main(["sphere", "--state", state, "--grid",
                 "theta:0.05:3.09:6,phi:0:6.2:6", "--out", out,
                 "--method", "both"]) == 0
    _, columns, rows = _read_table(out)
    assert columns == ["theta", "phi", "value", "value_numeric", "abs_diff"]
    assert np.max(rows[:, 4]) <= 1e-8


def test_sphere_command_squeezed_runs(tmp_path):
    state = _state_file(tmp_path, SQUEEZED5)
    out = str(tmp_path / "sph.csv")
    assert main(["sphere", "--state", state, "--grid",
                 "theta:0:3.141592653589793:9,phi:0:6.283185307179586:16",
                 "--out", out, "--method", "analytic"]) == 0
    _, _, rows = _read_table(out)
    assert np.all(np.isfinite(rows))
    assert rows.shape[0] == 9 * 16


def test_sphere_command_operator_falls_back(tmp_path, capsys):
    state = _state_file(tmp_path, NONREDUCIBLE_OPERATOR)
    out = str(tmp_path / "sph.csv")
    code = main(["sphere", "--state", state, "--grid",
                 "theta:0:3.14:5,phi:0:6.28:5", "--out", out,
                 "--method", "analytic"])
    assert code == 0
    report = capsys.readouterr().out
    assert "commutes_with_s2=false" in report
    assert "note=" in report
    _, columns, rows = _read_table(out)
    assert columns == ["theta", "phi", "value"]
    assert np.all(np.isfinite(rows))


def test_plane4d_command_matches_closed_form(tmp_path):
    state = _state_file(tmp_path, NONREDUCIBLE_OPERATOR)
    out = str(tmp_path / "plane.csv")
    assert main(["plane4d", "--state", state, "--grid", "q1:-1:1:5,p1:-1:1:5",
                 "--fix", "q2=0.3,p2=-0.2", "--out", out]) == 0
    _, columns, rows = _read_table(out)
    assert columns == ["q1", "p1", "value_re", "value_im"]
    q1, p1 = rows[:, 0], rows[:, 1]
    r = q1**2 + p1**2 + 0.3**2 + 0.2**2
    expect = ROOT2 / math.pi**2 * np.exp(-r) * (q1 - 1j * p1) ** 2
    assert np.max(np.abs(rows[:, 2] - expect.real)) <= 1e-10
    assert np.max(np.abs(rows[:, 3] - expect.imag)) <= 1e-10


def test_volume_cat_minus_mixture_matches_interference(tmp_path):
    n = 5
    paths = {}
    for name, text in (("cat", CAT5), ("mix", MIXTURE5)):
        state = _state_file(tmp_path, text, f"{name}.txt")
        out = str(tmp_path / f"{name}.csv")
        assert main(["volume", "--state", state, "--grid",
                     "x1:-3:3:4,x2:-3:3:4,x3:-3:3:4", "--out", out]) == 0
        paths[name] = out
    _, _, cat_rows = _read_table(paths["cat"])
    _, _, mix_rows = _read_table(paths["mix"])
    assert np.array_equal(cat_rows[:, :3], mix_rows[:, :3])
    x1, x2, x3 = cat_rows[:, 0], cat_rows[:, 1], cat_rows[:, 2]
    r = np.sqrt(x1**2 + x2**2 + x3**2)
    # cat minus mixture is half the coherence-pair operator
    expect = 0.5 * np.exp(-r) / (math.pi**2 * math.factorial(n)) * (
        (x1 + 1j * x2) ** n + (x1 - 1j * x2) ** n).real
    assert np.max(np.abs((cat_rows[:, 3] - mix_rows[:, 3]) - expect)) <= 1e-10


def test_check_command_cat_passes(tmp_path, capsys):
    state = _state_file(tmp_path, CAT5)
    assert main(["check", "--state", state]) == 0
    report = capsys.readouterr().out
    assert "status=ok" in report
    assert "commutes_with_s2=true" in report


def _discarded_tower_state():
    """A raw state in a degeneracy tower the embedding drops (k = 1)."""
    lost = sw.decompose_angular_basis(3).towers(1, 2)[1, 0]
    lines = ["kind raw", "spins 3"]
    for a in lost:
        lines.append(f"amp {float(a.real)!r} {float(a.imag)!r}")
    return "\n".join(lines) + "\n"


def test_check_command_discarded_shell_fails(tmp_path, capsys):
    state = _state_file(tmp_path, _discarded_tower_state())
    assert main(["check", "--state", state]) == 1
    report = capsys.readouterr().out
    trace_line = next(l for l in report.splitlines() if l.startswith("represented_trace="))
    assert abs(float(trace_line.split("=")[1])) <= 1e-12
    assert "normalization skipped" in report
    assert "status=fail" in report


def test_check_note_shows_the_represented_trace_it_skips(tmp_path, capsys):
    state = _state_file(tmp_path, "kind operator\nspins 1\nrow -0.5,0 0,0\nrow 0,0 -0.5,0\n")
    main(["check", "--state", state])
    report = capsys.readouterr().out
    assert "represented_trace=-1.000000000000e+00" in report
    assert "note=normalization skipped: represented trace -1.000e+00 is not above 1e-9" in report


def test_analytic_route_falls_back_for_commuting_state_with_cross_shell_terms(tmp_path, capsys):
    # |up,up> plus a 1e-10 singlet: the S^2 residual passes the commutation
    # test, but the cross-shell entries stay above LmDensity's 1e-13 cut
    eps = 1e-10
    amps = (0.0, -eps / math.sqrt(2.0), eps / math.sqrt(2.0), math.sqrt(1.0 - eps * eps))
    state = _state_file(tmp_path, "kind raw\nspins 2\n" + "".join(f"amp {a!r} 0\n" for a in amps))

    def run(method):
        out = tmp_path / f"{method}.csv"
        assert main(["sphere", "--state", state, "--grid", "theta:0:3.14159:5,phi:0:6.28:4",
                     "--out", str(out), "--method", method]) == 0
        lines = out.read_text().splitlines()
        return capsys.readouterr().out, [line for line in lines if not line.startswith("#")]

    report, numeric = run("numeric")
    assert "commutes_with_s2=true" in report and numeric[0] == "theta,phi,value"
    for method in ("analytic", "both"):
        report, data = run(method)
        assert ("note=analytic route fell back to numeric: no closed spherical form for "
                "cross-shell coherences") in report
        assert data == numeric


def test_check_command_nonreducible_operator_fails(tmp_path, capsys):
    state = _state_file(tmp_path, NONREDUCIBLE_OPERATOR)
    assert main(["check", "--state", state]) == 1
    report = capsys.readouterr().out
    assert "commutes_with_s2=false" in report
    assert "status=fail" in report


def test_check_tolerance_override(tmp_path, capsys):
    state = _state_file(tmp_path, CAT5)
    assert main(["check", "--state", state, "--tolerance", "norm=1e-15"]) == 1
    report = capsys.readouterr().out
    assert "status=fail" in report
    with pytest.raises(SystemExit):
        main(["check", "--state", state, "--tolerance"])
    assert main(["check", "--state", state, "--tolerance", "bogus=1"]) == 1


def test_outputs_are_deterministic(tmp_path):
    state = _state_file(tmp_path, CAT5)
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"vol_{tag}.csv")
        assert main(["volume", "--state", state, "--grid",
                     "x1:-3:3:4,x2:-3:3:4,x3:-3:3:4", "--out", out]) == 0
        with open(out, "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("option", [["--threads", "2"], ["--tolerance", "norm=1e-15"]],
                         ids=["threads", "tolerance"])
def test_removed_grid_options_are_usage_errors(tmp_path, option):
    state = _state_file(tmp_path, FOCK5_2)
    out = tmp_path / "vol.csv"
    with pytest.raises(SystemExit):
        main(["volume", "--state", state, "--grid", "x1:-3:3:5,x2:-3:3:5,x3:-3:3:5",
              "--out", str(out), *option])
    assert not out.exists()


@pytest.mark.parametrize("beta", ["1e6", "1e308"])
def test_huge_squeezing_refused_quickly(tmp_path, capsys, beta):
    state = _state_file(tmp_path, f"kind squeezed\nspins 5\nbeta {beta} 0\n")
    started = time.perf_counter()
    assert main(["check", "--state", state]) == 3
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Taylor steps" in err and "1024" in err
    assert "Traceback" not in err


def test_missing_state_file_exit_code(tmp_path, capsys):
    assert main(["check", "--state", str(tmp_path / "absent.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_oversize_grid_exit_code(tmp_path, capsys):
    state = _state_file(tmp_path, UP_ONE_SPIN)
    code = main(["volume", "--state", state, "--grid",
                 "x1:0:1:200,x2:0:1:200,x3:0:1:200",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_oversize_samples_refused_before_the_push(tmp_path, capsys):
    state = _state_file(tmp_path, CAT5)
    tracemalloc.start()
    try:
        code = main(["check", "--state", state, "--samples", "1000001"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--samples" in err and "Traceback" not in err
    assert peak < 8e6  # the fiber check takes about 150 B per sample


@pytest.mark.parametrize("method", ["numeric", "analytic", "both"])
@pytest.mark.parametrize("theta", ["0:6.5", "-0.5:1"])
def test_sphere_grid_theta_outside_zero_pi_is_refused(tmp_path, capsys, method, theta):
    out = tmp_path / "sph.csv"
    code = main(["sphere", "--state", _state_file(tmp_path, CAT5), "--grid",
                 f"theta:{theta}:5,phi:0:1:3", "--out", str(out), "--method", method])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "theta" in err and "Traceback" not in err
    assert not out.exists()


def test_non_finite_value_refused_without_output(tmp_path, monkeypatch, capsys):
    import spinwigner.cli as cli

    def nan_values(density, x1, x2, x3):
        vals = np.zeros(np.shape(x1))
        vals[0] = math.nan
        return vals

    monkeypatch.setattr(cli, "reduced_wigner_many", nan_values)
    state = _state_file(tmp_path, UP_ONE_SPIN)
    out = tmp_path / "nan.csv"
    code = main(["volume", "--state", state, "--grid",
                 "x1:-1:1:3,x2:-1:1:3,x3:-1:1:3", "--out", str(out)])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def _raw_component(weight, vec):
    return f"component {weight!r} raw " + " ".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in vec)


def test_non_commuting_raw_mixture_residual_and_refusal(tmp_path, capsys):
    # unequal weights keep the cross-shell coherence of (uu +- singlet)/sqrt2
    up = np.array([0, 0, 0, 1], dtype=complex)
    singlet = np.array([0, -1, 1, 0], dtype=complex) / ROOT2
    text = "\n".join(["kind mixture", "spins 2",
                      _raw_component(0.6, (up + singlet) / ROOT2),
                      _raw_component(0.4, (up - singlet) / ROOT2)]) + "\n"
    mix = sw.realize_operator(parse_state_text(text))
    rho = np.asarray(mix)
    s2 = sw.total_spin_squared(2).matrix
    dense = float(np.max(np.abs(rho @ s2 - s2 @ rho)))
    assert dense > 0.1
    om = sw.construct_omega(sw.decompose_angular_basis(2))
    assert abs(sw.push_density(om, mix).s2_residual - dense) <= 1e-12

    out = tmp_path / "vol.csv"
    code = main(["volume", "--state", _state_file(tmp_path, text), "--grid",
                 "x1:-1:1:3,x2:-1:1:3,x3:-1:1:3", "--out", str(out)])
    assert code == 1
    assert "plane4d" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("weights", [(-0.2, 1.2), (0.5, 0.6)])
def test_invalid_mixture_weights_exit_without_output(tmp_path, capsys, weights):
    text = (f"kind mixture\nspins 5\ncomponent {weights[0]!r} coherent 0 0\n"
            f"component {weights[1]!r} cat\n")
    out = tmp_path / "vol.csv"
    code = main(["volume", "--state", _state_file(tmp_path, text), "--grid",
                 "x1:-1:1:3,x2:-1:1:3,x3:-1:1:3", "--out", str(out)])
    assert code == 1
    assert "weight" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, grid_text, chunk", [
    ("plane4d", "q1:-1:1:3,p1:-2:2:3", 4),  # chunks of 4, 4 and 1 rows
    ("volume", "x1:-4:4:5,x2:-1:1:3,x3:0:2:2", 7),
    ("sphere", "theta:0:3.14:3,phi:0:6.28:2731", None),  # one row past 8192
], ids=["plane4d-1-row-chunk", "volume-chunk-7", "sphere-default-chunk"])
def test_grid_writer_matches_reference_formatting(tmp_path, monkeypatch, kind, grid_text, chunk):
    import spinwigner.cli as cli

    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK", chunk)
    grid = parse_grid(kind, grid_text)
    mesh = [g.ravel() for g in np.meshgrid(*(a.points() for a in grid.axes), indexing="ij")]
    rng = np.random.default_rng(len(mesh[0]))
    values = [rng.normal(size=mesh[0].size) * 10.0 ** rng.integers(-320, 300, size=mesh[0].size)
              for _ in range(2)]
    values[0][:8] = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, -1 / 3]
    values[1][-1] = -0.0
    out = tmp_path / "grid.csv"
    cli._write_grid(str(out), ["head one", "head two"], grid, ["u", "v"], values)

    names = [a.name for a in grid.axes] + ["u", "v"]
    expect = "# head one\n# head two\n" + ",".join(names) + "\n" + "".join(
        ",".join(f"{v:.12e}" for v in row) + "\n" for row in zip(*mesh, *values))
    assert out.read_bytes() == expect.encode()


def test_sphere_normalization_failure_writes_no_file(tmp_path, monkeypatch, capsys):
    import spinwigner.cli as cli

    def failing(density):
        raise sw.NumericError("normalization failed on purpose")

    monkeypatch.setattr(cli, "sphere_normalization", failing)
    out = tmp_path / "sph.csv"
    code = main(["sphere", "--state", _state_file(tmp_path, CAT5), "--grid",
                 "theta:0:3.14:3,phi:0:6.28:4", "--out", str(out), "--method", "analytic"])
    assert code == 2
    assert "on purpose" in capsys.readouterr().err
    assert not out.exists()


VOLUME_3 = "x1:-1:1:3,x2:-1:1:3,x3:-1:1:3"


def _mixture_text(*components):
    return "kind mixture\nspins 3\n" + "".join(f"component {c}\n" for c in components)


@pytest.mark.parametrize("text, command, extra, code, names", [
    (_mixture_text("0.5 fock 2.5", "0.5 cat"), "volume", [], 1, "component 1 excitations"),
    (_mixture_text("0.5 coherent abc 0", "0.5 cat"), "volume", [], 1, "component 1 theta"),
    (_mixture_text("nan cat"), "volume", [], 1, "component 1 weight"),
    (_mixture_text("0.5 cat", "0.5 fock 1 2"), "volume", [], 1, "component 2"),
    ("kind fock\nspins 3\nexcitations 2.5\n", "volume", [], 1, "excitations"),
    ("kind cat\nspins\n", "volume", [], 1, "spins"),
    ("kind\nspins 3\n", "volume", [], 1, "kind"),
    ("kind coherent\nspins 3\ntheta nan\nphi 0\n", "volume", [], 1, "theta"),
    ("kind squeezed\nspins 3\nbeta nan 0\n", "volume", [], 1, "beta"),
    ("kind raw\nspins 1\namp 1 0\namp 0 1e400\n", "volume", [], 1, "raw state"),
    ("kind cat\nspins 3\n", "plane4d", ["--fix", "q2=nan"], 1, "--fix q2"),
    ("kind cat\nspins 3\n", "plane4d", ["--fix", "q2=0.5,q2=-0.5"], 1, "--fix: 'q2'"),
    ("kind cat\nspins 3\n", "check", ["--tolerance", "norm=-1"], 1, "tolerance norm"),
    (None, "check", ["--tolerance", "trace=nan"], 1, "tolerance trace"),
    ("kind cat\nspins 3\n", "check", ["--tolerance", "fiber=1e-30,fiber=1"], 1,
     "--tolerance: 'fiber'"),
    ("kind cat\nspins 3\n", "check", ["--samples", "2.5"], 1, "--samples"),
    ("kind cat\nspins 3\n", "check", ["--samples", "0"], 1, "--samples"),
    ("kind cat\nspins 2\nspins 3\n", "volume", [], 1, "'spins'"),
    ("kind coherent\nspins 3\ntheta 0.1\ntheta 2.0\nphi 0\n", "check", [], 1, "'theta'"),
    ("kind squeezed\nspins 3\nbeta 0.2 0\nbase_thetaa 1.2\n", "volume", [], 1, "'base_thetaa'"),
    ("kind coherent\nspins 1\ntheta 0\nphi 0\namp 1 0\namp 0 0\n", "check", [], 1, "'amp'"),
    ("kind coherent\nspins 1\ntheta 0\nphi 0\nrow 1,0 0,0\n", "volume", [], 1, "'row'"),
    ("kind coherent\nspins 3\ntheta 0\nphi 0\ncomponent 1 cat\n", "check", [], 1,
     "'component'"),
], ids=["component-fock-2.5", "component-coherent-abc", "component-weight-nan",
        "second-component-arity", "excitations-2.5", "spins-empty", "kind-empty", "theta-nan",
        "beta-nan", "amp-1e400", "fix-nan", "fix-twice", "tolerance-negative",
        "tolerance-trace-nan", "tolerance-twice",
        "samples-2.5", "samples-zero", "spins-twice", "theta-twice", "squeezed-key-typo",
        "coherent-amp", "coherent-row", "coherent-component"])
def test_malformed_input_exits_with_error_line(tmp_path, capsys, text, command, extra,
                                               code, names):
    # the discarded-tower state fails its trace check, so a NaN tolerance
    # that compared as "within" would turn it into status=ok
    state = _state_file(tmp_path, _discarded_tower_state() if text is None else text)
    out = tmp_path / "out.csv"
    argv = [command, "--state", state] + extra
    if command != "check":
        grid = VOLUME_3 if command == "volume" else "q1:-1:1:3,p1:-1:1:3"
        argv += ["--grid", grid, "--out", str(out)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and names in captured.err
    assert "Traceback" not in captured.err and "status=" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("text, code", [
    ("kind cat\nspins 13\n", 3),
    ("kind fock\nspins 22\nexcitations 2\n", 3),
    ("kind cat\nspins 22\n", 3),
    ("kind fock\nspins 40\nexcitations 1\n", 3),
    ("kind raw\nspins 20000\namp 1 0\n", 3),
    ("kind cat\nspins 0\n", 1),
    ("kind cat\nspins -4\n", 1),
], ids=["cat-13", "fock-22", "cat-22", "fock-40", "raw-20000", "zero", "negative"])
def test_spin_count_checked_before_allocation(tmp_path, capsys, text, code):
    state = _state_file(tmp_path, text)
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        result = main(["volume", "--state", state, "--grid", VOLUME_3, "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == code
    err = capsys.readouterr().err
    assert err.startswith("error: spin") and "Traceback" not in err
    assert peak < 8e6  # a 2^22 amplitude vector alone is 67 MB
    assert not out.exists()


_KEYS = ("kind", "spins", "excitations", "theta", "phi", "beta", "base_theta", "base_phi",
         "amp", "row", "component", "unknown")
_KINDS = ("fock", "coherent", "cat", "squeezed", "mixture", "raw", "operator", "nebula")
_NUMBERS = ("nan", "inf", "-inf", "1e400", "2.5", "-1", "0", "1", "2", "2.0", "13", "3x", "")
_TOKENS = _KINDS + _NUMBERS + ("0.5", "1,0", "0,nan", "1,", "0.7071067811865476")


def _line(key, tokens):
    return st.lists(st.sampled_from(tokens), max_size=4).map(lambda vals: " ".join([key, *vals]))


@settings(max_examples=200, deadline=None)
@given(kind=_line("kind", _KINDS + ("",)), spins=_line("spins", _NUMBERS),
       rest=st.lists(st.sampled_from(_KEYS).flatmap(lambda key: _line(key, _TOKENS)), max_size=6))
def test_parse_state_text_raises_only_documented_errors(kind, spins, rest):
    try:
        spec = parse_state_text("\n".join([kind, spins, *rest]))
    except (sw.ValidationError, sw.CapacityError):
        return
    assert isinstance(spec, sw.StateSpec)
