import numpy as np
import pytest
from numpy.testing import assert_allclose

from femchp.cli import (
    CSV_HEADER_COMMENT,
    EXIT_CLAIM_FAILED,
    EXIT_HYPOTHESIS,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
    parse_bc,
    parse_experiment_spec,
    parse_source,
)
from femchp import cli, convex
from femchp.field import NodalField, load_field, save_field
from femchp.mesh import build_structured_mesh, load_mesh, save_mesh
from femchp.verify import verify_lemma_pos


def test_mesh_gen_roundtrip(tmp_path):
    out = tmp_path / "eq4.mesh"
    assert main(["mesh-gen", "--generator", "equilateral2d", "-n", "4",
                 "--out", str(out)]) == EXIT_OK
    mesh = load_mesh(str(out))
    ref = build_structured_mesh("equilateral2d", 4)
    assert mesh.num_vertices == ref.num_vertices
    assert mesh.num_elements == ref.num_elements


def test_mesh_gen_unknown_generator_is_usage_error(tmp_path):
    # argparse enforces the generator choices itself
    with pytest.raises(SystemExit) as exc:
        main(["mesh-gen", "--generator", "zigzag", "-n", "2",
              "--out", str(tmp_path / "x.mesh")])
    assert exc.value.code == 2


def test_mesh_info_output(tmp_path, capsys):
    out = tmp_path / "eq4.mesh"
    main(["mesh-gen", "--generator", "equilateral2d", "-n", "4", "--out", str(out)])
    capsys.readouterr()
    assert main(["mesh-info", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "mesh_class = acute" in text
    assert "vertices = 23" in text
    assert "every_element_touches_interior = True" in text
    # K[z, y] / K[z, z] = -(2 cot 60 / 2) / (6 cot 60) on equilateral triangles
    name, eq, x, *rest = text.splitlines()[-1].split()
    assert (name, eq, rest) == ("max_interior_coupling", "=", ["(z-matrix", "rows", "when", "<=", "0)"])
    assert_allclose(float(x), -1.0 / 6.0, rtol=1e-14)
    # the stiffness test answers in 3D too; right angles couple by exactly 0
    for gen, n in (("kuhn3d", "3"), ("kuhn3d", "6"), ("crisscross2d", "3")):
        main(["mesh-gen", "--generator", gen, "-n", n, "--out", str(out)])
        capsys.readouterr()
        assert main(["mesh-info", str(out)]) == EXIT_OK
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "max_interior_coupling = 0 (z-matrix rows when <= 0)", f"{gen}:{n}"


def test_mesh_info_missing_file(tmp_path):
    assert main(["mesh-info", str(tmp_path / "nope.mesh")]) == EXIT_INPUT


def _mesh_file(tmp_path, generator, n):
    path = tmp_path / f"{generator}{n}.mesh"
    save_mesh(build_structured_mesh(generator, n), str(path))
    return str(path)


@pytest.fixture()
def r2_mesh(tmp_path):
    return _mesh_file(tmp_path, "right2d", 2)


def test_solve_affine_matches_interpolant(tmp_path, capsys):
    out = tmp_path / "u.field"
    rc = main(["solve", "--mesh", _mesh_file(tmp_path, "equilateral2d", 4),
               "--energy", "p-laplace:p=3", "--bc", "affine:0.2,0.3,-0.1",
               "--out", str(out)])
    assert rc == EXIT_OK
    # a(0) = 0 for p = 3, so the report names the harmonic start
    assert "start = harmonic" in capsys.readouterr().out.splitlines()
    mesh = build_structured_mesh("equilateral2d", 4)
    values, _ = load_field(str(out), mesh)
    exact = 0.2 + mesh.vertices @ np.array([0.3, -0.1])
    assert_allclose(values[:, 0], exact, atol=1e-10)


def test_solve_unknown_energy(r2_mesh):
    assert main(["solve", "--mesh", r2_mesh,
                 "--energy", "bilaplacian", "--bc", "sin-product"]) == EXIT_INPUT


def test_a_solver_runtime_error_exits_as_no_convergence(r2_mesh, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("x")

    monkeypatch.setattr(cli, "minimize", fail)
    assert main(["solve", "--mesh", r2_mesh,
                 "--bc", "sin-product"]) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == "error: x\n"


def test_solve_needs_mesh(tmp_path, capsys):
    # argparse refuses a solve without --mesh, as it does a verify
    for argv in (["solve", "--bc", "sin-product"],
                 ["verify", "--theorem", "chp", "--field", str(tmp_path / "u.field")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        assert "the following arguments are required: --mesh" in capsys.readouterr().err
    # the generator options are gone: mesh-gen is their one front end
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--generator", "right2d", "-n", "2", "--bc", "sin-product"])
    assert exc.value.code == EXIT_INPUT


def test_solve_bad_bc_and_source(r2_mesh):
    assert main(["solve", "--mesh", r2_mesh,
                 "--bc", "affine:"]) == EXIT_INPUT
    assert main(["solve", "--mesh", r2_mesh,
                 "--bc", "sin-product", "--source", "weird:1"]) == EXIT_INPUT
    # a lumped exponent of 0 is rejected like any other q < 2, not dropped
    for q in ("0", "1"):
        assert main(["solve", "--mesh", r2_mesh,
                     "--bc", "sin-product", "--lumped-q", q]) == EXIT_INPUT


def test_non_finite_term_parameters_are_input_errors(tmp_path, capsys):
    # a NaN or infinite source and q = inf are refused: not a DMP verdict,
    # not a pass, and not a line search that fails on a NaN slope
    mesh, field = str(tmp_path / "r4.mesh"), str(tmp_path / "u.field")
    save_mesh(build_structured_mesh("right2d", 4), mesh)
    bc = ["--bc", "random:seed=1,lo=-1,hi=1"]
    assert main(["solve", "--mesh", mesh, "--energy", "p-laplace:p=2", *bc,
                 "--out", field]) == EXIT_OK
    capsys.readouterr()
    verify_dmp = ["verify", "--theorem", "dmp", "--mesh", mesh, "--field", field]
    for argv, message in (
            (verify_dmp + ["--source", "const:nan"], "source values must be finite"),
            (verify_dmp + ["--source", "const:-inf"], "source values must be finite"),
            (["solve", "--mesh", mesh, "--energy", "p-laplace:p=2", *bc,
              "--source", "const:nan"], "source values must be finite"),
            (["solve", "--mesh", mesh, "--energy", "p-laplace:p=3", *bc,
              "--lumped-q", "inf"], "lumped exponent must satisfy 2 <= q < inf, got inf")):
        assert main(argv) == EXIT_INPUT, argv
        assert message in capsys.readouterr().err


def test_solve_rejects_a_bad_cap_or_tolerance(r2_mesh, capsys):
    for opt, value in (("--max-iters", "-1"), ("--tol", "-1"), ("--tol", "nan")):
        assert main(["solve", "--mesh", r2_mesh,
                     "--bc", "sin-product", opt, value]) == EXIT_INPUT
        assert "must be" in capsys.readouterr().err


def test_solve_rejects_abs_distance_center_of_wrong_length(r2_mesh, capsys):
    for center in ("0.5", "0.5,0.5,0.5"):
        assert main(["solve", "--mesh", r2_mesh,
                     "--bc", f"abs-distance:{center}"]) == EXIT_INPUT
        assert "mesh has dimension 2" in capsys.readouterr().err


def test_solve_steep_energy_reports_no_convergence(tmp_path):
    # the default tolerance sits below the floating point residual floor of
    # this energy on random data, so the solver stops without converging
    rc = main(["solve", "--mesh", _mesh_file(tmp_path, "right2d", 8),
               "--energy", "p-laplace:p=10", "--bc", "random:seed=3,lo=-1,hi=1",
               "--m", "2"])
    assert rc == EXIT_NO_CONVERGENCE


def test_solve_coeff_plumbing(tmp_path, r2_mesh):
    mesh = build_structured_mesh("right2d", 2)
    uniform = tmp_path / "u.field"
    weighted = tmp_path / "w.field"
    coeff = tmp_path / "c.txt"
    coeff.write_text("\n".join(str(0.5 + 0.25 * k) for k in range(mesh.num_elements)))

    argv = ["solve", "--mesh", r2_mesh, "--bc", "random:seed=5,lo=0,hi=1"]
    assert main(argv + ["--out", str(uniform)]) == EXIT_OK
    assert main(argv + ["--coeff", str(coeff), "--out", str(weighted)]) == EXIT_OK
    u, _ = load_field(str(uniform), mesh)
    w, _ = load_field(str(weighted), mesh)
    assert np.abs(u - w).max() > 1e-6   # variable weights move the minimiser

    short = tmp_path / "short.txt"
    short.write_text("1.0 2.0")
    assert main(argv + ["--coeff", str(short)]) == EXIT_INPUT


def test_solve_refuses_a_non_finite_coefficient(tmp_path, r2_mesh, capsys):
    # an infinite c_T is an input error, like NaN, not a non-finite energy
    for bad in ("inf", "nan"):
        coeff = tmp_path / f"{bad}.txt"
        coeff.write_text(" ".join(["1.0"] * 7 + [bad]))
        assert main(["solve", "--mesh", r2_mesh, "--bc", "random:seed=1",
                     "--coeff", str(coeff)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: element coefficients must be finite and positive\n")


def test_solve_refuses_nodal_data_longer_than_the_mesh(tmp_path, r2_mesh, capsys):
    big = tmp_path / "big.field"
    mesh = build_structured_mesh("right2d", 4)
    save_field(NodalField(mesh, np.zeros((mesh.num_vertices, 1))), str(big))
    assert main(["solve", "--mesh", r2_mesh, "--bc", f"file:{big}"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: nodal data has 25 rows, mesh has 9 vertices\n"


@pytest.fixture()
def solved_pair(tmp_path):
    mesh_path = tmp_path / "r4.mesh"
    field_path = tmp_path / "u.field"
    main(["mesh-gen", "--generator", "right2d", "-n", "4", "--out", str(mesh_path)])
    rc = main(["solve", "--mesh", str(mesh_path), "--bc", "random:seed=2,lo=-1,hi=1",
               "--m", "2", "--out", str(field_path)])
    assert rc == EXIT_OK
    return mesh_path, field_path


def test_verify_chp_pass_with_csv(tmp_path, solved_pair):
    mesh_path, field_path = solved_pair
    csv = tmp_path / "rows.csv"
    argv = ["verify", "--theorem", "chp", "--mesh", str(mesh_path),
            "--field", str(field_path), "--csv", str(csv)]
    assert main(argv) == EXIT_OK
    assert main(argv) == EXIT_OK
    lines = csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER_COMMENT   # header written once
    assert len(lines) == 4
    assert all(",CHP,pass," in ln for ln in lines[2:])


def test_verify_chp_claim_failure(tmp_path, solved_pair):
    mesh_path, _ = solved_pair
    mesh = load_mesh(str(mesh_path))
    vals = np.zeros((mesh.num_vertices, 1))
    vals[mesh.interior_nodes[0], 0] = 2.0
    bad = tmp_path / "bad.field"
    save_field(NodalField(mesh, vals), str(bad))
    assert main(["verify", "--theorem", "chp", "--mesh", str(mesh_path),
                 "--field", str(bad)]) == EXIT_CLAIM_FAILED


def test_verify_rejects_a_bad_tolerance(solved_pair, capsys):
    mesh_path, field_path = solved_pair
    for tol in ("nan", "-1", "inf"):
        assert main(["verify", "--theorem", "chp", "--mesh", str(mesh_path),
                     "--field", str(field_path), "--tol", tol]) == EXIT_INPUT
        assert "tol must be a finite number >= 0" in capsys.readouterr().err


def test_an_internal_error_is_not_a_verdict(tmp_path, solved_pair, monkeypatch, capsys):
    # a projection whose certificate fails is a fault of the program, not a
    # failed claim (exit 1); malformed input files stay usage errors
    mesh_path, field_path = solved_pair
    bad = tmp_path / "bad.txt"
    bad.write_text("not a mesh\n")
    for argv in (["--mesh", str(bad), "--field", str(field_path)],
                 ["--mesh", str(mesh_path), "--field", str(bad)]):
        assert main(["verify", "--theorem", "chp"] + argv) == EXIT_INPUT

    def uncertified(G, X):
        raise convex.CertificateError("projection certificate failed for row 0")

    monkeypatch.setattr(convex, "_certified", uncertified)
    capsys.readouterr()
    assert main(["verify", "--theorem", "chp", "--mesh", str(mesh_path),
                 "--field", str(field_path)]) == EXIT_INTERNAL
    assert capsys.readouterr().err == ("internal error: CertificateError: "
                                       "projection certificate failed for row 0\n")


def test_verify_reads_a_given_tolerance(solved_pair, capsys):
    mesh_path, field_path = solved_pair
    assert main(["verify", "--theorem", "chp", "--mesh", str(mesh_path),
                 "--field", str(field_path), "--tol", "1e-3"]) == EXIT_OK
    assert "(tol 1.0e-03)" in capsys.readouterr().out


def test_solve_reads_boundary_data_from_a_field_file(tmp_path, solved_pair):
    # the minimiser's own values as boundary data give the minimiser back
    mesh_path, field_path = solved_pair
    again = tmp_path / "again.field"
    argv = ["solve", "--mesh", str(mesh_path), "--bc", f"file:{field_path}"]
    assert main(argv + ["--m", "2", "--out", str(again)]) == EXIT_OK
    assert np.array_equal(load_field(str(again))[0], load_field(str(field_path))[0])
    assert main(argv + ["--m", "1"]) == EXIT_INPUT     # the file holds 2 components


def test_verify_strong_chp_hypothesis_exit(tmp_path, solved_pair):
    mesh_path, field_path = solved_pair
    rc = main(["verify", "--theorem", "strong-chp", "--mesh", str(mesh_path),
               "--field", str(field_path), "--energy", "p-laplace:p=2"])
    assert rc == EXIT_HYPOTHESIS   # right-angled mesh is not acute


def test_verify_mismatched_field(tmp_path, solved_pair):
    mesh_path, _ = solved_pair
    small = build_structured_mesh("right2d", 2)
    other = tmp_path / "small.field"
    save_field(NodalField(small, np.zeros((small.num_vertices, 1))), str(other))
    assert main(["verify", "--theorem", "chp", "--mesh", str(mesh_path),
                 "--field", str(other)]) == EXIT_INPUT


def test_verify_lemma_pos_interval(tmp_path):
    mesh_path = tmp_path / "r4.mesh"
    field_path = tmp_path / "u.field"
    main(["mesh-gen", "--generator", "right2d", "-n", "4", "--out", str(mesh_path)])
    main(["solve", "--mesh", str(mesh_path), "--bc", "random:seed=1,lo=2,hi=3",
          "--out", str(field_path)])
    assert main(["verify", "--theorem", "lemma-pos", "--mesh", str(mesh_path),
                 "--field", str(field_path), "--interval", "2", "3"]) == EXIT_OK
    assert main(["verify", "--theorem", "lemma-pos", "--mesh", str(mesh_path),
                 "--field", str(field_path), "--interval", "3", "2"]) == EXIT_INPUT
    assert main(["verify", "--theorem", "lemma-pos", "--mesh", str(mesh_path),
                 "--field", str(field_path)]) == EXIT_INPUT


def test_negative_option_values_in_exponent_notation(tmp_path, capsys):
    # argparse before Python 3.13 reads -1e-3 and -1e3 as unknown flags
    mesh_path = tmp_path / "r4.mesh"
    field_path = tmp_path / "u.field"
    main(["mesh-gen", "--generator", "right2d", "-n", "4", "--out", str(mesh_path)])
    main(["solve", "--mesh", str(mesh_path), "--bc", "random:seed=1,lo=2,hi=3",
          "--out", str(field_path)])
    capsys.readouterr()
    assert main(["verify", "--theorem", "lemma-pos", "--mesh", str(mesh_path),
                 "--field", str(field_path), "--interval", "-1e-3", "1"]) == EXIT_OK
    assert "outcome = pass" in capsys.readouterr().out.splitlines()
    assert main(["solve", "--mesh", str(mesh_path), "--bc", "random:seed=1",
                 "--lumped-q", "-1e3"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: lumped exponent must satisfy 2 <= q < inf, got -1000.0\n")


def test_verify_lemma_pos_takes_one_target_set(tmp_path, solved_pair, capsys):
    # lemma-pos checks one target set, so two are a usage error
    mesh_path, field_path = solved_pair
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "lemma-pos", "--mesh", str(mesh_path),
              "--field", str(field_path), "--interval", "-1", "1",
              "--set-file", str(field_path)])
    assert exc.value.code == EXIT_INPUT
    assert "argument --set-file: not allowed with argument --interval" in capsys.readouterr().err


def test_verify_lemma_pos_set_file(tmp_path, solved_pair, capsys):
    # the generators of the target set are the rows of a field-format file
    mesh_path, field_path = solved_pair
    tri = tmp_path / "tri.set"
    tri.write_text("field 2 3\n-0.5 -0.5\n0.5 -0.2\n0 0.6\n")
    capsys.readouterr()
    assert main(["verify", "--theorem", "lemma-pos", "--mesh", str(mesh_path),
                 "--field", str(field_path), "--set-file", str(tri)]) == EXIT_OK
    mesh = load_mesh(str(mesh_path))
    values, _ = load_field(str(field_path), mesh)
    K = convex.finite_hull(load_field(str(tri))[0])
    report = verify_lemma_pos(mesh, NodalField(mesh, values), K)
    assert capsys.readouterr().out == report.to_text() + "\n"


@pytest.fixture(scope="module")
def scalar_p3_pair(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eq8")
    mesh_path, field_path = tmp / "eq8.mesh", tmp / "u.field"
    main(["mesh-gen", "--generator", "equilateral2d", "-n", "8", "--out", str(mesh_path)])
    assert main(["solve", "--mesh", str(mesh_path), "--energy", "p-laplace:p=3",
                 "--bc", "random:seed=1,lo=-1,hi=1", "--out", str(field_path)]) == EXIT_OK
    return mesh_path, field_path


def test_verify_strong_chp_defaults_to_the_dirichlet_energy(scalar_p3_pair, capsys):
    mesh_path, field_path = scalar_p3_pair
    argv = ["verify", "--theorem", "strong-chp", "--mesh", str(mesh_path),
            "--field", str(field_path)]
    assert main(argv) == EXIT_OK
    text = capsys.readouterr().out
    assert main(argv + ["--energy", "p-laplace:p=2"]) == EXIT_OK
    assert capsys.readouterr().out == text
    # the weights, and so the beta identity's rounding, follow the model
    assert main(argv + ["--energy", "p-laplace:p=3"]) == EXIT_OK
    assert capsys.readouterr().out != text


@pytest.mark.parametrize("theorem, read, unread", [
    ("strong-chp", ["--energy", "p-laplace:p=3"], ["--source", "const:-1"]),
    ("chp", [], ["--interval", "0", "1"]),
    ("chp", [], ["--source", "const:-1"]),
    ("dmp", [], ["--energy", "mean-curvature"]),
])
def test_verify_rejects_an_option_the_theorem_does_not_read(scalar_p3_pair, capsys,
                                                           theorem, read, unread):
    mesh_path, field_path = scalar_p3_pair
    argv = ["verify", "--theorem", theorem, "--mesh", str(mesh_path),
            "--field", str(field_path), *read]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert main(argv + unread) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: --theorem {theorem} does not read {unread[0]}\n"


def test_experiment_emit_default(tmp_path, capsys):
    spec = tmp_path / "suite.spec"
    assert main(["experiment", "--emit-default", str(spec)]) == EXIT_OK
    parsed = parse_experiment_spec(spec.read_text())
    assert parsed["generators"][0] == ("right2d", 8)
    assert parsed["theorems"] == ["chp"]


SMALL_SPEC = """\
generators = right2d:2
energies = p-laplace:p=2
bc = random:lo=-1,hi=1
m = 1
seeds = 1, 2
theorems = chp
out = unused.csv
"""


def test_experiment_small_run_is_deterministic(tmp_path, monkeypatch):
    spec = tmp_path / "s.spec"
    spec.write_text(SMALL_SPEC)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["experiment", str(spec), "--out", str(out1)]) == EXIT_OK
    monkeypatch.setenv("FEMCHP_THREADS", "4")
    assert main(["experiment", str(spec), "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == CSV_HEADER_COMMENT
    assert len(lines) == 4   # header, columns, one row per seed
    assert all(",pass," in ln for ln in lines[2:])


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "", "1.5"])
def test_experiment_refuses_a_bad_thread_count(tmp_path, monkeypatch, capsys, threads):
    # read once before any mesh is built; no CSV is written
    def no_mesh(*args):
        raise AssertionError("a mesh was built")

    spec = tmp_path / "s.spec"
    spec.write_text(SMALL_SPEC)
    out = tmp_path / "rows.csv"
    monkeypatch.setenv("FEMCHP_THREADS", threads)
    monkeypatch.setattr(cli, "build_structured_mesh", no_mesh)
    assert main(["experiment", str(spec), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: FEMCHP_THREADS must be an integer >= 1, got {threads!r}\n")
    assert not out.exists()


THREADED_SPECS = {
    "chp-lemma-strong": (
        "generators = equilateral2d:4, right2d:4\n"
        "energies = p-laplace:p=2, p-laplace:p=3\n"
        "bc = random:lo=-1,hi=1\n"
        "m = 1, 2\n"
        "seeds = 1, 2\n"
        "theorems = chp, lemma-pos, strong-chp\n", 48),
    "dmp": (
        "generators = right2d:4\n"
        "energies = p-laplace:p=2\n"
        "bc = random:lo=-1,hi=1\n"
        "m = 1\n"
        "seeds = 1, 2\n"
        "theorems = dmp\n"
        "source = const:-1\n", 2),
    "hull0": (
        "generators = right2d:4\n"
        "energies = p-laplace:p=2\n"
        "bc = random:lo=2,hi=3\n"
        "m = 1, 2\n"
        "seeds = 1, 2\n"
        "theorems = hull0\n"
        "lumped_q = 2\n", 4),
}


@pytest.mark.parametrize("name", sorted(THREADED_SPECS))
def test_experiment_checks_every_theorem_in_the_pool(tmp_path, monkeypatch, name):
    # each combination is solved and checked in a worker thread; the rows,
    # strong-chp's lazily built pattern included, match the serial run's bytes
    text, n_rows = THREADED_SPECS[name]
    spec = tmp_path / "s.spec"
    spec.write_text(text)
    serial, threaded = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    monkeypatch.delenv("FEMCHP_THREADS", raising=False)
    assert main(["experiment", str(spec), "--out", str(serial)]) == EXIT_OK
    monkeypatch.setenv("FEMCHP_THREADS", "4")
    assert main(["experiment", str(spec), "--out", str(threaded)]) == EXIT_OK
    assert serial.read_bytes() == threaded.read_bytes()
    assert len(serial.read_text().splitlines()) == 2 + n_rows


@pytest.mark.parametrize("extra, code, outcome", [
    # the start, zero inside data in [2, 3]^2, is accepted and fails CHP
    ("energies = mean-curvature\nbc = random:lo=2,hi=3\nsolver_tol = 1e3\n",
     EXIT_CLAIM_FAILED, "fail"),
    # no iteration allowed: CHP holds at the start, but the solve did not converge
    ("energies = p-laplace:p=3\nbc = random:lo=-1,hi=1\nmax_iters = 0\n",
     EXIT_NO_CONVERGENCE, "pass"),
])
def test_experiment_exit_codes(tmp_path, extra, code, outcome):
    spec = tmp_path / "s.spec"
    spec.write_text("generators = right2d:4\nm = 2\nseeds = 1\ntheorems = chp\n" + extra)
    out = tmp_path / "rows.csv"
    assert main(["experiment", str(spec), "--out", str(out)]) == code
    row = out.read_text().splitlines()[2].split(",")
    assert row[8] == str(code != EXIT_NO_CONVERGENCE) and row[9] == "0"
    assert row[13] == outcome


def test_verify_row_matches_experiment_row(tmp_path, solved_pair):
    mesh_path, field_path = solved_pair
    verify_csv, experiment_csv = tmp_path / "verify.csv", tmp_path / "experiment.csv"
    assert main(["verify", "--theorem", "chp", "--mesh", str(mesh_path),
                 "--field", str(field_path), "--csv", str(verify_csv)]) == EXIT_OK
    spec = tmp_path / "s.spec"
    spec.write_text("generators = right2d:4\n"
                    "energies = p-laplace:p=2\n"
                    "bc = random:lo=-1,hi=1\n"
                    "m = 2\n"
                    "seeds = 2\n"
                    "theorems = chp\n")
    assert main(["experiment", str(spec), "--out", str(experiment_csv)]) == EXIT_OK
    (v_row,) = [ln.split(",") for ln in verify_csv.read_text().splitlines()[2:]]
    (e_row,) = [ln.split(",") for ln in experiment_csv.read_text().splitlines()[2:]]
    filled = (5, 6, 7, 12, 13, 14, 15)   # vertices .. mesh_class, theorem .. tol
    assert len(v_row) == len(e_row) == 16
    assert [v_row[i] for i in filled] == [e_row[i] for i in filled]
    assert all(v_row[i] == "" for i in range(16) if i not in filled)


def test_experiment_gates_lemma_pos_on_obtuse_mesh(tmp_path):
    spec = tmp_path / "s.spec"
    spec.write_text(
        "generators = obtuse2d:4\n"
        "energies = p-laplace:p=2\n"
        "bc = random:lo=-1,hi=1\n"
        "m = 2\n"
        "seeds = 1\n"
        "theorems = lemma-pos\n"
    )
    out = tmp_path / "rows.csv"
    assert main(["experiment", str(spec), "--out", str(out)]) == EXIT_OK
    rows = out.read_text().splitlines()[2:]
    assert rows and all(",hypothesis-not-met," in ln for ln in rows)


def test_experiment_with_fixed_boundary_data_repeats_over_seeds(tmp_path):
    # only random data draws from the seed: sin-product rows differ in the
    # seed column alone
    spec = tmp_path / "s.spec"
    spec.write_text(SMALL_SPEC.replace("bc = random:lo=-1,hi=1", "bc = sin-product")
                    .replace("seeds = 1, 2", "seeds = 1, 2, 7").replace("m = 1", "m = 1, 2"))
    out = tmp_path / "rows.csv"
    assert main(["experiment", str(spec), "--out", str(out)]) == EXIT_OK
    rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
    assert len(rows) == 6
    for m in ("1", "2"):
        per_seed = [r for r in rows if r[3] == m]
        assert [r[4] for r in per_seed] == ["1", "2", "7"]
        assert all(r[:4] + r[5:] == per_seed[0][:4] + per_seed[0][5:] for r in per_seed)


def test_experiment_spec_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    empty = tmp_path / "e.spec"
    empty.write_text("generators = right2d:2\nenergies =\nbc = sin-product\n")
    assert main(["experiment", str(empty)]) == EXIT_INPUT
    assert main(["experiment"]) == EXIT_INPUT   # no spec, no --emit-default
    with pytest.raises(ValueError):
        parse_experiment_spec("generators = right2d:2\nbc = sin-product\n")
    with pytest.raises(ValueError):
        parse_experiment_spec(SMALL_SPEC + "seeds = 9\n")   # duplicate key
    with pytest.raises(ValueError):
        parse_experiment_spec(SMALL_SPEC.replace("chp", "decay"))
    with pytest.raises(ValueError):
        parse_experiment_spec(SMALL_SPEC.replace("m = 1", "m = 2")
                              .replace("theorems = chp", "theorems = dmp"))
    # lumped_q = 0 is a lumped term with a bad exponent, not no lumped term
    with pytest.raises(ValueError):
        parse_experiment_spec(SMALL_SPEC.replace("theorems = chp", "theorems = strong-chp")
                              + "lumped_q = 0\n")
    for key in ("solver_tol", "verify_tol"):
        for value in ("nan", "-1", "inf", "tiny"):
            line = len(SMALL_SPEC.splitlines()) + 1
            with pytest.raises(ValueError, match=f"spec line {line}: "):
                parse_experiment_spec(SMALL_SPEC + f"{key} = {value}\n")
    for text, message in (
            ("generators right2d:2", "spec line 2: expected 'key = value'"),
            ("= right2d:2", "spec line 2: expected 'key = value'"),
            ("meshes = right2d:2", "spec line 2: unknown key 'meshes'"),
            ("generators = zigzag:2", "spec line 2: unknown generator 'zigzag'"),
            ("generators = right2d:two", "spec line 2: bad resolution in 'right2d:two'")):
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_experiment_spec("# a comment line\n" + text + "\n")
    # a value that fails to parse names its line, whatever its key
    for text in ("m = two", "energies = foo", "bc = nope", "seeds = 1,,2",
                 "lumped_q = abc", "max_iters = 1.5"):
        with pytest.raises(ValueError, match="^spec line 2: "):
            parse_experiment_spec("# a comment line\n" + text + "\n")
    zero_q = tmp_path / "q.spec"
    zero_q.write_text(SMALL_SPEC + "lumped_q = 0\n")
    assert main(["experiment", str(zero_q)]) == EXIT_INPUT


def test_parse_bc_forms():
    assert parse_bc("affine:1,2,0.5").kind == "affine"
    assert parse_bc("sin-product").kind == "sin-product"
    assert parse_bc("abs-distance:0.25,0.25").kind == "abs-distance"
    assert parse_bc("random:seed=7,lo=0,hi=2").params["seed"] == 7
    # bare random, and empty parts, take the defaults seed 0 and [-1, 1]
    for text in ("random", "random:", "random:seed=1,", "random:,lo=-1"):
        params = parse_bc(text).params
        assert (params["lo"], params["hi"]) == (-1.0, 1.0)
        assert params["seed"] == (1 if "seed" in text else 0)
    for bad in ("affine:", "affine:1", "sin-product:3", "random:speed=1",
                "random:seed", "file:", "polynomial:2"):
        with pytest.raises(ValueError):
            parse_bc(bad)
    with pytest.raises(ValueError, match="affine rows disagree on the spatial dimension"):
        parse_bc("affine:1,2,0.5;0,1")


def test_parse_source_forms(tmp_path, right2d_n2):
    src = parse_source("const:-1.5", right2d_n2)
    assert_allclose(src.values, -1.5)
    path = tmp_path / "f.txt"
    path.write_text(" ".join(["-1.0"] * right2d_n2.num_elements))
    src = parse_source(f"file:{path}", right2d_n2)
    assert src.values.shape == (right2d_n2.num_elements,)
    with pytest.raises(ValueError):
        parse_source("ramp:1", right2d_n2)
    path.write_text("1.0 nope")
    with pytest.raises(ValueError):
        parse_source(f"file:{path}", right2d_n2)
