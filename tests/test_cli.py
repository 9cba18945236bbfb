import numpy as np
import pytest
from numpy.testing import assert_allclose

from femchp.cli import (
    CSV_HEADER_COMMENT,
    EXIT_CLAIM_FAILED,
    EXIT_HYPOTHESIS,
    EXIT_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
    parse_bc,
    parse_experiment_spec,
    parse_source,
)
from femchp.field import NodalField, load_field, save_field
from femchp.mesh import build_structured_mesh, load_mesh, save_mesh


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


def test_mesh_info_missing_file(tmp_path):
    assert main(["mesh-info", str(tmp_path / "nope.mesh")]) == EXIT_INPUT


def test_solve_affine_matches_interpolant(tmp_path):
    out = tmp_path / "u.field"
    rc = main(["solve", "--generator", "equilateral2d", "-n", "4",
               "--energy", "p-laplace:p=3", "--bc", "affine:0.2,0.3,-0.1",
               "--out", str(out)])
    assert rc == EXIT_OK
    mesh = build_structured_mesh("equilateral2d", 4)
    values, _ = load_field(str(out), mesh)
    exact = 0.2 + mesh.vertices @ np.array([0.3, -0.1])
    assert_allclose(values[:, 0], exact, atol=1e-10)


def test_solve_unknown_energy(tmp_path):
    assert main(["solve", "--generator", "right2d", "-n", "2",
                 "--energy", "bilaplacian", "--bc", "sin-product"]) == EXIT_INPUT


def test_solve_needs_mesh_or_generator():
    assert main(["solve", "--bc", "sin-product"]) == EXIT_INPUT


def test_solve_bad_bc_and_source(tmp_path):
    assert main(["solve", "--generator", "right2d", "-n", "2",
                 "--bc", "affine:"]) == EXIT_INPUT
    assert main(["solve", "--generator", "right2d", "-n", "2",
                 "--bc", "sin-product", "--source", "weird:1"]) == EXIT_INPUT
    # a lumped exponent of 0 is rejected like any other q < 2, not dropped
    for q in ("0", "1"):
        assert main(["solve", "--generator", "right2d", "-n", "2",
                     "--bc", "sin-product", "--lumped-q", q]) == EXIT_INPUT


def test_solve_steep_energy_reports_no_convergence():
    # the default tolerance sits below the floating point residual floor of
    # this energy on random data, so the solver stops without converging
    rc = main(["solve", "--generator", "right2d", "-n", "8",
               "--energy", "p-laplace:p=10", "--bc", "random:seed=3,lo=-1,hi=1",
               "--m", "2"])
    assert rc == EXIT_NO_CONVERGENCE


def test_solve_coeff_plumbing(tmp_path):
    mesh = build_structured_mesh("right2d", 2)
    uniform = tmp_path / "u.field"
    weighted = tmp_path / "w.field"
    coeff = tmp_path / "c.txt"
    coeff.write_text("\n".join(str(0.5 + 0.25 * k) for k in range(mesh.num_elements)))

    argv = ["solve", "--generator", "right2d", "-n", "2",
            "--bc", "random:seed=5,lo=0,hi=1"]
    assert main(argv + ["--out", str(uniform)]) == EXIT_OK
    assert main(argv + ["--coeff", str(coeff), "--out", str(weighted)]) == EXIT_OK
    u, _ = load_field(str(uniform), mesh)
    w, _ = load_field(str(weighted), mesh)
    assert np.abs(u - w).max() > 1e-6   # variable weights move the minimiser

    short = tmp_path / "short.txt"
    short.write_text("1.0 2.0")
    assert main(argv + ["--coeff", str(short)]) == EXIT_INPUT


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
