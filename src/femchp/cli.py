"""Command line front end.

Subcommands: mesh-gen, mesh-info, solve, verify, experiment.  Exit codes:
0 success, 1 a verified claim failed, 2 input/usage error, 3 the solver did
not converge, 4 a structural hypothesis of the checked claim is not met,
5 an internal error (a failed projection certificate, or any other
exception), which is no verdict on the claim.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .mesh import (Mesh, GENERATORS, _check_tol, _max_coupling, build_structured_mesh,
                   load_mesh, save_mesh)
from .field import NodalField, BoundaryData, load_field, save_field
from .energy import parse_energy, SourceTerm, LumpedTerm
from .solver import minimize
from . import verify as verify_mod
from . import convex

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_HYPOTHESIS = 4
EXIT_INTERNAL = 5

CSV_HEADER_COMMENT = "# femchp-results v1"
CSV_COLUMNS = (
    "generator,resolution,energy,m,seed,vertices,elements,mesh_class,"
    "converged,iterations,residual,energy_value,theorem,outcome,violation,tol"
)

# theorem -> (checker, the one extra input it takes)
_THEOREMS = {
    "chp": (verify_mod.verify_chp, None),
    "dmp": (verify_mod.verify_dmp, "source"),
    "hull0": (verify_mod.verify_hull_with_zero, None),
    "strong-chp": (verify_mod.verify_strong_chp, "model"),
    "lemma-pos": (verify_mod.verify_lemma_pos, "K"),
}
# verify option -> the extra input it supplies
_OPTION_INPUT = {"--source": "source", "--energy": "model",
                 "--interval": "K", "--set-file": "K"}


def _fmt(x) -> str:
    return f"{x:.17g}"


# -- small parsers -----------------------------------------------------------


def parse_bc(text: str) -> BoundaryData:
    """Boundary data mini-language.

    affine:c,b1,b2[;...]   one row per component: constant then gradient
    sin-product            product of shifted sines per coordinate
    abs-distance[:cx,cy..] distance to a center (default: bbox midpoint)
    random[:seed=S,lo=A,hi=B]  uniform per boundary vertex (default 0, -1, 1)
    file:PATH              nodal value file covering the boundary vertices
    """
    kind, _, rest = text.strip().partition(":")
    if kind == "affine":
        if not rest:
            raise ValueError("affine boundary data needs coefficients, e.g. affine:1,2,0.5")
        const, coeffs = [], []
        for row in rest.split(";"):
            nums = [float(tok) for tok in row.split(",") if tok.strip()]
            if len(nums) < 2:
                raise ValueError(f"affine row needs a constant and a gradient, got {row!r}")
            const.append(nums[0])
            coeffs.append(nums[1:])
        if len({len(c) for c in coeffs}) != 1:
            raise ValueError("affine rows disagree on the spatial dimension")
        return BoundaryData.affine(const, coeffs)
    if kind == "sin-product":
        if rest:
            raise ValueError("sin-product takes no parameters")
        return BoundaryData.sin_product()
    if kind == "abs-distance":
        center = None
        if rest:
            center = [float(tok) for tok in rest.split(",") if tok.strip()]
        return BoundaryData.abs_distance(center=center)
    if kind == "random":
        kv = {}
        for part in filter(str.strip, rest.split(",")):
            key, _, val = part.partition("=")
            if not val:
                raise ValueError(f"random boundary data expects key=value pairs, got {part!r}")
            kv[key.strip()] = val.strip()
        unknown = set(kv) - {"seed", "lo", "hi"}
        if unknown:
            raise ValueError(f"unknown random parameters: {', '.join(sorted(unknown))}")
        return BoundaryData.random_uniform(int(kv.get("seed", 0)),
                                           float(kv.get("lo", -1.0)),
                                           float(kv.get("hi", 1.0)))
    if kind == "file":
        if not rest:
            raise ValueError("file boundary data needs a path")
        return BoundaryData.from_file(rest)
    raise ValueError(f"unknown boundary data kind {kind!r}")


def _load_element_values(path, mesh: Mesh) -> np.ndarray:
    with open(path) as fh:
        toks = fh.read().split()
    try:
        vals = np.array([float(t) for t in toks])
    except ValueError:
        raise ValueError(f"{path}: expected one float per element") from None
    if len(vals) != mesh.num_elements:
        raise ValueError(
            f"{path}: has {len(vals)} values, mesh has {mesh.num_elements} elements"
        )
    return vals


def parse_source(text: str, mesh: Mesh) -> SourceTerm:
    """Source mini-language: ``const:VALUE`` or ``file:PATH`` (one float per element)."""
    kind, _, rest = text.strip().partition(":")
    if kind == "const":
        return SourceTerm.constant(mesh, float(rest))
    if kind == "file":
        return SourceTerm(_load_element_values(rest, mesh))
    raise ValueError(f"unknown source spec {text!r} (use const:VALUE or file:PATH)")


# -- subcommands -------------------------------------------------------------


def cmd_mesh_gen(args) -> int:
    mesh = build_structured_mesh(args.generator, args.resolution)
    save_mesh(mesh, args.out)
    print(f"wrote {args.generator} resolution {args.resolution}: "
          f"{mesh.num_vertices} vertices, {mesh.num_elements} simplices -> {args.out}")
    return EXIT_OK


def cmd_mesh_info(args) -> int:
    mesh = load_mesh(args.mesh)
    rep = mesh.angle_report()
    print(f"dim = {mesh.dim}")
    print(f"vertices = {mesh.num_vertices}")
    print(f"simplices = {mesh.num_elements}")
    print(f"boundary_vertices = {len(mesh.boundary_nodes)}")
    print(f"interior_vertices = {len(mesh.interior_nodes)}")
    print(f"mesh_class = {rep.mesh_class}")
    print(f"worst_gradient_dot = {_fmt(rep.worst_dot)} "
          f"(element {rep.worst_element}, local pair {rep.worst_pair})")
    print(f"every_element_touches_interior = {rep.every_element_touches_interior}")
    K = mesh._stiffness(mesh.volumes, interior=False)
    print(f"max_interior_coupling = {_fmt(_max_coupling(K, mesh.interior_nodes))} "
          f"(z-matrix rows when <= 0)")
    return EXIT_OK


def cmd_solve(args) -> int:
    mesh = load_mesh(args.mesh)
    model = parse_energy(args.energy)
    if args.coeff:
        model = model.with_coeff(_load_element_values(args.coeff, mesh))
    bc = parse_bc(args.bc)
    source = parse_source(args.source, mesh) if args.source else None
    lumped = LumpedTerm.from_mesh(mesh, args.lumped_q) if args.lumped_q is not None else None

    field, report = minimize(model, mesh, bc, m=args.m, source=source,
                             lumped=lumped, tol=args.tol, max_iters=args.max_iters)
    print(report.to_text())
    if args.out:
        save_field(field, args.out)
        print(f"wrote field -> {args.out}")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


_OUTCOME_EXIT = {
    verify_mod.PASS: EXIT_OK,
    verify_mod.FAIL: EXIT_CLAIM_FAILED,
    verify_mod.HYPOTHESIS_NOT_MET: EXIT_HYPOTHESIS,
}


def _check_theorem(theorem: str, mesh: Mesh, field: NodalField, tol, extra_input):
    """Run a theorem's checker; ``extra_input(name)`` supplies its extra
    input, and ``tol`` overrides the checker's default only when given."""
    check, extra = _THEOREMS[theorem]
    kwargs = {extra: extra_input(extra)} if extra else {}
    if tol is not None:
        kwargs["tol"] = tol
    return check(mesh, field, **kwargs)


def cmd_verify(args) -> int:
    for opt, what in _OPTION_INPUT.items():
        if what != _THEOREMS[args.theorem][1] and getattr(args, opt[2:].replace("-", "_")):
            raise ValueError(f"--theorem {args.theorem} does not read {opt}")
    mesh = load_mesh(args.mesh)
    values, _ = load_field(args.field, mesh)
    field = NodalField(mesh, values)

    def extra_input(what):
        if what == "source":
            return parse_source(args.source, mesh) if args.source else None
        if what == "model":
            return parse_energy(args.energy) if args.energy else None
        if args.interval:
            lo, hi = args.interval
            if not lo < hi:
                raise ValueError(f"interval needs lo < hi, got [{lo}, {hi}]")
            return convex.finite_hull([[lo], [hi]])
        if args.set_file:
            gens, _ = load_field(args.set_file)
            return convex.finite_hull(gens)
        raise ValueError("lemma-pos needs --interval LO HI or --set-file PATH")

    report = _check_theorem(args.theorem, mesh, field, args.tol, extra_input)

    print(report.to_text())
    if args.csv:
        _write_csv(args.csv, [_csv_row(mesh, report)], "a")
        print(f"appended row -> {args.csv}")
    return _OUTCOME_EXIT[report.outcome]


def _csv_row(mesh: Mesh, report, combo=("",) * 5, solve=None) -> str:
    """One v1 CSV row.  ``combo`` is (generator, resolution, energy, m, seed)
    and ``solve`` the SolveReport; ``verify`` has neither and leaves their
    columns empty."""
    solved = ("",) * 4 if solve is None else (
        str(solve.converged), str(solve.iterations),
        _fmt(solve.residual_norm), _fmt(solve.energy))
    return ",".join([*map(str, combo), str(mesh.num_vertices), str(mesh.num_elements),
                     report.mesh_class, *solved,
                     report.theorem, report.outcome, _fmt(report.violation), _fmt(report.tol)])


def _write_csv(path, rows, mode) -> None:
    """Write ``rows`` with open mode ``mode``; the header goes only into an empty file."""
    with open(path, mode) as fh:
        if fh.tell() == 0:
            fh.write(CSV_HEADER_COMMENT + "\n" + CSV_COLUMNS + "\n")
        fh.writelines(row + "\n" for row in rows)


# -- experiment driver -------------------------------------------------------

DEFAULT_EXPERIMENT_SPEC = """\
# default hull property suite
generators = right2d:8, crisscross2d:8, equilateral2d:8, kuhn3d:3
energies = p-laplace:p=2, mean-curvature, orlicz:log-cosh
bc = random:lo=-1,hi=1
m = 2
seeds = 1, 2, 3, 4, 5
theorems = chp
solver_tol = 1e-10
verify_tol = 1e-8
out = chp_results.csv
"""

_SPEC_KEYS = {"generators", "energies", "bc", "m", "seeds", "theorems",
              "solver_tol", "verify_tol", "source", "lumped_q", "out",
              "max_iters"}


def parse_experiment_spec(text: str) -> dict:
    spec = {
        "m": [1], "seeds": [0], "theorems": ["chp"],
        "solver_tol": 1e-10, "verify_tol": None, "source": None,
        "lumped_q": None, "out": "results.csv", "max_iters": 10000,
    }
    seen = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            raise ValueError(f"spec line {ln}: expected 'key = value', got {raw!r}")
        if key not in _SPEC_KEYS:
            raise ValueError(f"spec line {ln}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"spec line {ln}: duplicate key {key!r}")
        seen.add(key)
        try:
            if key == "generators":
                gens = []
                for item in value.split(","):
                    name, _, res = item.strip().partition(":")
                    if name not in GENERATORS:
                        raise ValueError(f"unknown generator {name!r}")
                    try:
                        gens.append((name, int(res)))
                    except ValueError:
                        raise ValueError(f"bad resolution in {item!r}") from None
                spec["generators"] = gens
            elif key == "energies":
                spec["energies"] = [item.strip() for item in value.split(",") if item.strip()]
                for e in spec["energies"]:
                    parse_energy(e)
            elif key == "bc":
                parse_bc(value)
                spec["bc"] = value
            elif key in ("m", "seeds"):
                spec[key] = [int(v) for v in value.split(",")]
            elif key == "theorems":
                toks = [v.strip() for v in value.split(",") if v.strip()]
                for t in toks:
                    if t not in _THEOREMS:
                        raise ValueError(f"unknown theorem {t!r}")
                spec["theorems"] = toks
            elif key in ("solver_tol", "verify_tol"):
                spec[key] = float(value)
                _check_tol(key, spec[key])
            elif key == "lumped_q":
                spec[key] = float(value)
            elif key == "max_iters":
                spec[key] = int(value)
            else:
                spec[key] = value
        except ValueError as exc:
            raise ValueError(f"spec line {ln}: {exc}") from None

    for required in ("generators", "energies", "bc"):
        if required not in spec or not spec[required]:
            raise ValueError(f"spec is missing required key {required!r}")
    if "dmp" in spec["theorems"] and any(m != 1 for m in spec["m"]):
        raise ValueError("the dmp theorem needs m = 1")
    if "strong-chp" in spec["theorems"] and (spec["source"] or spec["lumped_q"] is not None):
        raise ValueError("strong-chp applies to the pure gradient energy "
                         "(drop source / lumped_q)")
    return spec


def _combo_bc(bc_text: str, seed: int) -> BoundaryData:
    bc = parse_bc(bc_text)
    if bc.kind == "random":
        return BoundaryData.random_uniform(seed, bc.params["lo"], bc.params["hi"])
    return bc


def _run_combo(spec, mesh, combo):
    """Solve one combination and check each theorem of the spec on its solution.

    Returns the combination's CSV rows, whether a checked claim failed and
    whether the solve converged.
    """
    energy_text, m, seed = combo[2:]
    model = parse_energy(energy_text)
    source = parse_source(spec["source"], mesh) if spec["source"] else None
    lumped = LumpedTerm.from_mesh(mesh, spec["lumped_q"]) if spec["lumped_q"] is not None else None
    field, solve = minimize(model, mesh, _combo_bc(spec["bc"], seed), m=m, source=source,
                            lumped=lumped, tol=spec["solver_tol"], max_iters=spec["max_iters"])

    def extra_input(what):
        if what == "K":
            return convex.boundary_hull(field)
        return {"source": source, "model": model}[what]

    reports = [_check_theorem(theorem, mesh, field, spec["verify_tol"], extra_input)
               for theorem in spec["theorems"]]
    return ([_csv_row(mesh, rep, combo, solve) for rep in reports],
            any(rep.outcome == verify_mod.FAIL for rep in reports), solve.converged)


def cmd_experiment(args) -> int:
    if args.emit_default:
        with open(args.emit_default, "w") as fh:
            fh.write(DEFAULT_EXPERIMENT_SPEC)
        print(f"wrote default suite spec -> {args.emit_default}")
        return EXIT_OK
    if not args.spec:
        raise ValueError("provide a spec file (or --emit-default PATH)")
    with open(args.spec) as fh:
        spec = parse_experiment_spec(fh.read())
    if args.out:
        spec["out"] = args.out
    threads = os.environ.get("FEMCHP_THREADS", "1")
    if not threads.strip().isdecimal() or int(threads) < 1:
        raise ValueError(f"FEMCHP_THREADS must be an integer >= 1, got {threads!r}")

    meshes = {}
    for name, res in spec["generators"]:
        if (name, res) not in meshes:
            mesh = build_structured_mesh(name, res)
            mesh.angle_report()
            meshes[(name, res)] = mesh

    combos = [
        (name, res, energy, m, seed)
        for name, res in spec["generators"]
        for energy in spec["energies"]
        for m in spec["m"]
        for seed in spec["seeds"]
    ]

    def run(combo):
        return _run_combo(spec, meshes[combo[:2]], combo)

    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        done = list(pool.map(run, combos))

    rows = [row for combo_rows, _, _ in done for row in combo_rows]
    _write_csv(spec["out"], rows, "w")
    print(f"wrote {len(rows)} rows -> {spec['out']}")
    if any(failed for _, failed, _ in done):
        print("at least one verified claim FAILED", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    if not all(converged for _, _, converged in done):
        print("at least one solve did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser, subparsers included, that reads every negative
    number an option takes as a value.  argparse recognises only plain
    negative decimals (before Python 3.13 only the forms -1 and -1.5), and
    takes -1e-3 or -inf for an unknown flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*(e[-+]?\d+)?|\.\d+(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="femchp",
        description="P1 energy minimisation with hull/maximum principle checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh-gen", help="write a structured mesh to a file")
    p.add_argument("--generator", required=True, choices=sorted(GENERATORS))
    p.add_argument("--resolution", "-n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mesh_gen)

    p = sub.add_parser("mesh-info", help="print size and angle classification")
    p.add_argument("mesh")
    p.set_defaults(func=cmd_mesh_info)

    p = sub.add_parser("solve", help="minimise an energy and write the field")
    p.add_argument("--mesh", required=True)
    p.add_argument("--energy", default="p-laplace:p=2")
    p.add_argument("--bc", required=True, help="boundary data (see parse_bc)")
    p.add_argument("-m", "--m", dest="m", type=int, default=1,
                   help="value components")
    p.add_argument("--source", help="const:VALUE or file:PATH (per element)")
    p.add_argument("--lumped-q", type=float, default=None,
                   help="exponent of the lumped zero-order term (2 <= q < inf)")
    p.add_argument("--coeff", help="file with one positive c_T per element")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=10000)
    p.add_argument("--out", help="write the solution field here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a hull/maximum principle on a field")
    p.add_argument("--theorem", required=True, choices=tuple(_THEOREMS))
    p.add_argument("--mesh", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--source", help="const:VALUE or file:PATH (dmp hypothesis)")
    p.add_argument("--energy", help="energy model (strong-chp weights)")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--interval", nargs=2, type=float, metavar=("LO", "HI"),
                        help="scalar interval target set (lemma-pos)")
    target.add_argument("--set-file", help="target set generators in field format (lemma-pos)")
    p.add_argument("--csv", help="append a result row to this CSV")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="run a sweep described by a spec file")
    p.add_argument("spec", nargs="?")
    p.add_argument("--out", help="override the spec output path")
    p.add_argument("--emit-default", metavar="PATH",
                   help="write the default hull-property suite spec and exit")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
