"""Batch experiment driver.

Single ``platecap`` binary with ``run <kind>`` subcommands wrapping the
compute modules and emitting machine-readable tables (CSV with a header
row, JSON records).  Configuration comes from per-kind defaults, an
optional JSON file (``--config``), and command-line flags, in that order
of precedence.  Same config + same seed gives byte-identical outputs.

Exit codes: 0 ok, 1 assertion failure or a solver, extraction, reduction or
construction error at compute time, 2 configuration error.

While ``main`` runs, every OpenBLAS pool the process has loaded runs on one
thread, and gets its old count back when ``main`` returns or raises.  The
sparse solvers make many small BLAS calls, after each of which idle OpenBLAS
workers spin; ``--jobs`` (threads over sweep points) is the only
parallelism.  Code that calls the compute modules directly keeps its own
BLAS settings.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import logging
import math
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .elastic import (InvalidMaterial, check_stiffness, isotropic_stiffness,
                      isotropic_stiffness_exact, material_from_json,
                      reduced_stiffness)
from .fem import MeshError, SolverError
from .fundamental import (ConstructionError, construct_fundamental,
                          verify_contour_identities)
from .inequalities import (HARDY_VARIANTS, NORM_VARIANTS, ContractError,
                           SupportLayout, hardy_constant, hardy_ratio,
                           korn_constant, korn_csv)
from .kirchhoff import (PlateDomain, load_from_spec, manufactured_bending,
                        manufactured_membrane, operator_coefficients,
                        solution_csv, solve_bending, solve_membrane,
                        solve_plate)
from .layer import (ExtractionError, capacity_json, check_matching_window,
                    decay_csv, decay_trace, extract_capacity, layer_mesh)
from .polyfield import Poly, PolyField, Q2
from .reduction import (ReductionError, bending_table_direct,
                        build_dimension_reduction, membrane_table_direct,
                        residual_report)

log = logging.getLogger("platecap")

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}

HARDY_VARIANT_NAMES = tuple(HARDY_VARIANTS)
# short labels accepted as aliases on the command line
HARDY_ALIASES = {"2.15": "inverse-square", "2.16": "edge-log",
                 "2.21": "pole-log", "2.22": "shifted-quartic"}

CLAMP_ALIASES = {"supports": "supports-only", "supports-only": "supports-only",
                 "lateral": "lateral+support",
                 "lateral+support": "lateral+support"}

DEFAULT_CENTERS = {1: ((0.5, 0.5),),
                   2: ((0.35, 0.4), (0.65, 0.6)),
                   3: ((0.3, 0.3), (0.7, 0.4), (0.45, 0.7))}

DEFAULTS = {
    "hardy": {"variant": "all", "samples": 10000, "grid": 1024, "h": 0.1},
    "korn-sweep": {"mode": "lateral+support", "J": 2, "centers": None,
                   "h": "0.2,0.1,0.05,0.025", "variant": "plain",
                   "material": "iso:1,1", "resolution": 2, "nz": 3},
    "kirchhoff": {"study": "convergence", "material": "iso:1,1",
                  "spacing": 0.125, "levels": 3, "load": "sine-bump",
                  "point": "0.5,0.5"},
    "fundsol-verify": {"material": "iso:1,1", "radii": "0.5,1,2",
                       "tol": 1e-6, "n_angular": 512},
    "ansatz-residual": {"degree": 6, "anisotropic_samples": 5},
    "capacity": {"material": "iso:1,1", "T": 8.0, "nz": 6,
                 "inner_step": 0.25, "growth_cap": 1.15, "theta": "disk",
                 "annulus": "0.55,0.8", "decay_output": None},
}

DEFAULT_OUTPUT = {"hardy": "hardy.csv", "korn-sweep": "korn_sweep.csv",
                  "kirchhoff": "kirchhoff.csv",
                  "fundsol-verify": "fundsol.json",
                  "ansatz-residual": "ansatz.json",
                  "capacity": "capacity.json"}


class ConfigError(Exception):
    """Invalid configuration: bad flag value, file, or range."""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict
    output: str
    seed: int
    jobs: int

    def plan(self) -> str:
        rec = {"kind": self.kind, "seed": self.seed, "jobs": self.jobs,
               "output": self.output, "params": self.params}
        return json.dumps(rec, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and config resolution
# ---------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON file with parameter values "
                                     "(flags override it)")
    sp.add_argument("--output", "-o", help="output file path")
    sp.add_argument("--seed", type=int, help="RNG seed (default 0)")
    sp.add_argument("--jobs", type=int,
                    help="parallel task cap for sweeps (default 1)")
    sp.add_argument("--dry-run", action="store_true",
                    help="validate config and print the plan, compute "
                         "nothing")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``platecap`` parser, built once per process (it takes a few
    milliseconds, as long as a small run); parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="platecap",
        description="Korn constants, Kirchhoff plates, and elastic "
                    "capacity: batch experiment driver.")
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment kind")
    kinds = run.add_subparsers(dest="kind", required=True)

    sp = kinds.add_parser("hardy", help="random battery of weighted "
                                        "inequality ratios")
    sp.add_argument("--variant", help="one of %s, a short alias, or 'all'"
                                      % (HARDY_VARIANT_NAMES,))
    sp.add_argument("--samples", type=int, help="random samples per variant")
    sp.add_argument("--grid", type=int, help="grid intervals on (0,1)")
    sp.add_argument("--h", type=float,
                    help="offset for the shifted variant")
    _add_common(sp)

    sp = kinds.add_parser("korn-sweep", help="Korn constants over a "
                                             "thickness sweep")
    sp.add_argument("--mode", help="clamping: supports|lateral")
    sp.add_argument("--J", type=int, help="number of supports (1-3)")
    sp.add_argument("--centers", help="explicit centers 'x,y;x,y' "
                                      "(overrides --J)")
    sp.add_argument("--h", help="comma-separated thickness list")
    sp.add_argument("--variant", help="norm variant: %s" % (NORM_VARIANTS,))
    sp.add_argument("--material", help="iso:<lam>,<mu> | file:<json> | "
                                       "inline JSON")
    sp.add_argument("--resolution", type=int,
                    help="cells across each support disk")
    sp.add_argument("--nz", type=int, help="cells through the thickness")
    _add_common(sp)

    sp = kinds.add_parser("kirchhoff", help="plate solver: manufactured "
                                            "convergence or one solve")
    sp.add_argument("--study", choices=("convergence", "solve"))
    sp.add_argument("--material", help="iso:<lam>,<mu> | file:<json> | "
                                       "inline JSON")
    sp.add_argument("--spacing", type=float, help="coarsest grid spacing")
    sp.add_argument("--levels", type=int, help="number of halvings")
    sp.add_argument("--load", help="constant | sine-bump | file:<csv>")
    sp.add_argument("--point", help="support point 'x,y', snapped to the "
                                    "nearest grid node, which must be "
                                    "interior")
    _add_common(sp)

    sp = kinds.add_parser("fundsol-verify", help="contour identities of "
                                                 "the fundamental matrices")
    sp.add_argument("--material", help="iso:<lam>,<mu> | file:<json> | "
                                       "inline JSON")
    sp.add_argument("--radii", help="comma-separated contour radii")
    sp.add_argument("--tol", type=float, help="identity tolerance")
    sp.add_argument("--n-angular", type=int, dest="n_angular",
                    help="angular resolution of the construction")
    _add_common(sp)

    sp = kinds.add_parser("ansatz-residual", help="exact cascade residuals "
                                                  "and operator extraction")
    sp.add_argument("--degree", type=int, help="max monomial degree")
    sp.add_argument("--anisotropic-samples", type=int,
                    dest="anisotropic_samples",
                    help="number of random stiffness matrices")
    _add_common(sp)

    sp = kinds.add_parser("capacity", help="elastic capacity of a clamped "
                                           "patch")
    sp.add_argument("--material", help="iso:<lam>,<mu> | file:<json> | "
                                       "inline JSON")
    sp.add_argument("--T", type=float, help="box half-width")
    sp.add_argument("--nz", type=int, help="cells through the thickness")
    sp.add_argument("--inner-step", type=float, dest="inner_step",
                    help="core grid spacing")
    sp.add_argument("--growth-cap", type=float, dest="growth_cap",
                    help="tail cell growth bound")
    sp.add_argument("--theta", help="clamped patch: disk | disk:<radius>")
    sp.add_argument("--annulus", help="matching window 'a0,a1' in units "
                                      "of T")
    sp.add_argument("--decay-output", dest="decay_output",
                    help="also write the remainder decay trace CSV here")
    _add_common(sp)
    return p


def _load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    kind = args.kind
    params = dict(DEFAULTS[kind])
    meta = {"seed": 0, "jobs": 1, "output": DEFAULT_OUTPUT[kind]}
    if args.config:
        obj = _load_config_file(args.config)
        file_kind = obj.pop("kind", kind)
        if file_kind != kind:
            raise ConfigError(f"config file is for kind {file_kind!r}, "
                              f"command says {kind!r}")
        for key, val in obj.items():
            if key in params:
                params[key] = val
            elif key in meta:
                meta[key] = val
            else:
                raise ConfigError(f"unknown config key {key!r} for "
                                  f"kind {kind!r}")
    for key in params:
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    for key in meta:
        val = getattr(args, key, None)
        if val is not None:
            meta[key] = val
    try:
        seed = int(meta["seed"])
        jobs = int(meta["jobs"])
    except (TypeError, ValueError):
        raise ConfigError("seed and jobs must be integers")
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    output = str(meta["output"])
    VALIDATORS[kind](params)
    return ExperimentConfig(kind=kind, params=params, output=output,
                            seed=seed, jobs=jobs)


# ---------------------------------------------------------------------------
# shared parsing helpers (validation raises ConfigError)
# ---------------------------------------------------------------------------

def parse_material(spec: str) -> np.ndarray:
    try:
        if spec.startswith("iso:"):
            parts = spec[4:].split(",")
            if len(parts) != 2:
                raise InvalidMaterial("iso: takes exactly lambda,mu")
            A = isotropic_stiffness(float(parts[0]), float(parts[1]))
            check_stiffness(A)
            return A
        if spec.startswith("file:"):
            path = Path(spec[5:])
            if not path.is_file():
                raise ConfigError(f"material file not found: {path}")
            return material_from_json(path.read_text())
        if spec.lstrip().startswith("{"):
            return material_from_json(spec)
    except (ValueError, InvalidMaterial) as e:
        raise ConfigError(f"bad material spec {spec!r}: {e}")
    raise ConfigError(f"unknown material spec {spec!r} "
                      "(use iso:<lam>,<mu>, file:<path>, or inline JSON)")


def _float_list(text: str, what: str) -> tuple:
    try:
        vals = tuple(float(x) for x in str(text).split(","))
    except ValueError:
        raise ConfigError(f"{what} must be a comma-separated float list, "
                          f"got {text!r}")
    if not vals:
        raise ConfigError(f"{what} is empty")
    return vals


def _positive(value, what: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if not v > 0:
        raise ConfigError(f"{what} must be positive, got {value!r}")
    return v


def _positive_int(value, what: str) -> int:
    try:
        v = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if v < 1:
        raise ConfigError(f"{what} must be >= 1, got {value!r}")
    return v


def _parse_centers(params: dict) -> tuple:
    if params.get("centers"):
        try:
            centers = tuple(
                tuple(float(x) for x in pair.split(","))
                for pair in str(params["centers"]).split(";"))
        except ValueError:
            raise ConfigError("centers must look like 'x,y;x,y'")
        if any(len(c) != 2 for c in centers):
            raise ConfigError("each center needs exactly two coordinates")
        return centers
    J = _positive_int(params["J"], "J")
    if J not in DEFAULT_CENTERS:
        raise ConfigError(f"no default support layout for J={J}; "
                          "pass --centers")
    return DEFAULT_CENTERS[J]


# ---------------------------------------------------------------------------
# per-kind validators: normalize params in place
# ---------------------------------------------------------------------------

def _validate_hardy(p: dict) -> None:
    v = str(p["variant"])
    v = HARDY_ALIASES.get(v, v)
    if v != "all" and v not in HARDY_VARIANT_NAMES:
        raise ConfigError(f"unknown variant {p['variant']!r}; pick from "
                          f"{HARDY_VARIANT_NAMES} or 'all'")
    p["variant"] = v
    p["samples"] = _positive_int(p["samples"], "samples")
    p["grid"] = _positive_int(p["grid"], "grid")
    if p["grid"] < 8:
        raise ConfigError("grid needs at least 8 intervals")
    p["h"] = _positive(p["h"], "h")


def _validate_korn(p: dict) -> None:
    mode = CLAMP_ALIASES.get(str(p["mode"]))
    if mode is None:
        raise ConfigError(f"unknown clamping mode {p['mode']!r}; use "
                          "'supports' or 'lateral'")
    p["mode"] = mode
    if p["variant"] not in NORM_VARIANTS:
        raise ConfigError(f"unknown norm variant {p['variant']!r}; pick "
                          f"from {NORM_VARIANTS}")
    hs = _float_list(p["h"], "h")
    if any(h <= 0 for h in hs):
        raise ConfigError("thicknesses must be positive")
    centers = _parse_centers(p)
    p["J"] = len(centers)
    p["centers"] = ";".join(f"{c[0]:g},{c[1]:g}" for c in centers)
    p["resolution"] = _positive_int(p["resolution"], "resolution")
    p["nz"] = _positive_int(p["nz"], "nz")
    parse_material(str(p["material"]))
    for h in hs:
        try:
            _korn_layout(p, h)
        except ContractError as e:
            raise ConfigError(f"support layout at h={h:g}: {e}")


def _korn_layout(p: dict, h: float) -> SupportLayout:
    centers = tuple(tuple(float(x) for x in pair.split(","))
                    for pair in p["centers"].split(";"))
    return SupportLayout(centers=centers, R=1.0, h=h, mode=p["mode"])


def _validate_kirchhoff(p: dict) -> None:
    if p["study"] not in ("convergence", "solve"):
        raise ConfigError(f"unknown study {p['study']!r}")
    p["spacing"] = _positive(p["spacing"], "spacing")
    if p["spacing"] > 0.5:
        raise ConfigError("spacing must resolve the unit square")
    p["levels"] = _positive_int(p["levels"], "levels")
    if p["levels"] > 5:
        raise ConfigError("levels > 5 would need millions of nodes")
    pt = _float_list(p["point"], "point")
    if len(pt) != 2 or not (0 < pt[0] < 1 and 0 < pt[1] < 1):
        raise ConfigError("point must be interior to the unit square")
    load = str(p["load"])
    if load.startswith("file:") and not Path(load[5:]).is_file():
        raise ConfigError(f"load file not found: {load[5:]}")
    elif not load.startswith("file:") and load not in ("constant",
                                                       "sine-bump"):
        raise ConfigError(f"unknown load spec {load!r}")
    default = DEFAULTS["kirchhoff"]
    if p["study"] == "convergence" and (pt, load) != (
            _float_list(default["point"], "point"), default["load"]):
        raise ConfigError("--point and --load apply to --study solve only")
    parse_material(str(p["material"]))
    if p["study"] == "solve":
        try:
            dom = PlateDomain(1.0, 1.0, p["spacing"], point=tuple(pt))
            load_from_spec(dom, load)
        except ValueError as e:
            raise ConfigError(f"kirchhoff solve: {e}")


def _validate_fundsol(p: dict) -> None:
    radii = _float_list(p["radii"], "radii")
    if any(r <= 0 for r in radii):
        raise ConfigError("radii must be positive")
    p["tol"] = _positive(p["tol"], "tol")
    p["n_angular"] = _positive_int(p["n_angular"], "n_angular")
    if p["n_angular"] < 16:
        raise ConfigError("n_angular below 16 cannot resolve the "
                          "identities")
    parse_material(str(p["material"]))


def _validate_ansatz(p: dict) -> None:
    p["degree"] = _positive_int(p["degree"], "degree")
    if p["degree"] > 10:
        raise ConfigError("degree > 10 explodes the monomial battery")
    n = p["anisotropic_samples"]
    try:
        n = int(n)
    except (TypeError, ValueError):
        raise ConfigError("anisotropic_samples must be an integer")
    if n < 0:
        raise ConfigError("anisotropic_samples must be >= 0")
    p["anisotropic_samples"] = n


def _validate_capacity(p: dict) -> None:
    p["T"] = _positive(p["T"], "T")
    p["nz"] = _positive_int(p["nz"], "nz")
    p["inner_step"] = _positive(p["inner_step"], "inner_step")
    p["growth_cap"] = _positive(p["growth_cap"], "growth_cap")
    if not p["growth_cap"] > 1.0:
        raise ConfigError("growth_cap must exceed 1")
    theta = str(p["theta"])
    if theta != "disk" and not theta.startswith("disk:"):
        raise ConfigError(f"unknown theta spec {theta!r} "
                          "(use disk or disk:<radius>)")
    if theta.startswith("disk:"):
        _positive(theta[5:], "theta radius")
    w = _float_list(p["annulus"], "annulus")
    if len(w) != 2:
        raise ConfigError("annulus must be '<a0>,<a1>'")
    parse_material(str(p["material"]))
    try:
        check_matching_window(_capacity_mesh(p), w)
    except MeshError as e:
        raise ConfigError(f"capacity mesh: {e}")
    except ContractError as e:
        raise ConfigError(f"capacity matching window: {e}")


def _capacity_mesh(p: dict):
    theta = str(p["theta"])
    radius = float(theta[5:]) if theta.startswith("disk:") else 1.0
    return layer_mesh(T=p["T"], n_z=p["nz"], inner_step=p["inner_step"],
                      growth_cap=p["growth_cap"], radius=radius)


VALIDATORS = {"hardy": _validate_hardy, "korn-sweep": _validate_korn,
              "kirchhoff": _validate_kirchhoff,
              "fundsol-verify": _validate_fundsol,
              "ansatz-residual": _validate_ansatz,
              "capacity": _validate_capacity}


# ---------------------------------------------------------------------------
# runners: cfg -> (outputs {path: text}, failures [str])
# ---------------------------------------------------------------------------

def _run_points(fn, points, jobs: int) -> list:
    """Map fn over points, at most jobs at a time, preserving order."""
    if jobs <= 1 or len(points) <= 1:
        return [fn(pt) for pt in points]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(fn, pt) for pt in points]
        return [f.result() for f in futures]


def random_admissible_walks(rng, count: int, n: int, end: int) -> np.ndarray:
    """Random piecewise-linear samples pinned to zero at node ``end``."""
    u = np.cumsum(rng.standard_normal((count, n)), axis=1) / math.sqrt(n)
    return u - (u[:, :1] if end == 0 else u[:, -1:])


def run_hardy(cfg: ExperimentConfig):
    p = cfg.params
    variants = (HARDY_VARIANT_NAMES if p["variant"] == "all"
                else (p["variant"],))
    x = np.linspace(0.0, 1.0, p["grid"] + 1)
    rng = np.random.default_rng(cfg.seed)
    rows = ["variant,sample,ratio"]
    failures = []
    for variant in variants:
        end = HARDY_VARIANTS[variant][1]
        u = random_admissible_walks(rng, p["samples"], len(x), end)
        ratios = np.atleast_1d(hardy_ratio(x, u, variant, h=p["h"]))
        bound = hardy_constant(variant)
        worst = float(ratios.max())
        log.info("hardy %s: worst ratio %.6g (bound %g)", variant, worst,
                 bound)
        rows.extend(f"{variant},{k},{r:.12g}" for k, r in enumerate(ratios))
        if worst > bound + 1e-3:
            failures.append(f"hardy {variant}: ratio {worst:.6g} exceeds "
                            f"{bound:g} beyond quadrature error")
    return {cfg.output: "\n".join(rows) + "\n"}, failures


def run_korn_sweep(cfg: ExperimentConfig):
    p = cfg.params
    A = parse_material(p["material"])
    hs = _float_list(p["h"], "h")

    def point(h: float):
        try:
            est = korn_constant(_korn_layout(p, h), A, p["variant"],
                                resolution=p["resolution"], nz=p["nz"])
        except SolverError as e:
            raise SolverError(f"h={h:g}: {e}") from e
        log.info("korn h=%g: K=%.6g (cells %d)", h, est.constant,
                 est.mesh_cells)
        return est

    estimates = _run_points(point, hs, cfg.jobs)
    xs = np.array([1.0 + abs(math.log(e.h)) for e in estimates])
    ys = np.array([e.constant for e in estimates])
    if len(hs) >= 2:
        slope, intercept = np.polyfit(xs, ys, 1)
        pred = slope * xs + intercept
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    else:
        slope, intercept, r2 = 0.0, float(ys[0]), 1.0
    text = korn_csv(estimates) + (
        f"# fit K ~ a + b*(1+|ln h|): slope={slope:.10g} "
        f"intercept={intercept:.10g} r_squared={r2:.6g}\n")
    return {cfg.output: text}, []


def run_kirchhoff(cfg: ExperimentConfig):
    p = cfg.params
    A = parse_material(p["material"])
    A0 = reduced_stiffness(A)
    point = tuple(_float_list(p["point"], "point"))
    if p["study"] == "solve":
        dom = PlateDomain(1.0, 1.0, p["spacing"], point=point)
        load = load_from_spec(dom, p["load"])
        sol = solve_plate(dom, A0, load)
        gap = abs(sol.w3[dom.point_node])
        log.info("kirchhoff solve: point gap %.3e, energies %.6g / %.6g",
                 gap, sol.energy_membrane, sol.energy_bending)
        failures = []
        if gap > 1e-12:
            failures.append(f"kirchhoff: point value {gap:.3e} above 1e-12")
        return {cfg.output: solution_csv(dom, sol)}, failures

    mem, ben = operator_coefficients(A0)
    spacings, errs_m, errs_b = [], [], []
    n0 = max(2, round(1.0 / p["spacing"]))
    for level in range(p["levels"] + 1):
        dom = PlateDomain(1.0, 1.0, 1.0 / (n0 * 2 ** level))
        w_exact, g = manufactured_membrane(dom, mem)
        w1, w2, _ = solve_membrane(dom, A0, g)
        we = w_exact(dom.grid.nodes())
        err_m = max(np.abs(w1 - we[:, 0]).max(), np.abs(w2 - we[:, 1]).max())
        w3_exact, g3 = manufactured_bending(dom, ben)
        w3, _, _ = solve_bending(dom, A0, g3)
        err_b = np.abs(w3 - w3_exact(dom.grid.nodes())).max()
        spacings.append(dom.dx)
        errs_m.append(float(err_m))
        errs_b.append(float(err_b))
        log.info("kirchhoff spacing %.5g: err %0.3e / %0.3e", dom.dx,
                 err_m, err_b)
    rows = ["spacing,err_membrane,err_bending"]
    rows.extend(f"{s:.12g},{em:.12g},{eb:.12g}"
                for s, em, eb in zip(spacings, errs_m, errs_b))
    rate_m = np.log2(np.array(errs_m[:-1]) / np.array(errs_m[1:]))
    rate_b = np.log2(np.array(errs_b[:-1]) / np.array(errs_b[1:]))
    rows.append(f"# order membrane={rate_m.min():.4g} "
                f"bending={rate_b.min():.4g}")
    failures = []
    if rate_m.min() < 1.9:
        failures.append(f"kirchhoff membrane order {rate_m.min():.3g} < 1.9")
    if rate_b.min() < 1.9:
        failures.append(f"kirchhoff bending order {rate_b.min():.3g} < 1.9")
    return {cfg.output: "\n".join(rows) + "\n"}, failures


def run_fundsol_verify(cfg: ExperimentConfig):
    p = cfg.params
    A = parse_material(p["material"])
    A0 = reduced_stiffness(A)
    phi = construct_fundamental(A0, n_angular=p["n_angular"])
    radii = _float_list(p["radii"], "radii")
    entries = []
    worst = 0.0
    for r in radii:
        rep = verify_contour_identities(phi, A0, r)
        worst = max(worst, rep.max_defect)
        log.info("fundsol r=%g: max defect %.3e (%s)", r, rep.max_defect,
                 rep.worst)
        entries.append({"radius": r,
                        "defects": {k: float(v)
                                    for k, v in sorted(rep.defects.items())},
                        "max_defect": float(rep.max_defect)})
    rec = {"material": [float(x) for x in A.ravel()],
           "n_angular": p["n_angular"], "tol": p["tol"], "radii": entries,
           "max_defect": float(worst), "pass": bool(worst <= p["tol"])}
    failures = []
    if worst > p["tol"]:
        failures.append(f"fundsol: identity defect {worst:.3e} above "
                        f"{p['tol']:g}")
    return {cfg.output: json.dumps(rec, sort_keys=True, indent=2) + "\n"}, \
        failures


def _random_rational_spd(rng: random.Random) -> list:
    rows = [[Q2.of(0)] * 6 for _ in range(6)]
    B = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(6)]
    for i in range(6):
        for j in range(6):
            s = sum(B[k][i] * B[k][j] for k in range(6))
            rows[i][j] = Q2.of(s + (6 if i == j else 0))
    return rows


def _tables_equal(extracted, direct, is_matrix: bool) -> bool:
    if set(extracted) != set(direct):
        return False
    for key in direct:
        if is_matrix:
            for i in range(2):
                for j in range(2):
                    if Q2.of(extracted[key][i][j]) != Q2.of(direct[key][i][j]):
                        return False
        elif Q2.of(extracted[key]) != Q2.of(direct[key]):
            return False
    return True


def run_ansatz_residual(cfg: ExperimentConfig):
    p = cfg.params
    rng = random.Random(cfg.seed)
    materials = [("isotropic", isotropic_stiffness_exact(1, 1))]
    materials += [(f"random-{k}", _random_rational_spd(rng))
                  for k in range(p["anisotropic_samples"])]
    degree = p["degree"]
    failures = []
    checked = 0
    results = []
    for name, A in materials:
        ops = build_dimension_reduction(A)
        A0 = [list(r) for r in ops.reduced]
        coeff_ok = (_tables_equal(ops.membrane, membrane_table_direct(A0),
                                  True)
                    and _tables_equal(ops.bending, bending_table_direct(A0),
                                      False))
        if not coeff_ok:
            failures.append(f"ansatz {name}: extracted limit operators "
                            "differ from the closed forms")
        bad = []
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                for j in range(3):
                    comps = [Poly.zero()] * 3
                    comps[j] = Poly.monomial(a, b, 0)
                    rep = residual_report(ops, PolyField(comps))
                    checked += 1
                    if not (rep.a15_ok and rep.a16_ok and rep.a17_ok):
                        bad.append([a, b, j])
        if bad:
            failures.append(f"ansatz {name}: nonzero residuals at "
                            f"{len(bad)} monomials (first {bad[0]})")
        log.info("ansatz %s: coefficient match %s, %d bad monomials",
                 name, coeff_ok, len(bad))
        results.append({"material": name, "coefficients_match": coeff_ok,
                        "bad_monomials": bad})
    rec = {"degree": degree, "fields_checked": checked,
           "materials": results, "pass": not failures}
    return {cfg.output: json.dumps(rec, sort_keys=True, indent=2) + "\n"}, \
        failures


def run_capacity(cfg: ExperimentConfig):
    p = cfg.params
    A = parse_material(p["material"])
    mesh = _capacity_mesh(p)
    annulus = tuple(_float_list(p["annulus"], "annulus"))
    cap, pot = extract_capacity(mesh, A, annulus=annulus)
    log.info("capacity: defect %.4f, iterations %s, warning %s",
             cap.symmetry_defect, cap.iterations.tolist(), cap.warning)
    outputs = {cfg.output: capacity_json(cap)}
    if p["decay_output"]:
        outputs[str(p["decay_output"])] = decay_csv(decay_trace(pot))
    failures = []
    if not cap.converged.all():
        missed = np.flatnonzero(~cap.converged).tolist()
        failures.append("capacity: verification sweep missed the fixed "
                        f"point on columns {missed}")
    return outputs, failures


RUNNERS = {"hardy": run_hardy, "korn-sweep": run_korn_sweep,
           "kirchhoff": run_kirchhoff, "fundsol-verify": run_fundsol_verify,
           "ansatz-residual": run_ansatz_residual, "capacity": run_capacity}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _setup_logging() -> None:
    name = os.environ.get("PLATECAP_LOG", "error")
    if name not in LOG_LEVELS:
        raise ConfigError(f"PLATECAP_LOG must be one of "
                          f"{tuple(LOG_LEVELS)}, got {name!r}")
    logging.basicConfig(level=LOG_LEVELS[name],
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)


# thread-count setter and getter of an OpenBLAS build: scipy's, numpy's
# (64-bit interface), a system library's; the first pair present wins
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"))


@functools.cache
def _openblas_pools() -> tuple:
    """(setter, getter) of each OpenBLAS library already loaded in this
    process, found once from /proc/self/maps without loading anything;
    empty where there is none or no way to look."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({f[5] for f in map(str.split, maps)
                            if len(f) == 6
                            and "openblas" in os.path.basename(f[5])})
    except OSError:     # not Linux
        paths = []
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                pools.append((setter, getter))
                break
    if pools:
        log.info("blas: %d OpenBLAS pools at 1 thread (were %s)", len(pools),
                 ", ".join(str(get()) for _, get in pools))
    else:
        log.info("blas: no OpenBLAS pool found, thread counts left as they "
                 "are")
    return tuple(pools)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS pool on one thread."""
    pools = _openblas_pools()
    counts = [get() for _, get in pools]
    for setter, _ in pools:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), n in zip(pools, counts):
            setter(n)


def main(argv=None) -> int:
    try:
        _setup_logging()
    except ConfigError as e:
        print(f"platecap: {e}", file=sys.stderr)
        return 2
    with _one_blas_thread():
        return _main(argv)


def _main(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as e:
        print(f"platecap: {e}", file=sys.stderr)
        return 2
    if args.dry_run:
        sys.stdout.write(cfg.plan())
        return 0
    try:
        outputs, failures = RUNNERS[cfg.kind](cfg)
    except (SolverError, ExtractionError, ReductionError,
            ConstructionError) as e:
        print(f"platecap: FAIL {cfg.kind}: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 1
    for path, text in outputs.items():
        Path(path).write_text(text)
        log.info("wrote %s (%d bytes)", path, len(text))
    for message in failures:
        print(f"platecap: FAIL {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
