"""Benchmark workloads: inputs made from the seed, CLI tasks, output checks.

Each workload is a fixed list of ``platecap run <kind>`` invocations (one
pass).  The seed only picks the inputs named here; every task's output is
checked after the timed passes, so checking costs no measured time.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Lame parameters the seed picks from.  The grid is finite so that every
# capacity input has a pinned reference in capacity_reference.json.
LAME_GRID = (0.5, 0.875, 1.25, 1.625, 2.0)

# The korn seed keeps the CLI's default two-support layout or turns it by
# half a turn about the centre of the unit square, which swaps the order in
# which the two supports are given.  Both take 17 factorizations and 474
# eigen iterations per pass.  The other six symmetries of the square pose
# the same physical problem but take 15 or 17 factorizations and 341 to 406
# iterations, and a pass on them is up to 17 % slower, so a seed that chose
# among them would move the cost of a pass.
BASE_CENTRES = ((0.35, 0.4), (0.65, 0.6))

# Pass sizes (KORN_H, ANSATZ_*, PLATE_*).  The korn, exact and plate passes
# take about 2 s on a 2-core machine, so that a 15 s run reports the median
# of five or more passes; on a shared machine two 12 s passes of one run
# differed by up to 30 %.  The capacity pass stays at the default config
# (about 11 s): coarser meshes put the symmetry defect of the stiffer
# materials above its 0.05 limit.
KORN_H = "0.2,0.1"
KORN_MODES = ("lateral", "supports")
KORN_VARIANTS = ("plain", "edge-weighted", "support-weighted", "free-edge")
# the variant swept over KORN_H in each mode, as in acceptance gate 6; the
# other variants run at h = 0.2 only
KORN_SWEEP_VARIANT = {"lateral": "plain", "supports": "free-edge"}
KORN_MODE_NAMES = {"lateral": "lateral+support", "supports": "supports-only"}
KORN_REF_RTOL = 1e-5

ANSATZ_DEGREE = 4
ANSATZ_RANDOM_MATERIALS = 1
# monomials of degree <= ANSATZ_DEGREE in two variables, times three
# components
ANSATZ_FIELDS_PER_MATERIAL = 3 * (ANSATZ_DEGREE + 1) * (ANSATZ_DEGREE + 2) // 2

PLATE_SPACING = "0.03125"
PLATE_LEVELS = 2
PLATE_SOLVE_SPACING = "0.015625"

REFERENCE_FILE = Path(__file__).with_name("capacity_reference.json")


@dataclass(frozen=True)
class Task:
    """One CLI invocation; ``argv`` excludes the output flag."""
    name: str
    argv: tuple
    output: str


@dataclass(frozen=True)
class Failure:
    """A failed check.  ``known`` marks the documented known defect: the
    lateral-mode Korn eigenvalue (inverse iteration with Rayleigh re-shift
    locks onto an eigenvalue above the smallest, see ROADMAP.md).  It still
    counts as a failed task."""
    task: str
    message: str
    known: bool = False


def lame_pair(rng: random.Random) -> tuple:
    return rng.choice(LAME_GRID), rng.choice(LAME_GRID)


def material_spec(lam: float, mu: float) -> str:
    return f"iso:{lam:g},{mu:g}"


def capacity_argv(material: str) -> tuple:
    return ("run", "capacity", "--material", material)


def _rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")

    def tasks(self) -> list:
        raise NotImplementedError

    def inputs(self) -> dict:
        """The generated inputs, for the result record."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Compute references the checks need (after the timed passes)."""

    def check(self, task: Task, rc: int, text: str) -> list:
        """Failures of one task's output."""
        raise NotImplementedError


class Capacity(Workload):
    """One default ``platecap run capacity`` on a seeded isotropic
    material: 3D factorization, far-field evaluation, annulus fits."""
    name = "capacity"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.material = material_spec(*lame_pair(self.rng))
        self.reference = None

    def tasks(self):
        return [Task("capacity", capacity_argv(self.material),
                     "capacity.json")]

    def inputs(self):
        return {"material": self.material}

    def prepare_checks(self):
        refs = json.loads(REFERENCE_FILE.read_text())["references"]
        self.reference = refs[self.material]

    def check(self, task, rc, text):
        out = []
        if rc != 0:
            # exit 1 is how the CLI reports unconverged columns
            return [Failure(task.name, f"exit code {rc}, expected 0 "
                                       "(all columns converged)")]
        rec = json.loads(text)
        if max(rec["iterations"]) > 4:
            out.append(Failure(task.name, f"iterations {rec['iterations']} "
                                          "exceed 4"))
        if not rec["symmetry_defect"] <= 0.05:
            out.append(Failure(task.name, "symmetry defect "
                               f"{rec['symmetry_defect']:.4g} above 0.05"))
        worst = max(abs(c - r) / b for c, r, b in
                    zip(rec["C_sharp"], self.reference,
                        rec["error_bars"]))
        if not worst <= 1.0:
            out.append(Failure(task.name, "C leaves its error bars around "
                               f"the pinned reference ({worst:.3g} bars)"))
        return out


class Korn(Workload):
    """Korn sweeps over h in {0.2, 0.1}, ``plain`` in lateral mode and
    ``free-edge`` in supports-only mode, plus the h = 0.2 point of the other
    three norm variants in each mode."""
    name = "korn"

    def __init__(self, seed: int):
        super().__init__(seed)
        turn = self.rng.randrange(2)
        self.centres = tuple((round(1 - x, 2), round(1 - y, 2)) if turn
                             else (x, y) for x, y in BASE_CENTRES)
        self.reference = {}

    def _centres_arg(self):
        return ";".join(f"{x:g},{y:g}" for x, y in self.centres)

    @staticmethod
    def _hs(mode, variant):
        return KORN_H if KORN_SWEEP_VARIANT[mode] == variant else "0.2"

    def tasks(self):
        return [Task(f"korn-{mode}-{variant}",
                     ("run", "korn-sweep", "--mode", mode, "--centers",
                      self._centres_arg(), "--h", self._hs(mode, variant),
                      "--variant", variant),
                     f"korn-{mode}-{variant}.csv")
                for mode in KORN_MODES for variant in KORN_VARIANTS]

    def inputs(self):
        return {"centres": self._centres_arg()}

    def prepare_checks(self):
        """Smallest eigenvalue of every h = 0.2 system by dense eigh."""
        import numpy as np
        import scipy.linalg as sla
        from platecap.elastic import isotropic_stiffness
        from platecap.inequalities import SupportLayout, korn_system

        A = isotropic_stiffness(1.0, 1.0)
        for mode in KORN_MODES:
            layout = SupportLayout(centers=self.centres, R=1.0, h=0.2,
                                   mode=KORN_MODE_NAMES[mode])
            for variant in KORN_VARIANTS:
                K, M, _ = korn_system(layout, A, variant)
                fixed = K.constraints.dirichlet_dofs()[0]
                free = np.setdiff1d(np.arange(K.n), fixed)
                Kff = K.matrix.tocsr()[free][:, free].toarray()
                Mff = M.tocsr()[free][:, free].toarray()
                lam = sla.eigh(Kff, Mff, eigvals_only=True,
                               subset_by_index=[0, 0])[0]
                self.reference[(mode, variant)] = float(lam)

    def check(self, task, rc, text):
        if rc != 0:
            return [Failure(task.name, f"exit code {rc}, expected 0")]
        mode, variant = task.name.split("-", 2)[1:]
        rows = _rows(text)
        want = [float(h) for h in self._hs(mode, variant).split(",")]
        if [float(r["h"]) for r in rows] != want:
            return [Failure(task.name, f"rows for h={[r['h'] for r in rows]}"
                                       f", expected {want}")]
        out = []
        for r in rows:
            k = float(r["K_estimate"])
            if not (math.isfinite(k) and k > 0):
                out.append(Failure(task.name, f"K={r['K_estimate']} at "
                                              f"h={r['h']}"))
        lam = float(rows[0]["K_estimate"]) ** -2
        ref = self.reference[(mode, variant)]
        err = abs(lam - ref) / ref
        if not err <= KORN_REF_RTOL:
            out.append(Failure(
                task.name, f"h=0.2 lambda_min {lam:.6g} against dense eigh "
                f"{ref:.6g} (relative error {err:.2e})",
                known=mode == "lateral"))
        return out


class Exact(Workload):
    """Exact thickness-expansion residuals: rational arithmetic only."""
    name = "exact"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cli_seed = self.rng.randrange(2 ** 31)

    def tasks(self):
        return [Task("ansatz", ("run", "ansatz-residual", "--degree",
                                str(ANSATZ_DEGREE), "--anisotropic-samples",
                                str(ANSATZ_RANDOM_MATERIALS), "--seed",
                                str(self.cli_seed)), "ansatz.json")]

    def inputs(self):
        return {"cli_seed": self.cli_seed}

    def check(self, task, rc, text):
        if rc != 0:
            return [Failure(task.name, f"exit code {rc}, expected 0")]
        rec = json.loads(text)
        n_mat = 1 + ANSATZ_RANDOM_MATERIALS
        want = ANSATZ_FIELDS_PER_MATERIAL * n_mat
        out = []
        if rec["pass"] is not True:
            out.append(Failure(task.name, "record says pass: false"))
        if rec["fields_checked"] != want or len(rec["materials"]) != n_mat:
            out.append(Failure(task.name, f"{rec['fields_checked']} fields "
                               f"over {len(rec['materials'])} materials, "
                               f"expected {want} over {n_mat}"))
        for m in rec["materials"]:
            if not m["coefficients_match"] or m["bad_monomials"]:
                out.append(Failure(task.name, f"material {m['material']} "
                                              "has nonzero residuals"))
        return out


class Plate(Workload):
    """Kirchhoff convergence study over spacings 1/32..1/128 and one
    point-constrained solve at 1/64."""
    name = "plate"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.material = material_spec(*lame_pair(self.rng))

    def tasks(self):
        return [
            Task("plate-convergence",
                 ("run", "kirchhoff", "--study", "convergence", "--material",
                  self.material, "--spacing", PLATE_SPACING,
                  "--levels", str(PLATE_LEVELS)),
                 "plate-convergence.csv"),
            Task("plate-solve",
                 ("run", "kirchhoff", "--study", "solve", "--material",
                  self.material, "--spacing", PLATE_SOLVE_SPACING, "--point",
                  "0.5,0.5"), "plate-solve.csv"),
        ]

    def inputs(self):
        return {"material": self.material}

    def check(self, task, rc, text):
        if rc != 0:
            return [Failure(task.name, f"exit code {rc}, expected 0")]
        if task.name == "plate-convergence":
            order = next(ln for ln in text.splitlines()
                         if ln.startswith("# order"))
            rates = {k: float(v) for k, v in
                     (kv.split("=") for kv in order[2:].split()[1:])}
            rows = _rows(text)
            out = [Failure(task.name, f"{k} order {v:.4g} below 1.9")
                   for k, v in sorted(rates.items()) if not v >= 1.9]
            if len(rows) != PLATE_LEVELS + 1 or len(rates) != 2:
                out.append(Failure(task.name, f"{len(rows)} spacings and "
                                   f"{len(rates)} orders, expected "
                                   f"{PLATE_LEVELS + 1} and 2"))
            return out
        gaps = [abs(float(r["w3"])) for r in _rows(text)
                if float(r["y1"]) == 0.5 and float(r["y2"]) == 0.5]
        if len(gaps) != 1 or not gaps[0] <= 1e-12:
            return [Failure(task.name, f"point gap {gaps} above 1e-12")]
        return []


WORKLOADS = {w.name: w for w in (Capacity, Korn, Exact, Plate)}
