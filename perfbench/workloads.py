"""The three benchmark workloads: inputs from a seed, the job, output checks.

Each workload is a pair of functions.  ``make_inputs(seed)`` builds plain
data (no pcells objects) and is timed as set-up together with the import of
pcells.  ``run(inputs, checks)`` does the job a user of ``pcells
cells|verify|tau`` pays for, calling pcells through its module attributes
so that a traced run sees every call, and records each output check.

Element ids depend on the enumeration order, so digests of tables and
partitions label each element by its matrix in the geometric
representation instead (see ``canonical_labels``); a different enumeration
of the same group gives the same digests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import zlib
from math import factorial
from pathlib import Path

import pcells
from pcells import cells, coxeter, hecke, pcanonical, stars, typea, verify
from tracing import SUITES

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

CARTAN = {
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "D5": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
           [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]],
    "B5": [[2, -2, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, 0],
           [0, 0, -1, 2, -1], [0, 0, 0, -1, 2]],
}
ORDER = {"F4": 1152, "D5": 1920}
SIDES = ("left", "right", "two-sided")

# Round-trip sample per group: elements of H in the KL basis, each with
# TERMS random terms.  Small next to the KL table (a few percent of the run).
SAMPLE = 16
TERMS = 3


class Checks:
    """Attempted and failed output checks of one job."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


# ---------------------------------------------------------------------------
# digests independent of element ids

def canonical_labels(system) -> list[int]:
    """Rank of each element's root-lattice matrix among all of them.

    The geometric representation is faithful, so the matrix names the
    element whatever id and reduced word the enumeration gave it.
    """
    n = system.rank
    cartan = system.cartan
    mats: list[list[list[int]] | None] = [None] * system.size
    mats[0] = [[int(i == j) for j in range(n)] for i in range(n)]
    for w in system.elements():
        if w == 0:
            continue
        s = system.words[w][-1]
        prev = mats[system.right[w][s]]  # w s, one shorter, already built
        # right multiplication by the generator matrix of s changes only
        # column j by -a(s, j) times column s
        mats[w] = [[row[j] - cartan[s][j] * row[s] if j != s else -row[s]
                    for j in range(n)] for row in prev]
    keys = [tuple(x for row in m for x in row) for m in mats]
    rank = {k: i for i, k in enumerate(sorted(keys))}
    return [rank[k] for k in keys]


def _poly_key(cache: dict, c) -> int:
    k = cache.get(c)
    if k is None:
        k = cache[c] = zlib.crc32(repr(c.to_pairs()).encode())
    return k


def table_digests(kl, lab: list[int]) -> dict[str, str]:
    """Order-independent digests of h and mu: the sum of a hash per entry.

    Tuples of ints hash the same in every process, whatever PYTHONHASHSEED.
    """
    mask = (1 << 64) - 1
    cache: dict = {}
    h_acc = 0
    for x, col in enumerate(kl.h):
        lx = lab[x]
        h_acc += sum([hash((lx, lab[y], _poly_key(cache, c)))
                      for y, c in col.items()])
    mu_acc = 0
    for x, col in enumerate(kl.mu):
        lx = lab[x]
        mu_acc += sum([hash((lx, lab[y], m)) for y, m in col.items()])
    return {"h": f"{h_acc & mask:016x}", "mu": f"{mu_acc & mask:016x}"}


def partition_digest(classes, lab: list[int]) -> str:
    canon = sorted(sorted(lab[w] for w in c) for c in classes)
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()[:16]


def _expect(checks: Checks, what: str, got, want) -> None:
    checks.check(got == want, f"{what}: got {got}, expected {want}")


# ---------------------------------------------------------------------------
# kl-cells

def kl_cells_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    samples = {}
    for name, order in ORDER.items():
        samples[name] = [
            [(rng.randrange(order), rng.randint(-3, 3), rng.choice((-2, -1, 1, 2)))
             for _ in range(TERMS)]
            for _ in range(SAMPLE)]
    return {"groups": [(name, CARTAN[name]) for name in ORDER],
            "samples": samples}


def _kl_cells_group(name: str, cartan, sample, checks: Checks) -> None:
    system = coxeter.CoxeterSystem.from_cartan(cartan)
    kl = hecke.compute_kl_table(system)
    table = pcanonical.identity_table(system)
    parts = {side: cells.compute_cells(table, kl, side) for side in SIDES}

    for terms in sample:
        coeffs: dict = {}
        for x, exp, c in terms:
            coeffs[x] = coeffs.get(x, pcells.ZERO) + pcells.LaurentPoly.v(exp, c)
        elt = hecke.HeckeElt(system, hecke.KL, coeffs)
        std = hecke.change_basis(elt, hecke.STD, kl=kl)
        back = hecke.change_basis(std, hecke.KL, kl=kl)
        checks.check(back == elt, f"{name}: kl -> std -> kl round trip of "
                                  f"{terms} is not the identity")

    _expect(checks, f"{name} order", system.size, ORDER[name])
    want = EXPECTED["kl-cells"][name]
    if "cells" in want:
        for side in SIDES:
            _expect(checks, f"{name} {side} cells", len(parts[side].cells),
                    want["cells"][side])
    if "digests" in want:
        lab = canonical_labels(system)
        got = table_digests(kl, lab)
        for side in SIDES:
            got[side] = partition_digest(parts[side].cells, lab)
        for key, value in want["digests"].items():
            _expect(checks, f"{name} {key} digest", got[key], value)


def kl_cells_run(inputs: dict, checks: Checks) -> None:
    for name, cartan in inputs["groups"]:
        # one group at a time, so the first table is freed before the second
        _kl_cells_group(name, cartan, inputs["samples"][name], checks)


# ---------------------------------------------------------------------------
# verify-all

def verify_all_inputs(seed: int) -> dict:
    # The suites take no random input; the seed is only recorded.
    return {"suites": list(SUITES), "typea_n": 6}


def verify_all_run(inputs: dict, checks: Checks) -> None:
    reports = []
    for suite in inputs["suites"]:
        reports.extend(verify.run_suite(suite, typea_n=inputs["typea_n"]))
    for rep in reports:
        checks.check(rep.ok, f"report {rep.name!r} failed: "
                             f"{len(rep.violations)} violations, first "
                             f"{rep.violations[:1]}")
    _expect(checks, "report count", len(reports), EXPECTED["verify-all"]["reports"])


# ---------------------------------------------------------------------------
# tau-rs

def tau_rs_inputs(seed: int) -> dict:
    perms = list(itertools.permutations(range(1, 9)))
    random.Random(seed).shuffle(perms)
    return {"b5": CARTAN["B5"], "a6": "A6", "perms": perms}


def tau_rs_run(inputs: dict, checks: Checks) -> None:
    want = EXPECTED["tau-rs"]
    b5 = coxeter.CoxeterSystem.from_cartan(inputs["b5"])
    a6 = coxeter.CoxeterSystem.from_type(inputs["a6"])
    got = {}
    for label, system in (("B5", b5), ("A6", a6)):
        got[label] = {"tau": stars.tau_partition(system),
                      "tau-tilde": stars.tau_tilde_partition(system)}
    for kind in ("tau", "tau-tilde"):
        _expect(checks, f"A6 {kind} classes", len(got["A6"][kind].classes),
                want["A6"][kind])
    lab = canonical_labels(b5)
    for kind in ("tau", "tau-tilde"):
        _expect(checks, f"B5 {kind} digest",
                partition_digest(got["B5"][kind].classes, lab), want["B5"][kind])

    p_symbols: dict[tuple[int, ...], set] = {}
    for perm in inputs["perms"]:
        p, q = typea.rs_correspondence(perm)
        ok = typea.inverse_rs(p, q) == perm
        checks.check(ok, "" if ok else f"inverse_rs(rs({perm})) != {perm}")
        p_symbols.setdefault(tuple(map(len, p)), set()).add(p)
    n = len(inputs["perms"][0])
    _expect(checks, "sum of f_lambda^2",
            sum(len(ps) ** 2 for ps in p_symbols.values()), factorial(n))


WORKLOADS = {
    "kl-cells": (kl_cells_inputs, kl_cells_run),
    "verify-all": (verify_all_inputs, verify_all_run),
    "tau-rs": (tau_rs_inputs, tau_rs_run),
}
