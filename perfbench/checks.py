"""Checks on omlab's outputs that do not trust omlab's own verdict.

* ``digest``: a hash of every deterministic report field (all but
  ``wall_clock_s``), so replays of one argv can be compared byte for byte.
* ``Ledger``: per-argv digests and exact counters, kept in a file keyed by a
  hash of the program's source.  Every later execution of the argv, in the
  same run or a later run of the same source, must match.
* ``check_pbr``: recomputes what a PBR verdict claims.  A feasible witness
  is substituted into every constraint in exact arithmetic against a Born
  table computed here with numpy; an infeasible verdict must have tested
  every grid point, counted here combinatorially, so a faster verdict
  cannot come from skipped points.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

PREPS = ("Psi1", "Psi2", "Psi3", "Psi4")
OUTCOMES = ("phi1", "phi2", "phi3", "phi4")
NULL = "null"


def source_digest(src: Path) -> str:
    """sha256 over every file of the ``omlab`` package, paths included."""
    h = hashlib.sha256()
    for path in sorted((src / "omlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def digest(doc: dict | None, error: str | None) -> str:
    if doc is None:
        text = f"error: {error}"
    else:
        text = json.dumps({k: v for k, v in doc.items() if k != "wall_clock_s"},
                          sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Ledger:
    """argv -> {"digest": ..., "counters": {...}}, persisted between runs."""

    def __init__(self, path: Path):
        self.path = path
        self.records = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, argv: list, record: dict) -> list:
        key = json.dumps(argv)
        known = self.records.setdefault(key, {})
        problems = [f"{field} of {' '.join(argv)} changed: {known[field]} -> {value}"
                    for field, value in record.items()
                    if field in known and known[field] != value]
        for field, value in record.items():
            known.setdefault(field, value)
        return problems

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.records, sort_keys=True))
        os.replace(tmp, self.path)


def check_echo(argv: list, doc: dict) -> list:
    """The report describes the command that was asked for."""
    verb, target = argv[2], argv[3]  # argv is --format json VERB TARGET [options]
    command = doc.get("config", {}).get("command")
    if command != f"{verb} {target}":
        return [f"report for {' '.join(argv)} describes {command!r}"]
    return []


def _born_table() -> dict:
    k0, k1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    kp, km = (k0 + k1) / math.sqrt(2), (k0 - k1) / math.sqrt(2)
    s = 1 / math.sqrt(2)
    preps = dict(zip(PREPS, (np.kron(k0, k0), np.kron(k0, kp),
                             np.kron(kp, k0), np.kron(kp, kp))))
    phis = dict(zip(OUTCOMES, (
        s * (np.kron(k0, k1) + np.kron(k1, k0)),
        s * (np.kron(k0, km) + np.kron(k1, kp)),
        s * (np.kron(kp, k1) + np.kron(km, k0)),
        s * (np.kron(kp, km) + np.kron(km, kp)),
    )))
    return {(p, k): Fraction(float(abs(phis[k] @ preps[p]) ** 2)).limit_denominator(64)
            for p in PREPS for k in OUTCOMES}


BORN = _born_table()


def _grid_counts(size: int, den: int) -> dict:
    """Number of grid vectors (multiples of 1/den summing to 1 over `size`
    entries) by their first entry, in units of 1/den."""
    if size == 1:
        return {den: 1}
    return {k: math.comb(den - k + size - 2, size - 2) for k in range(den + 1)}


def expected_points(args: dict) -> int:
    """Grid points (times joint families) an exhaustive search must test."""
    size, den = args["lambda_size"], args["grid_denominator"]
    floor = 0 if args["q"] is None else math.ceil(Fraction(args["q"]) * den)
    counts = {k: n for k, n in _grid_counts(size, den).items() if k >= floor}
    total = 0
    for k0, n0 in counts.items():
        for kp, np_ in counts.items():
            families = 1
            if args["relax_product"] and min(k0, kp) > 0:
                families = 3 if size > 1 else 2
            total += n0 * np_ * families
    return total


def check_pbr(doc: dict) -> list:
    args = doc["config"]["args"]
    verdicts = [c for c in doc["checks"] if c["name"].startswith("pbr verdict")]
    if len(verdicts) != 1 or "detail" not in verdicts[0]:
        return ["pbr report carries no verdict detail"]
    verdict = verdicts[0]["detail"]
    if verdict["status"] == "infeasible":
        return _check_infeasible(args, verdict)
    return _check_witness(args, verdict["witness"])


def _check_infeasible(args: dict, verdict: dict) -> list:
    problems = []
    want = expected_points(args)
    if verdict["tested_points"] != want:
        problems.append(f"infeasible verdict tested {verdict['tested_points']} "
                        f"points, the grid has {want}")
    chain = (verdict.get("certificate") or {}).get("forced_zeros")
    if chain is not None:
        outcomes = set()
        for link in chain:
            prep, outcome = PREPS[link["pair"][0] - 1], OUTCOMES[link["pair"][1] - 1]
            outcomes.add(outcome)
            if BORN[(prep, outcome)] != 0:
                problems.append(f"certificate zero pair {prep},{outcome} has Born > 0")
        if outcomes != set(OUTCOMES):
            problems.append("certificate does not starve every outcome")
    return problems


def _check_witness(args: dict, w: dict) -> list:
    problems = []
    p0 = [Fraction(x) for x in w["p0"]]
    pplus = [Fraction(x) for x in w["pplus"]]
    labels = w["lambda"]
    if sum(p0) != 1 or sum(pplus) != 1 or min(p0 + pplus) < 0:
        problems.append("witness weights are not distributions")
    if args["q"] is not None and min(p0[0], pplus[0]) < Fraction(args["q"]):
        problems.append("witness misses the forced overlap floor")
    singles = {"0": dict(zip(labels, p0)), "+": dict(zip(labels, pplus))}
    pattern = dict(zip(PREPS, (("0", "0"), ("0", "+"), ("+", "0"), ("+", "+"))))
    joints = {}
    for prep in PREPS:
        joints[prep] = {tuple(map(int, cell.split(","))): Fraction(v)
                        for cell, v in w["joints"][prep].items()}
        if sum(joints[prep].values()) != 1 or min(joints[prep].values()) < 0:
            problems.append(f"joint of {prep} is not a distribution")
        if not args["relax_product"]:
            a, b = pattern[prep]
            product = {(x, y): singles[a][x] * singles[b][y]
                       for x in labels for y in labels if singles[a][x] * singles[b][y] > 0}
            if product != joints[prep]:
                problems.append(f"joint of {prep} is not the product of its marginals")
    xi = {key: Fraction(v) for key, v in w["xi"].items()}
    if any(v < 0 for v in xi.values()):
        problems.append("negative response entry")
    outcomes = w["outcomes"]

    def resp(k, cell):
        return xi.get(f"{k}|{cell[0]},{cell[1]}", Fraction(0))

    for cell in {c for j in joints.values() for c in j}:
        if sum(resp(k, cell) for k in outcomes) != 1:
            problems.append(f"response at {cell} does not sum to 1")
    budget = args["null_budget"]
    for prep in PREPS:
        null_rate = sum((wt * resp(NULL, c) for c, wt in joints[prep].items()), Fraction(0))
        if budget is None and null_rate:
            problems.append(f"{prep} has no-shows without a budget")
        if budget is not None and null_rate > Fraction(budget):
            problems.append(f"{prep} no-show rate {null_rate} exceeds the budget")
        for k in OUTCOMES:
            got = sum((wt * resp(k, c) for c, wt in joints[prep].items()), Fraction(0))
            if got != BORN[(prep, k)] * (1 - null_rate):
                problems.append(f"witness gives P({k}|{prep}) = {got}, "
                                f"Born wants {BORN[(prep, k)]}")
    return problems
