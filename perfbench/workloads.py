"""Seeded inputs, items and per-item correctness checks for the four workloads.

Inputs are drawn here, in plain Python, from `random.Random(f"{workload}/{seed}")`;
the package only ever receives the generated tensor files, point files,
`PointSet`s and `SymTensor`s.  Every point set and every set of linear forms is
certified before use by a rank computation modulo a prime (full rank mod p
implies full rank over Q), so the expected verdicts hold by construction:

* power sum of r points + the same points as hint   -> verdict pass;
* power sum of r points + r other points as hint    -> fails at apolarity;
* point ideal -> upsilon -> rho / sigma             -> the same ideal back,
  and upsilon of the point ideal equals the Segre ideal of the diagonal points;
* power sum of n independent linear forms           -> every sharpness check passes
  (the tensor is a change of coordinates of the unit tensor).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

PRIME = 2147483647
COORD = 9

# check-cli / check-modp cycle, (n, d, r, expect, copies).  Each shape runs with
# its true points ("pass") and with a foreign hint (fails at "apolarity").  The
# (3, 3, r) positives are repeated so that the median and the tail latency both
# fall inside one cluster of similar items instead of on a boundary between two.
CHECK = ((2, 3, 2, "pass", 1), (2, 3, 3, "apolarity", 1),
         (2, 4, 3, "pass", 1), (2, 4, 3, "apolarity", 1),
         (3, 3, 3, "pass", 4), (3, 3, 4, "pass", 4), (3, 3, 5, "pass", 4), (3, 3, 6, "pass", 4),
         (3, 3, 3, "apolarity", 1), (3, 3, 4, "apolarity", 1),
         (3, 3, 5, "apolarity", 1), (3, 3, 6, "apolarity", 1),
         # one positive n=4 item (saturation and pi-containment bound) and one
         # negative d=5 item (upsilon bound)
         (4, 3, 4, "pass", 1), (2, 5, 3, "apolarity", 1))
# transport-roundtrip cycle, (n, d, bound, r), two draws each.  (4, 3, bound 4)
# items take 12-20 s each and are left out.  The runs of the two largest shapes
# are fewer than ten, so the tail latency falls among the ten mid-sized items.
TRANSPORT = ((2, 3, 4, 2), (2, 3, 4, 3), (2, 4, 4, 3), (3, 3, 3, 3), (3, 3, 3, 4),
             (3, 3, 3, 5), (3, 3, 3, 6), (4, 3, 3, 4), (3, 3, 4, 5))
# apolarity-scan cycle, (n, d, copies).  One item per cycle is cheaper than the
# (3, 3) ones and one dearer, so the median and the tail both fall among the six
# (3, 3) draws.
SCAN = ((2, 3, 1), (2, 4, 1), (3, 3, 6), (4, 3, 1))


def digest(obj) -> str:
    """Stable short hash of a JSON-able value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- exact input generation ---------------------------------------------------------

def exponents(n: int, k: int) -> list:
    """Exponent vectors of degree k in n variables."""
    if n == 1:
        return [(k,)]
    return [(e,) + rest for e in range(k, -1, -1) for rest in exponents(n - 1, k - e)]


def rank_mod_p(rows) -> int:
    m = [[x % PRIME for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        inv = pow(m[rank][c], PRIME - 2, PRIME)
        m[rank] = [x * inv % PRIME for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % PRIME for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def has_generic_hf(points, bound: int) -> bool:
    """The points impose min(r, dim V_k) conditions in every degree k <= bound,
    over Q and modulo PRIME alike."""
    n = len(points[0])
    for k in range(1, bound + 1):
        monos = exponents(n, k)
        rows = [[math.prod(c ** e for c, e in zip(p, mono)) for mono in monos]
                for p in points]
        if rank_mod_p(rows) != min(len(points), len(monos)):
            return False
    return True


def draw_points(rng: random.Random, n: int, r: int, bound: int) -> list:
    while True:
        pts = [tuple(rng.randint(-COORD, COORD) for _ in range(n)) for _ in range(r)]
        if all(any(p) for p in pts) and has_generic_hf(pts, bound):
            return pts


def draw_forms(rng: random.Random, n: int) -> list:
    while True:
        forms = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)]
        if rank_mod_p(forms) == n:
            return forms


def power_sum_terms(points, d: int) -> dict:
    """sum_p (p . x)^d as exponent vector -> integer coefficient."""
    n = len(points[0])
    terms = {}
    for mono in exponents(n, d):
        mult = math.factorial(d) // math.prod(math.factorial(e) for e in mono)
        c = sum(mult * math.prod(x ** e for x, e in zip(p, mono)) for p in points)
        if c:
            terms[mono] = c
    return terms


def power_sum_entries(forms, d: int) -> dict:
    """sum_l l^{tensor d} as index tuple -> Fraction."""
    n = len(forms[0])
    entries = {}
    for idx in itertools.product(range(n), repeat=d):
        v = sum(math.prod(l[i] for i in idx) for l in forms)
        if v:
            entries[idx] = Fraction(v)
    return entries


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# -- check-cli and check-modp ----------------------------------------------------------

@dataclass
class CheckItem:
    label: str
    argv: list
    expect: str  # "pass" or "apolarity"


def check_items(seed: int, workdir: str, modulus: int | None) -> list:
    """One cycle of CHECK items, each drawn afresh; tensor and point files are
    written into workdir."""
    rng = rng_for("check", seed)
    plan = [(n, d, r, e) for n, d, r, e, copies in CHECK for _ in range(copies)]
    items = []
    for k, (n, d, r, expect) in enumerate(plan):
        pts = draw_points(rng, n, r, d + 1)
        hint = pts if expect == "pass" else draw_points(rng, n, r, d + 1)
        tensor = {"n": n, "d": d, "representation": "poly",
                  "terms": [{"exps": list(e), "coeff": str(c)}
                            for e, c in power_sum_terms(pts, d).items()]}
        tpath = os.path.join(workdir, f"{k:02d}_tensor.json")
        ppath = os.path.join(workdir, f"{k:02d}_points.json")
        with open(tpath, "w", encoding="utf-8") as fh:
            json.dump(tensor, fh)
        with open(ppath, "w", encoding="utf-8") as fh:
            json.dump({"points": [[str(x) for x in p] for p in hint]}, fh)
        argv = ["check", tpath, str(r), "--points", ppath, "--format", "json"]
        if modulus is not None:
            argv += ["--modulus", str(modulus)]
        items.append(CheckItem(f"({n},{d},{r}) {expect}", argv, expect))
    return items


def failing_stage(payload: dict) -> str | None:
    for w in payload.get("witnesses", []):
        if w.get("ok") is False:
            return w.get("stage", "apolarity" if "dim_ann" in w else "unknown")
    return None


def judge_check(item: CheckItem, returncode: int, stdout: str):
    """(digest, error) for one CLI run; error is None when the verdict, exit code
    and failing stage are the expected ones."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return None, f"exit {returncode}, output is not JSON"
    got = "pass" if payload.get("verdict") == "pass" else failing_stage(payload)
    want_rc = 0 if item.expect == "pass" else 1
    if returncode != want_rc or got != item.expect:
        return None, f"exit {returncode}, outcome {got}, expected {item.expect}"
    return digest(payload), None


# -- transport-roundtrip -----------------------------------------------------------------

@dataclass
class TransportItem:
    label: str
    n: int
    d: int
    bound: int
    r: int
    points: object = field(repr=False)  # a borderapolar PointSet


def transport_items(seed: int) -> list:
    from borderapolar import PointSet, veronese_ring

    rng = rng_for("transport-roundtrip", seed)
    items = []
    for n, d, bound, r in TRANSPORT:
        for _ in range(2):
            pts = draw_points(rng, n, r, bound)
            items.append(TransportItem(f"({n},{d},b{bound},{r})", n, d, bound, r,
                                       PointSet(veronese_ring(n), tuple(pts))))
    return items


def run_transport(item: TransportItem, bz) -> dict:
    """The timed library calls of one round trip; bz is the borderapolar package."""
    ideal = bz.point_ideal(item.points, item.bound)
    lifted = bz.upsilon(ideal, item.d, item.bound)
    back = bz.rho_ideal(lifted)
    twisted = bz.sigma(lifted)
    diag = bz.point_ideal(bz.diagonal_points(item.points, item.d), item.bound,
                          provenance="diagonal-points")
    return {"ideal": ideal, "lifted": lifted, "back": back, "twisted": twisted,
            "diag": diag}


def judge_transport(item: TransportItem, out: dict, ideal_digest):
    ideal, lifted = out["ideal"], out["lifted"]
    for u in lifted.degrees():
        want = min(item.r, math.prod(math.comb(item.n - 1 + x, x) for x in u))
        if lifted.pieces[u].codim != want:
            return None, f"upsilon Hilbert function at {u} is not generic"
        if lifted.pieces[u] != out["diag"].pieces[u]:
            return None, f"upsilon differs from the diagonal-points ideal at {u}"
    for k in range(item.bound + 1):
        if out["back"].pieces[k] != ideal.pieces[k]:
            return None, f"rho(upsilon(I)) differs from I in degree {k}"
        if out["twisted"].pieces[k] != ideal.pieces[k]:
            return None, f"sigma(upsilon(I)) differs from I in degree {k}"
    return digest({k: ideal_digest(v) for k, v in out.items()}), None


# -- apolarity-scan ------------------------------------------------------------------------

@dataclass
class ScanItem:
    label: str
    n: int
    d: int
    tensor: object = field(repr=False)  # a borderapolar SymTensor


def scan_items(seed: int) -> list:
    from borderapolar.apolarity import SymTensor

    rng = rng_for("apolarity-scan", seed)
    items = []
    for n, d, copies in SCAN:
        for _ in range(copies):
            forms = draw_forms(rng, n)
            items.append(ScanItem(f"({n},{d})", n, d,
                                  SymTensor(n, d, power_sum_entries(forms, d))))
    return items


def run_scan(item: ScanItem, bz) -> dict:
    f = item.tensor
    out = {"sharp": bz.is_sharp(f)}
    if item.d == 3:
        out["sharp111"] = bz.is_111_sharp(f)
    out["gen_count"] = bz.verify_gen_count_transfer(f)
    out["lemma_1_minus_ed"] = bz.verify_lemma_1_minus_ed(f)
    out["containment"] = bz.verify_containment_lemma(f)
    return out


def judge_scan(item: ScanItem, out: dict):
    failed = [k for k, cert in out.items() if not cert.verdict]
    if failed:
        return None, f"unexpected failing checks {failed}"
    return digest({k: cert.to_dict() for k, cert in out.items()}), None


def src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src", "borderapolar")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total

