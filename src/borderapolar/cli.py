"""Command-line interface: annihilators, Hilbert functions, ideal transport,
certificate checks, and the built-in selftest suites.

File formats are JSON with exact coefficients serialized as strings ("-3/7").
Exit codes: 0 for success/pass, 1 for a failed check, 2 for usage or parse
errors.  The optional prime modulus can come from the environment
(BORDERAPOLAR_MODULUS), and so can `selftest`'s seed (BORDERAPOLAR_SEED); flags
win.  `--modulus` is taken by every subcommand but `selftest`, `--degree-bound`
by every one but `ann` and `selftest`, and `--seed` by `selftest` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .apolarity import (
    GeneralTensor,
    ann_piece,
    ann_sym_piece,
    as_symmetric,
    depolarize,
    polarize,
    HomPoly,
)
from .grading import (
    PieceElement,
    RingSpec,
    _dim_piece,
    check_degree,
    degree_total,
    format_element,
    format_monomial,
    monomials,
    segre_ring,
    veronese_ring,
)
from .ideals import (
    PointSet,
    TruncatedIdeal,
    diagonal_ideal,
    expand,
    hilbert_function,
    is_ideal_closed,
    point_ideal,
)
from .linalg import QQ, Subspace, field_for_modulus
from .transfer import Certificate, comon_certificate, rho_ideal, sigma, upsilon


class UsageError(Exception):
    """Bad flags, malformed files, out-of-range parameters: exit code 2."""


# -- scalar and file parsing -----------------------------------------------------

def parse_scalar(raw, where: str) -> Fraction:
    try:
        if isinstance(raw, bool):
            raise ValueError("booleans are not coefficients")
        if isinstance(raw, int):
            return Fraction(raw)
        if isinstance(raw, str):
            return Fraction(raw.strip())
        raise ValueError(f"unsupported coefficient type {type(raw).__name__}")
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad coefficient at {where}: {raw!r} ({exc})") from exc


def parse_int(raw, where: str) -> int:
    """An integer field of an input file: a JSON integer or a string of one."""
    try:
        if isinstance(raw, (int, str)) and not isinstance(raw, bool):
            return int(raw)
    except ValueError:
        pass
    raise UsageError(f"{where}: expected an integer, got {raw!r}")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _list(raw, at: str) -> list:
    if not isinstance(raw, list):
        raise UsageError(f"{at}: expected a list, got {type(raw).__name__}")
    return raw


def _objects(raw, at: str):
    """(location, entry) for each entry of the JSON list of objects at `at`."""
    for t, item in enumerate(_list(raw, at)):
        if not isinstance(item, dict):
            raise UsageError(f"{at}[{t}]: expected an object, got {type(item).__name__}")
        yield f"{at}[{t}]", item


def tensor_from_file(path: str, field):
    """The tensor of a 'tensor' file, or the polarization of a 'poly' file."""
    data = _load_json(path)
    for key in ("n", "d", "representation"):
        if key not in data:
            raise UsageError(f"{path}: missing field {key!r}")
    ring = _ring_from_header(data, path, "S")
    n, d = ring.n, ring.d
    rep = data["representation"]
    if rep not in ("poly", "tensor"):
        raise UsageError(f"{path}: representation must be 'poly' or 'tensor', got {rep!r}")
    poly = rep == "poly"
    items, key_name, length = ("terms", "exps", n) if poly else ("entries", "idx", d)
    coeffs = {}
    for where, item in _objects(data.get(items, []), f"{path}:{items}"):
        raw = item.get(key_name)
        if not isinstance(raw, list) or len(raw) != length:
            raise UsageError(f"{where}: {key_name} must be a length-{length} list")
        c = parse_scalar(item.get("coeff", 0), where + ".coeff")
        key = tuple(parse_int(e, f"{where}.{key_name}") for e in raw)
        if poly and sum(key) != d:
            raise UsageError(f"{where}: exponents sum to {sum(key)}, expected {d}")
        if not poly:
            key = tuple(i - 1 for i in key)
            if any(not 0 <= i < n for i in key):
                raise UsageError(f"{where}: indices must lie in 1..{n}")
        coeffs[key] = coeffs.get(key, Fraction(0)) + c
    try:
        if poly:
            return polarize(HomPoly(n, d, coeffs, field=field))
        return GeneralTensor(n, d, coeffs, field=field)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _ring_from_header(data: dict, path: str, kind=None) -> RingSpec:
    kind = kind or data.get("ring")
    if kind not in ("S", "V"):
        raise UsageError(f"{path}: ring must be 'S' or 'V', got {kind!r}")
    n = parse_int(data.get("n", 0), f"{path}:n")
    d = parse_int(data.get("d", 1), f"{path}:d")  # checked on both sides, read by S alone
    try:
        return segre_ring(n, d) if kind == "S" else veronese_ring(n)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _parse_degree(ring: RingSpec, raw, where: str):
    if isinstance(raw, str):  # "3" or "1,1,0", as given on the command line
        raw = [parse_int(x, where) for x in raw.split(",")] if "," in raw else parse_int(raw, where)
    try:
        return check_degree(ring, raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{where}: bad degree {raw!r} ({exc})") from exc


def load_ideal_file(path: str, field, degree_bound) -> TruncatedIdeal:
    """The ideal of a file, truncated at the file's bound, or at `degree_bound`
    when that is given; a `degree_bound` above the file's bound is refused, as
    the file says nothing past its own.  Generators are expanded to the bound;
    explicit pieces are trusted but validated for closure.  Dense basis rows
    become sparse rows of field elements once their lengths are checked.
    Loaded ideals carry unknown provenance."""
    data = _load_json(path)
    ring = _ring_from_header(data, path)
    if "bound" not in data:
        raise UsageError(f"{path}: missing field 'bound'")
    file_bound = parse_int(data["bound"], f"{path}:bound")
    if file_bound < 0:
        raise UsageError(f"{path}: bound must be nonnegative, got {file_bound}")
    if degree_bound is not None and degree_bound > file_bound:
        raise UsageError(
            f"{path}: --degree-bound {degree_bound} exceeds the file's bound {file_bound}")
    bound = file_bound if degree_bound is None else degree_bound
    if "pieces" in data:
        pieces = {}
        for where, item in _objects(data["pieces"], f"{path}:pieces"):
            u = _parse_degree(ring, item.get("degree"), where)
            dim = _dim_piece(ring, u)
            at = f"{where}.basis"
            rows = [[parse_scalar(x, at) for x in _list(row, at)]
                    for row in _list(item.get("basis", []), at)]
            if any(len(row) != dim for row in rows):
                raise UsageError(f"{where}: basis rows must have length {dim}")
            try:
                rows = [[(c, x) for c, x in enumerate(map(field.of, row)) if x] for row in rows]
                pieces[u] = Subspace.from_rows(dim, rows, (ring, u), field)
            except ValueError as exc:
                raise UsageError(f"{where}: {exc}") from exc
        try:
            ideal = TruncatedIdeal(ring, bound, pieces, "user")
        except ValueError as exc:  # a degree up to the bound without a piece
            raise UsageError(f"{path}: {exc}") from exc
        if not is_ideal_closed(ideal):
            raise UsageError(f"{path}: the stored pieces are not ideal-closed")
        return ideal
    gens = []
    for where, item in _objects(data.get("generators", []), f"{path}:generators"):
        u = _parse_degree(ring, item.get("degree"), where)
        if degree_total(u) > file_bound:
            raise UsageError(
                f"{where}: generator degree {u} exceeds the file's bound {file_bound}"
            )
        terms = {}
        for at, term in _objects(item.get("terms", []), f"{where}.terms"):
            mono = term.get("monomial")
            c = parse_scalar(term.get("coeff", 0), f"{at}.coeff")
            at += ".monomial"
            rows = mono if ring.is_multigraded and isinstance(mono, list) else [mono]
            if not all(isinstance(row, list) for row in rows):
                raise UsageError(f"{at}: bad monomial {mono!r}")
            mono = tuple(tuple(parse_int(e, at) for e in row) for row in rows)
            mono = mono if ring.is_multigraded else mono[0]
            terms[mono] = terms.get(mono, Fraction(0)) + c
        try:
            gens.append(PieceElement.from_terms(ring, u, terms, field=field))
        except ValueError as exc:
            raise UsageError(f"{where}: {exc}") from exc
    return expand(gens, ring, bound, field=field)


def dump_ideal(ideal: TruncatedIdeal) -> dict:
    ring = ideal.ring
    return {
        "ring": "S" if ring.is_multigraded else "V",
        "n": ring.n,
        "d": ring.d,
        "bound": ideal.bound,
        "pieces": [
            {
                "degree": list(u) if isinstance(u, tuple) else u,
                "dim": piece.dim,
                "basis": [list(map(str, row)) for row in piece.basis],
            }
            for u in ideal.degrees() for piece in (ideal.pieces[u],)
        ],
    }


def load_points(path: str, n: int, field) -> PointSet:
    data = _load_json(path)
    pts = data.get("points")
    if not isinstance(pts, list) or not pts:
        raise UsageError(f"{path}: expected a nonempty 'points' list")
    parsed = []
    for t, p in enumerate(pts):
        if not isinstance(p, list) or len(p) != n:
            raise UsageError(f"{path}:points[{t}]: expected {n} coordinates")
        parsed.append(tuple(parse_scalar(x, f"{path}:points[{t}]") for x in p))
    try:
        return PointSet(veronese_ring(n), tuple(parsed), field=field)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


# -- output ------------------------------------------------------------------------

def _write_output(path: str, text: str, mode: str = "w"):
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit_payload(payload: dict, text_lines: list, args):
    """The report in `--format`, to `--output` or stdout."""
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(text_lines)
    text = text if text.endswith("\n") else text + "\n"
    if args.output:
        _write_output(args.output, text)
    else:
        sys.stdout.write(text)


def certificate_lines(cert: Certificate) -> list:
    lines = [
        f"check:      {cert.check}",
        f"inputs:     {cert.inputs_digest}",
        f"verdict:    {'pass' if cert.verdict else 'FAIL'}",
    ]
    if cert.slip_provenance:
        lines.append(f"membership: {cert.slip_provenance}")
    if cert.tested_bound is not None:
        lines.append(f"tested up to total degree {cert.tested_bound}")
    if cert.failure:
        lines.append(f"failure:    {cert.failure}")
    for w in cert.witnesses:
        parts = [f"{k}={v}" for k, v in w.items()]
        lines.append("  - " + ", ".join(parts))
    return lines


# -- subcommands ----------------------------------------------------------------------

def cmd_ann(args, field) -> int:
    f = tensor_from_file(args.tensor, field)
    raw = args.degree
    if "," in raw:
        ring = segre_ring(f.n, f.order)
        u = _parse_degree(ring, raw, "--degree")
        sub = ann_piece(f, u)
    else:
        try:
            p = depolarize(f)
        except ValueError as exc:
            raise UsageError(f"a Veronese-side degree needs a symmetric tensor: {exc}") from exc
        ring = veronese_ring(p.n)
        u = _parse_degree(ring, raw, "--degree")
        sub = ann_sym_piece(p, u)
    ring_desc = f"ring S, n={ring.n}, d={ring.d}" if ring.is_multigraded else f"ring V, n={ring.n}"
    lines = [
        ring_desc,
        f"degree {u}: piece dimension {_dim_piece(ring, u)}, annihilator dimension {sub.dim}",
    ]
    if sub.is_full:
        lines.append("the annihilator is the full graded piece")
    for row in sub.basis:
        lines.append("  " + format_element(ring, u, row))
    payload = {
        "ring": "S" if ring.is_multigraded else "V",
        "n": ring.n,
        "d": ring.d,
        "degree": list(u) if isinstance(u, tuple) else u,
        "dim_piece": _dim_piece(ring, u),
        "dim": sub.dim,
        "full": sub.is_full,
        "monomials": [format_monomial(ring, m) for m in monomials(ring, u)],
        "basis": [list(map(str, row)) for row in sub.basis],
    }
    _emit_payload(payload, lines, args)
    return 0


def _ideal_from_args(args, field) -> TruncatedIdeal:
    if args.diagonal:
        if args.modulus is not None:
            raise UsageError(
                "--diagonal builds the diagonal ideal over Q; it does not take --modulus")
        n, d = args.diagonal
        bound = args.degree_bound if args.degree_bound is not None else d + 1
        try:
            return diagonal_ideal(int(n), int(d), bound)
        except ValueError as exc:  # n or d below 1
            raise UsageError(str(exc)) from exc
    if not args.ideal:
        raise UsageError("provide an ideal file or --diagonal N D")
    return load_ideal_file(args.ideal, field, args.degree_bound)


def cmd_hf(args, field) -> int:
    degrees = list(args.degrees)
    if args.diagonal and args.ideal:
        # with --diagonal the leading positional is really a degree
        degrees.insert(0, args.ideal)
        args.ideal = None
    ideal = _ideal_from_args(args, field)
    ring = ideal.ring
    rows = []
    for raw in degrees:
        u = _parse_degree(ring, raw, "degree")
        if degree_total(u) > ideal.bound:
            raise UsageError(
                f"degree {u} exceeds the truncation bound {ideal.bound}"
            )
        rows.append((u, hilbert_function(ideal, u)))
    width = max(len(str(u)) for u, _ in rows)
    lines = [f"{str(u):>{width}}  {hf}" for u, hf in rows]
    payload = {
        "values": [
            {"degree": list(u) if isinstance(u, tuple) else u, "hf": hf}
            for u, hf in rows
        ]
    }
    _emit_payload(payload, lines, args)
    return 0


def _transport(args, field, fn, *extra) -> int:
    """Print fn(ideal, *extra) for the ideal file; a ValueError from the map exits 2."""
    ideal = load_ideal_file(args.ideal, field, args.degree_bound)
    try:
        out = fn(ideal, *extra)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = dump_ideal(out)
    lines = [
        f"ring {payload['ring']}, n={payload['n']}, d={payload['d']}, bound {payload['bound']}"
    ]
    for item in payload["pieces"]:
        lines.append(f"degree {item['degree']}: dim {item['dim']}")
    _emit_payload(payload, lines, args)
    return 0


def cmd_check(args, field) -> int:
    if args.points and args.ideal:
        raise UsageError("give one candidate ideal: --points or --ideal, not both")
    f = tensor_from_file(args.tensor, field)
    try:
        f = as_symmetric(f)
    except ValueError as exc:
        raise UsageError(f"the check needs a symmetric tensor: {exc}") from exc
    n, d = f.n, f.order
    bound = args.degree_bound if args.degree_bound is not None else d + 1
    if bound < d:
        raise UsageError(
            f"--degree-bound {bound} is below the tensor order {d}: "
            f"the check reads the pieces up to total degree {d}"
        )
    if args.points:
        zs = load_points(args.points, n, field)
        if zs.count != args.r:
            raise UsageError(
                f"decomposition hint has {zs.count} points but r={args.r}"
            )
        ideal = upsilon(point_ideal(zs, bound), d, bound)
    elif args.ideal:
        ideal = load_ideal_file(args.ideal, field, args.degree_bound)
    else:
        raise UsageError("provide an ideal file or a --points decomposition hint")
    try:
        cert = comon_certificate(f, args.r, ideal)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    payload = cert.to_dict()
    lines = certificate_lines(cert)
    if args.sharp_check:
        from .bounds import is_111_sharp, is_sharp

        try:
            extra = {"sharp": is_sharp(f)}
            if d == 3:
                extra["sharp111"] = is_111_sharp(f)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        for key, sharp in extra.items():
            payload[key] = sharp.to_dict()
            lines += ["", *certificate_lines(sharp)]
    _emit_payload(payload, lines, args)
    return 0 if cert.verdict else 1


def cmd_selftest(args, field) -> int:
    from .selftest import run_selftest

    seed = args.seed if args.seed is not None else (_env_int("BORDERAPOLAR_SEED") or 0)
    results, ok = run_selftest(scale=args.scale, seed=seed)
    width = max(len(r.name) for r in results)
    lines = [f"{'suite':<{width}}  instances  seconds  result"]
    for r in results:
        lines.append(
            f"{r.name:<{width}}  {r.instances:>9}  {r.seconds:>7.2f}  "
            f"{'pass' if r.passed else 'FAIL ' + r.detail}"
        )
    lines.append(f"overall: {'pass' if ok else 'FAIL'}")
    payload = {
        "scale": args.scale,
        "overall": "pass" if ok else "fail",
        "suites": [
            {
                "name": r.name,
                "instances": r.instances,
                "seconds": round(r.seconds, 3),
                "result": "pass" if r.passed else "fail",
                "detail": r.detail,
            }
            for r in results
        ],
    }
    _emit_payload(payload, lines, args)
    return 0 if ok else 1


# -- argument wiring -------------------------------------------------------------------

def _env_int(name: str):
    raw = os.environ.get(name)
    return parse_int(raw, f"environment variable {name}") if raw else None


def _add_common(sp, modulus: bool = True, degree_bound: bool = True):
    if modulus:
        sp.add_argument("--modulus", type=int, default=None,
                        help="work over Z/p for a prime p > 2^20 (probabilistic verdicts)")
    if degree_bound:
        sp.add_argument("--degree-bound", type=int, default=None,
                        help="override the truncation bound")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--output", default=None, help="write the report to a file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="borderapolar",
        description="Exact multigraded apolarity and border-rank certificate transfer.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ann", help="print a basis of one annihilator piece")
    p.add_argument("tensor", help="tensor/polynomial JSON file")
    p.add_argument("degree", help="an integer (V side) or comma-separated vector (S side)")
    _add_common(p, degree_bound=False)

    p = sub.add_parser("hf", help="Hilbert function values of a truncated ideal")
    p.add_argument("ideal", nargs="?", help="ideal JSON file")
    p.add_argument("degrees", nargs="+", help="degrees, integers or comma-separated vectors")
    p.add_argument("--diagonal", nargs=2, type=int, metavar=("N", "D"),
                   help="use the built-in diagonal ideal instead of a file")
    _add_common(p)

    p = sub.add_parser("upsilon", help="desymmetrize a V-side ideal into the S ring")
    p.add_argument("ideal")
    p.add_argument("--factors", type=int, required=True, help="number of Segre factors d")
    _add_common(p)

    p = sub.add_parser("sigma", help="symmetrize an S-side ideal containing the diagonal ideal")
    p.add_argument("ideal")
    _add_common(p)

    p = sub.add_parser("rho", help="restrict an S-side ideal to the first factor")
    p.add_argument("ideal")
    _add_common(p)

    p = sub.add_parser("check", help="run the full transfer certificate pipeline")
    p.add_argument("tensor")
    p.add_argument("r", type=int, help="target border rank")
    p.add_argument("--ideal", default=None, help="candidate ideal JSON file")
    p.add_argument("--points", default=None,
                   help="JSON decomposition hint: r points on the Veronese side")
    p.add_argument("--sharp-check", action="store_true",
                   help="attach sharpness certificates")
    _add_common(p)

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    # sorted(selftest.SCALES), written out so that building the parser does not
    # compile `selftest` (a test keeps the two equal)
    p.add_argument("--scale", choices=("deep", "desk"), default="desk")
    p.add_argument("--seed", type=int, default=None, help="seed for randomized suites")
    _add_common(p, modulus=False, degree_bound=False)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        field = QQ
        if "modulus" in args:
            modulus = (args.modulus if args.modulus is not None
                       else _env_int("BORDERAPOLAR_MODULUS"))
            try:
                field = field_for_modulus(modulus)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
        if getattr(args, "degree_bound", None) is not None and args.degree_bound < 0:
            raise UsageError(f"--degree-bound must be nonnegative, got {args.degree_bound}")
        if args.output:  # refused before any work; appending nothing keeps a file's contents
            _write_output(args.output, "", "a")
        handler = {
            "ann": cmd_ann,
            "hf": cmd_hf,
            "upsilon": lambda a, k: _transport(a, k, upsilon, a.factors),
            "sigma": lambda a, k: _transport(a, k, sigma),
            "rho": lambda a, k: _transport(a, k, rho_ideal),
            "check": cmd_check,
            "selftest": cmd_selftest,
        }[args.command]
        return handler(args, field)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # pragma: no cover
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
