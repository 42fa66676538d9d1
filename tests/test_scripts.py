"""Repository checks: the experiment scripts, each run as its own process, and
a guard against dead public functions in the package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args,summary", [
    (["transfer_demo.py", "--n", "3", "--d", "3", "--r", "4", "--seed", "1"],
     "restricted ideal dimensions: [0, 0, 2, 6, 11]"),
    (["sharpness_survey.py", "--samples", "2"],
     "sharp iff 111-sharp on 2/2 instances"),
    # each instance is held to 2 s of wall time, so both certify within it
    (["frontier.py", "--shapes", "3,3", "4,3", "--wall", "2"],
     "largest certified within 2 s and 2048 MB: (4, 3)"),
], ids=["transfer_demo", "sharpness_survey", "frontier"])
def test_script_runs(args, summary):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == summary


def test_frontier_records_the_peak_rss_after_each_stage(tmp_path):
    """Each instance of `frontier.py --out` holds the peak RSS after each
    stage, from before F to the certificate: `ru_maxrss` never falls, and the
    last is the reported peak."""
    out = tmp_path / "frontier.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "frontier.py"), "--shapes", "3,3",
         "--wall", "20", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (row,) = json.loads(out.read_text(encoding="utf-8"))["instances"]
    rss = row["rss_mb_after"]
    assert list(rss) == ["start", "tensor", "point_ideal", "upsilon", "certificate"]
    assert list(rss.values()) == sorted(rss.values()) and rss["start"] > 0
    assert row["peak_rss_mb"] == rss["certificate"]


def _used_names(path: Path) -> set:
    """Names a file reads, attributes it takes and names it imports, leaving out
    each top-level function's references to itself."""
    used = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        own = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            if name != own:
                used.add(name)
    return used


def test_every_public_function_has_a_caller():
    """A public top-level function of the package is called from src/ or
    scripts/, or is exported from __init__ (an import counts as a use); a caller
    in tests/ does not count, so code that only the tests read lives there."""
    used = set()
    for top in ("src", "scripts"):
        for path in (ROOT / top).rglob("*.py"):
            used |= _used_names(path)
    dead = []
    for path in sorted((ROOT / "src" / "borderapolar").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                    and node.name not in used):
                dead.append(f"{path.stem}.{node.name}")
    assert dead == []


def test_only_ideals_knows_how_an_ideal_is_held():
    """Whether an ideal is kept by its Veronese pieces or stored piece by piece
    is known to `ideals` alone: no other package module reads `veronese` or
    `_Preimages`."""
    held = {"veronese", "_Preimages"}
    leaks = [f"{path.stem}.{name}"
             for path in sorted((ROOT / "src" / "borderapolar").glob("*.py"))
             if path.stem != "ideals"
             for name in sorted(_used_names(path) & held)]
    assert leaks == []


def _calls(node, name: str) -> bool:
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name)


def _imported(node) -> set:
    """The dotted names an import statement brings in, relative ones undotted."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return {module} | {f"{module}.{alias.name}".lstrip(".") for alias in node.names}
    return set()


def test_only_grading_ranks_a_monomial():
    """`grading` owns the monomial order and the monomial product: no other
    package module calls `rank_monomial`, builds a position index of
    `monomials` (enumerates it or calls `.index` on it) or imports
    `operator.add`, and `apolarity` reads the catalecticant through
    `grading.contractions` without importing `diagonal_maps`."""
    offences = []
    for path in sorted((ROOT / "src" / "borderapolar").glob("*.py")):
        if path.stem == "grading":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _calls(node, "rank_monomial"):
                offences.append(f"{path.stem} ranks a monomial")
            if ((_calls(node, "enumerate") and node.args and _calls(node.args[0], "monomials"))
                    or (_calls(node, "index") and _calls(node.func.value, "monomials"))):
                offences.append(f"{path.stem} indexes monomial positions")
            if "operator.add" in _imported(node) or (
                    isinstance(node, ast.Attribute) and node.attr == "add"
                    and getattr(node.value, "id", None) == "operator"):
                offences.append(f"{path.stem} adds exponent vectors")
            if path.stem == "apolarity" and any(
                    "diagonal_maps" in name.split(".") for name in _imported(node)):
                offences.append("apolarity imports diagonal_maps")
    assert offences == []


def _sliced_product_tables(tree) -> list:
    """The lines where a product table, a `_product_map` call or a name bound to
    one, is sliced: a whole row or a strided column read at once."""
    tables = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                tables |= {t.id for t, value in pairs
                           if isinstance(t, ast.Name) and _calls(value, "_product_map")}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)
            and (_calls(node.value, "_product_map") or getattr(node.value, "id", None) in tables)]


def test_only_grading_contracts():
    """A functional is contracted by monomials in `grading.contractions` alone:
    no other package module slices a product table, and `apolarity` imports
    no private name from `grading`."""
    offences = []
    for path in sorted((ROOT / "src" / "borderapolar").glob("*.py")):
        if path.stem == "grading":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offences += [f"{path.stem}:{line} slices a product table"
                     for line in _sliced_product_tables(tree)]
        if path.stem == "apolarity":
            offences += [f"apolarity imports grading.{alias.name}"
                         for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.module == "grading"
                         for alias in node.names if alias.name.startswith("_")]
    assert offences == []


def test_only_linalg_builds_a_matrix():
    """Elimination takes sparse rows and returns a Subspace or a rank: no
    package module outside `linalg`, and no script, names `Matrix`, the record
    that `rref_with_pivots` reads."""
    paths = [*sorted((ROOT / "src" / "borderapolar").glob("*.py")),
             *sorted((ROOT / "scripts").glob("*.py"))]
    namers = [path.stem for path in paths
              if path.stem != "linalg" and "Matrix" in _used_names(path)]
    assert namers == []


def test_only_apolarity_reads_a_tensors_entries():
    """A multilinear F is read through `apolarity`'s contraction map: no other
    package module reads `.entries`, except `transfer.tensor_digest`, which
    hashes them."""
    readers = [f"{path.stem}.{getattr(top, 'name', '')}"
               for path in sorted((ROOT / "src" / "borderapolar").glob("*.py"))
               if path.stem != "apolarity"
               for top in ast.parse(path.read_text(encoding="utf-8")).body
               if any(isinstance(node, ast.Attribute) and node.attr == "entries"
                      for node in ast.walk(top))]
    assert readers == ["transfer.tensor_digest"]


DEGREE_BOUNDARY = {
    "cli._parse_degree",
    "grading.dim_piece", "grading.monomials", "grading.unrank_monomial",
    "grading.PieceElement.__post_init__", "grading.PieceElement.from_terms",
    "apolarity.ann_piece", "apolarity.ann_sym_piece", "bounds.min_generators_sym_in_degree",
    "diagonal_maps.psi", "diagonal_maps.ir_piece",
    "diagonal_maps.pi_image", "diagonal_maps.psi_image",
    "ideals.expand", "ideals.hilbert_function", "ideals.generic_hf",
    "ideals.is_saturated_degreewise", "ideals.min_generators_in_degree",
    # `piece`, `piece_dim` and `pi_image` check through `_checked`
    "ideals.TruncatedIdeal._checked", "ideals.TruncatedIdeal.with_piece",
}


def test_only_the_boundary_checks_a_degree():
    """A degree is checked once, where it enters the package, and travels
    below as `check_degree` returned it: no package function outside the
    boundary (the CLI's parser and the exports that take a degree) calls
    `check_degree`, or `dim_piece`, which checks; the rest read `_dim_piece`."""
    callers = set()
    for path in sorted((ROOT / "src" / "borderapolar").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{top.name}." if isinstance(top, ast.ClassDef) else ""
            for node in (top.body if owner else [top]):
                if any(_calls(sub, "check_degree") or _calls(sub, "dim_piece")
                       for sub in ast.walk(node)):
                    callers.add(f"{path.stem}.{owner}{getattr(node, 'name', '<module>')}")
    assert sorted(callers - DEGREE_BOUNDARY) == []


# Every function under src/ that builds a fibre table (`PiFibres`), directly,
# by `fibre_table` or by the fold `product_fibres`, as module.function.  The
# tables are made under a cache (`pi_fibres`, `_merge_table`,
# `_compatibility`, `_predecessors`), so an index map is held one way and made
# once per shape; a new builder is added here on purpose.
FIBRE_TABLE_BUILDERS = [
    "diagonal_maps.fibre_table",       # any onto index map
    "diagonal_maps.pi_fibres",         # pi on S_u, by the fold
    "diagonal_maps.product_fibres",    # the fold itself
    "ideals._compatibility",           # the pairs of a variable step
    "ideals._merge_table",             # a merge of factor classes, by the fold
    "ideals._predecessors",            # the first pair of a variable step
]


def test_fibre_tables_are_built_where_pinned():
    """The functions under src/ that call `PiFibres`, `fibre_table` or
    `product_fibres` are exactly `FIBRE_TABLE_BUILDERS`."""
    builders = set()
    for path in sorted((ROOT / "src" / "borderapolar").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{top.name}." if isinstance(top, ast.ClassDef) else ""
            for node in (top.body if owner else [top]):
                if any(_calls(sub, name) for sub in ast.walk(node)
                       for name in ("PiFibres", "fibre_table", "product_fibres")):
                    builders.add(f"{path.stem}.{owner}{getattr(node, 'name', '<module>')}")
    assert sorted(builders) == FIBRE_TABLE_BUILDERS


def test_three_ways_into_elimination():
    """Elimination is entered through `Subspace.from_rows`, `kernel` and
    `rank` alone: no other package function calls `rref_with_pivots`, so a
    subspace already held is never reduced again to reorder its columns."""
    callers = set()
    for path in sorted((ROOT / "src" / "borderapolar").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{top.name}." if isinstance(top, ast.ClassDef) else ""
            for node in (top.body if owner else [top]):
                if any(_calls(sub, "rref_with_pivots") for sub in ast.walk(node)):
                    callers.add(f"{path.stem}.{owner}{getattr(node, 'name', '<module>')}")
    assert sorted(callers) == ["linalg.Subspace.from_rows", "linalg.kernel", "linalg.rank"]


# Every function under src/ that builds an `IntRows`, as module.function.
# Elimination reads such rows with no check (the `eliminations` fixture checks
# their width and that each is normalized), so a new producer is added here
# on purpose.
INT_ROWS_PRODUCERS = [
    "apolarity._row_span",            # a flattening, on the columns its rows touch if fewer
    "bounds._degree_one_generators",  # the short system of the degree-one count
    "bounds._image_dim",              # the fibre equations of a pi-image
    "ideals._evaluations",            # evaluation at integer points
    "ideals.annihilator_from_below",  # the compatibility equations
    "linalg.Subspace._rows_in",       # the constraints with their columns moved
]


def test_int_rows_are_built_where_pinned():
    """The functions under src/ that call `IntRows` are exactly
    `INT_ROWS_PRODUCERS`."""
    producers = set()
    for path in sorted((ROOT / "src" / "borderapolar").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{top.name}." if isinstance(top, ast.ClassDef) else ""
            for node in (top.body if owner else [top]):
                if any(_calls(sub, "IntRows") for sub in ast.walk(node)):
                    producers.add(f"{path.stem}.{owner}{getattr(node, 'name', '<module>')}")
    assert sorted(producers) == INT_ROWS_PRODUCERS


# Every function under src/ that calls `grading.contractions`, as
# module.function: the colon, the one writer of catalecticant rows and the
# exact pairing of a form with an element of V_k.  A new caller is added here
# on purpose.
CONTRACTION_CALLERS = [
    "apolarity._catalecticant",  # Cat_k as integer rows, read by the kernels and checks
    "apolarity.contract_poly",   # the exact functional, paired with an element
    "grading.colon",             # (H : S_v)_u for any functionals
]


def test_catalecticant_rows_have_one_writer():
    """A form's catalecticant rows are written by `apolarity._catalecticant`
    alone: no module but `apolarity` reads `_functional` or `_gamma_weights`
    (by import, by name or through the module), none but `apolarity` and
    `grading` names `contractions`, and the functions that call it are
    exactly `CONTRACTION_CALLERS`."""
    offences, callers = [], set()
    for path in sorted((ROOT / "src" / "borderapolar").glob("*.py")):
        used = _used_names(path)
        if path.stem != "apolarity":
            offences += [f"{path.stem} reads {name}"
                         for name in sorted({"_functional", "_gamma_weights"} & used)]
        if path.stem not in ("apolarity", "grading") and "contractions" in used:
            offences.append(f"{path.stem} names contractions")
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{top.name}." if isinstance(top, ast.ClassDef) else ""
            for node in (top.body if owner else [top]):
                if any(_calls(sub, "contractions") for sub in ast.walk(node)):
                    callers.add(f"{path.stem}.{owner}{getattr(node, 'name', '<module>')}")
    assert offences == []
    assert sorted(callers) == CONTRACTION_CALLERS


def test_linalg_makes_field_elements_only_where_rows_are_read():
    """Subspaces store integer rows, so inside `linalg` a `Fraction` or a
    `Mod` is constructed only by the element type itself (`Mod`'s
    arithmetic), by the fields' coercion of outside values (`of`, and the
    zero and one a prime field holds) and by `elements`, which turns a stored
    row into field elements; and only the readers `basis`, `matrix` and
    `reduce_vector` call `elements`."""
    tree = ast.parse((ROOT / "src" / "borderapolar" / "linalg.py").read_text(encoding="utf-8"))
    makers, readers = set(), set()
    for top in tree.body:
        owner = f"{top.name}." if isinstance(top, ast.ClassDef) else ""
        for node in (top.body if owner else [top]):
            if not isinstance(node, ast.FunctionDef):
                continue
            name = f"{owner}{node.name}"
            for sub in ast.walk(node):
                if _calls(sub, "Fraction") or _calls(sub, "Mod"):
                    makers.add("Mod.*" if owner == "Mod." else name)
                if _calls(sub, "elements"):
                    readers.add(name)
    assert sorted(makers) == ["Mod.*", "PrimeField.__init__", "PrimeField.elements",
                              "PrimeField.of", "RationalField.elements", "RationalField.of"]
    assert sorted(readers) == ["Subspace.basis", "Subspace.matrix", "Subspace.reduce_vector"]


def test_bounds_grows_no_primal_span():
    """The sharpness checks grow S_{e_0} J on the annihilator side, in n codim
    unknowns, read pi-images by a fibre test and count the form's generators
    from the catalecticant rows Ann(p)_{k-1} is held by: `bounds` imports none
    of the primal tools (no from-below span, no pi-image), by name or through
    a module.  That it makes no basis of an annihilator piece is checked by
    `test_dual_pieces.py::test_no_basis_of_an_apolar_piece_is_made`."""
    primal = {"pi_image", "span_from_below", "variable_multiples", "min_generators"}
    path = ROOT / "src" / "borderapolar" / "bounds.py"
    imported = {name.rsplit(".", 1)[-1]
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                for name in _imported(node)}
    assert sorted(primal & (imported | _used_names(path))) == []


def test_only_ideals_reduces_a_preimage():
    """A preimage along an index map is written, not reduced: `diagonal_maps`
    pulls a subspace back from its RREF rows (`pullback`) and calls no
    `kernel`, so the one kernel behind a pulled-back piece is the one
    `ideals` takes of merged evaluation columns; and no package module reads
    a private name of `diagonal_maps`, by import or through the module."""
    aliases = {"diagonal_maps"}
    offences = []
    for path in sorted((ROOT / "src" / "borderapolar").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases |= {alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names if alias.name == "diagonal_maps" and alias.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "diagonal_maps":
                offences += [f"{path.stem} imports diagonal_maps.{alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and getattr(node.value, "id", None) in aliases):
                offences.append(f"{path.stem} reads diagonal_maps.{node.attr}")
            if path.stem == "diagonal_maps" and _calls(node, "kernel"):
                offences.append(f"diagonal_maps calls kernel at line {node.lineno}")
    assert offences == []


def test_shape_tables_are_built_once_per_shape(monkeypatch):
    """The index maps that depend on the shape alone are immutable and cached:
    two tensors of one shape read the very same tuples through every `bounds`
    check, and two point sets of one shape through the ideal of their
    diagonal points."""
    import random

    from borderapolar import apolarity, bounds, ideals
    from borderapolar.grading import veronese_ring
    from support import concise_power_sum_instance

    tables = {"_slice_keys": (bounds,), "_gamma_weights": (apolarity,),
              "_compatibility": (ideals,), "_merge_table": (ideals,)}
    read = []
    for name, modules in tables.items():
        real = getattr(modules[0], name)

        def spy(*args, real=real, name=name):
            out = real(*args)
            read.append((name, args, out))
            return out

        for module in modules:
            monkeypatch.setattr(module, name, spy)
    checks = (bounds.is_sharp, bounds.is_111_sharp, bounds.verify_gen_count_transfer,
              bounds.verify_lemma_1_minus_ed, bounds.verify_containment_lemma)
    seen = []
    for seed in (1, 2):
        f = concise_power_sum_instance(3, 3, random.Random(seed))
        read.clear()
        for check in checks:
            check(f)
        z = ideals.very_general_points(veronese_ring(3), 4, 3, random.Random(seed))
        ideals.point_ideal(ideals.diagonal_points(z, 3), 3)
        seen.append(list(read))
    first, second = seen
    assert {name for name, _, _ in first} == set(tables)
    assert [(name, args) for name, args, _ in first] == [(name, args) for name, args, _ in second]
    for (name, _, a), (_, _, b) in zip(first, second):
        assert a is b, name
        assert type(a) is tuple, name


def test_ideals_pulls_segre_pieces_back_along_one_index_map():
    """`point_ideal` and `_Preimages` build their Segre pieces through the one
    helper `diagonal_maps.pullback`, as `ir_piece` does, and `ideals` keys no
    memo by a matrix's column content: it turns no matrix into its columns,
    as the one transpose, `zip(*...)`, is of a point set's integer points."""
    def definitions(module):
        tree = ast.parse((ROOT / "src" / "borderapolar" / f"{module}.py")
                         .read_text(encoding="utf-8"))
        return tree, {node.name: node for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    tree, defs = definitions("ideals")
    pullers = [defs["point_ideal"], defs["_Preimages"], definitions("diagonal_maps")[1]["ir_piece"]]
    for node in pullers:
        assert any(_calls(sub, "pullback") for sub in ast.walk(node)), node.name
    transposes = [ast.unparse(node) for node in ast.walk(tree)
                  if _calls(node, "zip") and any(isinstance(a, ast.Starred) for a in node.args)]
    assert transposes == ["zip(*points)"]


# Every module-level cache under src/, as module.function.  Each grows with
# the keys it is read at and lives as long as the process, so a new one is
# added here on purpose, with what it is keyed by.
LRU_CACHES = [
    "apolarity._gamma_weights",    # (n, d)
    "bounds._slice_keys",          # (n, d, slot)
    "diagonal_maps.pi_fibres",     # (n, d, u)
    "grading._degree_set",         # (ring, bound)
    "grading._degrees_up_to",      # (ring, bound)
    "grading._monomials",          # (ring, u)
    "grading._product_map",        # (ring, u, v)
    "grading._ring",               # (n, d, kind)
    "grading._veronese_dims",      # n
    "ideals._compatibility",       # (ring, u, factor)
    "ideals._merge_table",         # (n, u, classes)
    "ideals._predecessors",        # (ring, u)
]

# What a function may call on a dict or a set to write into it.
_WRITERS = {"setdefault", "update", "add", "pop", "popitem", "clear", "discard", "remove",
            "__setitem__", "__delitem__", "difference_update", "intersection_update",
            "symmetric_difference_update"}


def _module_containers(tree) -> set:
    """The names a module binds at its top level to a dict or a set, as a
    display, a comprehension or a call of a container type."""
    names = set()
    for top in tree.body:
        if isinstance(top, ast.Assign):
            targets, value = top.targets, top.value
        elif isinstance(top, ast.AnnAssign) and top.value is not None:
            targets, value = [top.target], top.value
        else:
            continue
        if (isinstance(value, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp))
                or (isinstance(value, ast.Call) and getattr(value.func, "id", None)
                    in ("dict", "set", "defaultdict", "OrderedDict", "Counter"))):
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _writes_into(function, names: set) -> list:
    """The lines at which `function` writes into one of the containers `names`:
    an item assigned, augmented or deleted, or a writing method called."""
    lines = []
    for node in ast.walk(function):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
            if isinstance(node, ast.AugAssign) and getattr(node.target, "id", None) in names:
                lines.append(node.lineno)  # in place: s |= {...}
        lines += [node.lineno for t in targets
                  if isinstance(t, ast.Subscript) and getattr(t.value, "id", None) in names]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _WRITERS and getattr(node.func.value, "id", None) in names):
            lines.append(node.lineno)
    return lines


def test_module_level_caches_are_pinned():
    """Every `lru_cache` (or `functools.cache`) under src/ decorates a
    module-level function, and those functions are exactly `LRU_CACHES`.  No
    function writes into a module-level dict or set, which would be a cache
    made by hand that the list does not pin."""
    found, stray, hand_rolled = [], [], []
    for path in sorted((ROOT / "src" / "borderapolar").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorators = set()
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                for dec in top.decorator_list:
                    if any(isinstance(n, (ast.Name, ast.Attribute)) and
                           getattr(n, "id", getattr(n, "attr", None)) in ("lru_cache", "cache")
                           for n in ast.walk(dec)):
                        found.append(f"{path.stem}.{top.name}")
                        decorators.update(id(n) for n in ast.walk(dec))
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            if (isinstance(node, (ast.Name, ast.Attribute)) and name in ("lru_cache", "cache")
                    and id(node) not in decorators):
                stray.append(f"{path.stem} line {node.lineno}")
        containers = _module_containers(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                hand_rolled += [f"{path.stem} line {line}"
                                for line in _writes_into(node, containers)]
    assert stray == []
    assert sorted(set(hand_rolled)) == []
    assert sorted(found) == LRU_CACHES


# Every per-instance memo under src/, a `functools.cached_property` of a
# package class, as module.Class.attribute.  Each lives as long as its
# instance and may grow with the keys it is read at, so a new one is added
# here on purpose, with what it holds.
INSTANCE_MEMOS = [
    "apolarity.SymTensor.entries",      # the entries written from the form
    "ideals.PointSet._integers",        # the points on integer coordinates
    "linalg.Subspace._orders",          # the RREF rows per column order asked
    "linalg.Subspace._row_at",          # the stored rows by pivot
    "linalg.Subspace.perp",             # the annihilator's RREF, made from the basis
    "linalg.Subspace.sparse",           # the basis's RREF, made from the annihilator
    "transfer.Certificate.inputs_digest",  # the digest of the inputs
]


def test_instance_memos_are_pinned():
    """Every `cached_property` under src/ decorates a method of a class at a
    module's top level, and those methods are exactly `INSTANCE_MEMOS`."""
    found, stray = [], []
    for path in sorted((ROOT / "src" / "borderapolar").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorators = set()
        for top in tree.body:
            if not isinstance(top, ast.ClassDef):
                continue
            for node in top.body:
                for dec in getattr(node, "decorator_list", ()):
                    if any(getattr(n, "id", getattr(n, "attr", None)) == "cached_property"
                           for n in ast.walk(dec)):
                        found.append(f"{path.stem}.{top.name}.{node.name}")
                        decorators.update(id(n) for n in ast.walk(dec))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in decorators
                    and getattr(node, "id", getattr(node, "attr", None)) == "cached_property"):
                stray.append(f"{path.stem} line {node.lineno}")
    assert stray == []
    assert sorted(found) == INSTANCE_MEMOS


def test_the_cache_guard_sees_a_hand_rolled_cache():
    """The guard above finds a module-level dict or set written from a
    function in each way it looks for, and leaves a read-only one alone."""
    source = """
MEMO = {}
SEEN = set()
TABLE: dict = dict()
NAMES = {"a", "b"}

def put(k, v):
    MEMO[k] = v

def grow(k):
    SEEN.add(k)
    TABLE.setdefault(k, []).append(k)

def more(k):
    global SEEN
    SEEN |= {k}

def read(k):
    return k in NAMES and MEMO.get(k)
"""
    tree = ast.parse(source)
    containers = _module_containers(tree)
    assert containers == {"MEMO", "SEEN", "TABLE", "NAMES"}
    writes = {node.name: _writes_into(node, containers) for node in tree.body
              if isinstance(node, ast.FunctionDef)}
    assert {name: len(lines) for name, lines in writes.items()} == {
        "put": 1, "grow": 2, "more": 1, "read": 0}
