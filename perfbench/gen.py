"""Seeded workload items and the reference outputs they are checked against.

    python3 perfbench/gen.py --seed 1    # writes perfbench/sets/seed1.json
    python3 perfbench/gen.py --seed 2    # the held-out set

Each workload is a list of recipes: a subcommand, a spec source and its
arguments.  A spec source is a bundled fixture, the q4p4 spec, a
constant-row-sum matrix, or a cell of the grid over alphabet size q,
word length p, |F|, |R| and reduced versus non-reduced union, which is
filled by rejection sampling (valid, irreducible, right p and mode).
Within one workload no two items share a spec: a repeated spec gets its
alphabet renamed, so a cache that outlives one ``cli.main`` call cannot
hit across items.

Every item is then run once through ``child.py``; its exit code and
exact fields become the reference.  Count tables are confirmed against
the brute-force counter below, which shares no code with the package.
Per-item descriptors (blocks, system order, degree of den F, exact
root) are recorded through public calls.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import shutil
import sys
from math import prod
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "src" / "multishift" / "fixtures"
SETS = HERE / "sets"

Q4P4 = {"name": "q4p4", "alphabet": ["0", "1", "2", "3"],
        "forbidden": ["0123", "3210", "11"],
        "repeated": [{"word": "2020", "multiplicity": 3}, {"word": "013", "multiplicity": 2}]}
# constant row sums 3, so the root is exactly 3; the name counts the words
# of the spec written from the matrix
ROW_SUM_MATRICES = {"row_sum_6w": [[2, 0, 1], [1, 2, 0], [0, 1, 2]],
                    "row_sum_4w": [[1, 1, 1], [2, 1, 0], [0, 1, 2]]}


class Cell(NamedTuple):
    q: int
    p: int
    nf: int
    nr: int
    reduced: bool
    min_blocks: int = 0


# (subcommand, spec source, arguments); "@edgeN" becomes a seeded N-edge
# cylinder of the item's own adjacency matrix
RECIPES = {
    # oracle-bound: |F u R| <= 3, narrow-deep (q=2) beside wide-shallow (q=4) walks
    "language": [
        ("enumerate", Cell(2, 3, 1, 2, True), ["--max-n", "13", "--slices"]),
        ("enumerate", "counting", ["--max-n", "16"]),
        ("enumerate", "sparse_alpha15", ["--max-n", "8"]),
        ("perron", Cell(4, 2, 2, 1, True), []),
        ("escape", "sparse_alpha8", ["--word", "1*0#1", "--budget", "262144"]),
        ("escape", Cell(3, 3, 1, 1, True), ["--word", "@edge1", "--max-n", "9"]),
        ("verify", "counting", ["--json", "--max-n", "18"]),
        ("verify", Cell(3, 3, 2, 1, True), ["--json", "--max-n", "11"]),
    ],
    # exact-core-bound: q=2, 4-6 words, p 4-5, reduced and non-reduced
    "symbolic": [
        ("genfun", Cell(2, 4, 2, 2, True), []),
        ("perron", Cell(2, 4, 2, 2, True), []),
        ("genfun", Cell(2, 5, 3, 2, True), []),
        ("perron", Cell(2, 5, 2, 2, False), []),
        ("genfun", Cell(2, 5, 3, 2, False), []),
        ("perron", "building_blocks", []),
        ("perron", "no_witness", []),
        ("perron", "entropy_split", []),
        ("perron", "row_sum_6w", []),
        ("perron", "eigenvectors", []),
        ("verify", Cell(2, 4, 2, 2, True), ["--json", "--max-n", "6"]),
        ("verify", Cell(2, 5, 2, 2, False), ["--json", "--max-n", "7"]),
    ],
    # spectral- and measure-bound: 25-63 blocks with small cores, beside
    # exact-root specs; vertex cylinders on <= 5 blocks take the parry route
    "measures": [
        ("measure", Cell(4, 4, 2, 1, True), ["--cylinder", "@edge2"]),
        ("measure", Cell(4, 4, 1, 1, True, 50), ["--cylinder", "@edge3"]),
        ("measure", Cell(3, 4, 2, 1, True), ["--cylinder", "@edge2"]),
        ("measure", "q4p4", ["--cylinder", "000000"]),
        ("measure", "eigenvectors", ["--cylinder", "000"]),
        ("verify", Cell(3, 4, 1, 2, True), ["--json", "--max-n", "4"]),
        ("verify", Cell(2, 6, 1, 1, True, 25), ["--json", "--max-n", "6"]),
        ("verify", Cell(3, 5, 1, 1, True, 50), ["--json", "--max-n", "5"]),
        ("verify", "eigenvectors", ["--json", "--max-n", "6"]),
        ("verify", "sparse_alpha8", ["--json", "--max-n", "6"]),
        ("verify", "pushforward_uniform", ["--json", "--max-n", "6"]),
        ("verify", "row_sum_4w", ["--json", "--max-n", "6"]),
        ("perron", Cell(2, 6, 1, 1, True, 25), []),
        ("perron", Cell(2, 6, 1, 1, True, 25), []),
    ],
}

RENAMES = ("abcd", "efgh", "ijkl", "mnop", "rstu", "vwxy")


def draw(rng: random.Random, cell: Cell):
    """A random spec in the grid cell: valid, irreducible, exact p and mode."""
    from multishift import SpecError, adjacency_matrix, is_irreducible, validate_spec
    alphabet = "0123"[:cell.q]

    def word(length: int) -> str:
        return "".join(rng.choice(alphabet) for _ in range(length))

    for _ in range(100000):
        forbidden = [word(rng.randint(2, cell.p)) for _ in range(cell.nf)]
        repeated = [word(rng.randint(2, cell.p)) for _ in range(cell.nr)]
        if not cell.reduced:
            # plant a repeated word inside a forbidden one
            a = forbidden[0]
            k = rng.randint(2, len(a) - 1) if len(a) > 2 else None
            if k is None:
                continue
            start = rng.randint(0, len(a) - k)
            repeated[0] = a[start:start + k]
        pairs = [(r, rng.randint(2, 4)) for r in repeated]
        try:
            spec = validate_spec(alphabet, forbidden, pairs)
        except SpecError:
            continue
        if spec.p != cell.p or spec.union_reduced != cell.reduced:
            continue
        mat = adjacency_matrix(spec)
        if mat.size >= cell.min_blocks and is_irreducible(mat):
            return spec
    raise RuntimeError(f"no spec found for {cell}")


def source_doc(source, rng: random.Random) -> dict:
    from multishift import spec_from_matrix
    if isinstance(source, Cell):
        doc = draw(rng, source).to_json()
        doc["name"] = "q{}p{}F{}R{}{}".format(*source[:4], "" if source.reduced else "n")
        return doc
    if source == "q4p4":
        return json.loads(json.dumps(Q4P4))
    if source in ROW_SUM_MATRICES:
        return {"name": source, **spec_from_matrix(ROW_SUM_MATRICES[source]).to_json()}
    return json.loads((FIXTURES / f"{source}.json").read_text())


def rename(doc: dict, args: list[str], letters: str) -> tuple[dict, list[str]]:
    """The same spec and arguments over another alphabet, position for position."""
    table = str.maketrans({s: letters[i] for i, s in enumerate(doc["alphabet"])})

    def cyl(text: str) -> str:
        out = []
        for tok in text.split(","):
            if "*" in tok:
                pair, branch = tok.split("#")
                x, y = pair.split("*")
                tok = f"{x.translate(table)}*{y.translate(table)}#{branch}"
            else:
                tok = tok.translate(table)
            out.append(tok)
        return ",".join(out)

    new = dict(doc)
    new["alphabet"] = [s.translate(table) for s in doc["alphabet"]]
    new["forbidden"] = [a.translate(table) for a in doc["forbidden"]]
    new["repeated"] = [{"word": e["word"].translate(table), "multiplicity": e["multiplicity"]}
                       for e in doc["repeated"]]
    if "expected" in doc:
        exp = dict(doc["expected"])
        for key in ("g", "fa"):
            if key in exp:
                exp[key] = {w.translate(table): t for w, t in exp[key].items()}
        new["expected"] = exp
    new_args = [cyl(a) if prev in ("--cylinder", "--word") else a
                for prev, a in zip([""] + args, args)]
    return new, new_args


def edge_chain(doc: dict, n_edges: int, rng: random.Random) -> str:
    from multishift import adjacency_matrix
    from multishift.cli import spec_from_document
    mat = adjacency_matrix(spec_from_document(doc))
    i = rng.randrange(mat.size)
    toks = []
    for _ in range(n_edges):
        j = rng.choice([j for j in range(mat.size) if mat.entries[i][j]])
        toks.append("{}*{}#{}".format("".join(mat.labels[i]), "".join(mat.labels[j]),
                                       rng.randint(1, mat.entries[i][j])))
        i = j
    return ",".join(toks)


def descriptors(doc: dict) -> dict:
    from multishift import MultishiftError, adjacency_matrix, perron_root
    from multishift.cli import spec_from_document
    from multishift.genfun import build_system, solve_generating_functions
    spec = spec_from_document(doc)
    try:
        exact = perron_root(spec).exact is not None
    except MultishiftError:
        exact = None
    return {"blocks": adjacency_matrix(spec).size,
            "system_order": build_system(spec).matrix.nrows,
            "den_degree": solve_generating_functions(spec).all_words.den.degree,
            "root_exact": exact}


def brute_tables(doc: dict, max_n: int) -> dict:
    """f, g, fa and the weighted slices by listing every string."""
    alphabet, forbidden = doc["alphabet"], doc["forbidden"]
    repeated = [(e["word"], e["multiplicity"]) for e in doc["repeated"]]

    def occurrences(w: str, r: str) -> int:
        return sum(w.startswith(r, i) for i in range(len(w) - len(r) + 1))

    def weight(w: str, minus: str = "") -> int:
        return prod(m ** (occurrences(w, r) - occurrences(minus, r)) for r, m in repeated)

    f = [1] + [0] * max_n
    g = {r: [0] * (max_n + 1) for r, _ in repeated}
    fa = {a: [0] * (max_n + 1) for a in forbidden}
    slices = []
    for n in range(1, max_n + 1):
        entries = []
        for t in itertools.product(alphabet, repeat=n):
            w = "".join(t)
            if not any(a in w for a in forbidden):
                m = weight(w)
                entries.append([w, m])
                f[n] += m
                for r, _ in repeated:
                    if w.endswith(r):
                        g[r][n] += m
            elif not any(a in w[:-1] for a in forbidden):
                a = next(a for a in forbidden if w.endswith(a))
                fa[a][n] += weight(w, minus=a)
        slices.append({"n": n, "entries": entries, "cardinality": f[n]})
    return {"f": f, "g": g, "fa": fa, "slices": slices}


def check_counts(item: dict) -> None:
    exact = item["reference"].get("exact")
    if item["command"] != "enumerate" or exact is None:
        return
    max_n = int(item["args"][item["args"].index("--max-n") + 1])
    brute = brute_tables(item["spec"], max_n)
    for key in ("f", "g", "fa") + (("slices",) if exact["slices"] else ()):
        if exact[key] != brute[key]:
            raise SystemExit(f"{item['id']}: {key} disagrees with the brute-force counter")


def build_items(seed: int) -> dict:
    from multishift.cli import spec_from_document
    workloads = {}
    for workload, recipes in RECIPES.items():
        rng = random.Random(f"{seed}-{workload}")  # a workload's items ignore the others' recipes
        items, seen = [], set()
        renames = iter(RENAMES)
        for k, (command, source, args) in enumerate(recipes):
            doc = source_doc(source, rng)
            key = spec_from_document(doc)
            if key in seen:
                doc, args = rename(doc, args, next(renames))
                key = spec_from_document(doc)
            seen.add(key)
            args = [edge_chain(doc, int(a[5:]), rng) if a.startswith("@edge") else a
                    for a in args]
            items.append({"id": f"{workload[0]}{k:02d}-{command}-{doc.get('name', 'spec')}",
                          "command": command, "args": args, "spec": doc,
                          "descriptors": descriptors(doc)})
        workloads[workload] = items
    return workloads


def record(workloads: dict, work: Path) -> None:
    """Run every item once in a fresh process and keep its outputs."""
    from run import run_child, write_jobs
    for workload, items in workloads.items():
        jobs = write_jobs(items, work / workload)
        results = {r["id"]: r for r in run_child("rep", jobs["rep"])["items"]}
        for item in items:
            res = results[item["id"]]
            item["reference"] = {k: v for k, v in res.items()
                                 if k not in ("id", "seconds", "probe_s")}
            print(f"{res['seconds']:8.3f}s exit {res['exit']}  {item['id']}  "
                  f"{item['descriptors']}", flush=True)
            check_counts(item)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    workloads = build_items(args.seed)
    work = HERE / ".work" / f"gen-{args.seed}"
    try:
        record(workloads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    SETS.mkdir(exist_ok=True)
    out = SETS / f"seed{args.seed}.json"
    out.write_text(json.dumps({"seed": args.seed, "workloads": workloads}, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
