"""Command-line front end.  One table, :data:`COMMANDS`, gives each subcommand
its handler, help line and options; :func:`parse_args` reads ``argv`` with it.

Exit codes: 0 ok, 1 verification failure, 2 bad spec or usage error,
3 budget exceeded, 4 numeric failure, 5 I/O or parse error.
"""

from __future__ import annotations

import functools
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import __version__, measures, spectral, verify
from .errors import BudgetError, MultishiftError, NumericError, SpecError
from .genfun import solve_generating_functions
from .langmodel import (DEFAULT_BUDGET, ShiftSpec, language_slices, oracle_tables,
                        validate_spec)
from .ratfield import series_coeffs

EXIT_VERIFY = 1
EXIT_SPEC = 2
EXIT_BUDGET = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def load_spec_document(path: str) -> dict:
    """Read a spec JSON document from a path or stdin ('-')."""
    try:
        if path == "-":
            return json.loads(sys.stdin.buffer.read().decode("utf-8"))
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers invalid JSON, bytes that are not UTF-8 and integer
    # literals past the int-digits limit; RecursionError covers deep nesting
    except (OSError, ValueError, RecursionError) as exc:
        raise IOError(f"cannot read spec: {exc}") from exc


def spec_from_document(doc: dict) -> ShiftSpec:
    """Validate the JSON document shape and build the spec."""
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    allowed_keys = {"alphabet", "forbidden", "repeated", "expected", "name", "notes"}
    unknown = set(doc) - allowed_keys
    if unknown:
        raise SpecError(f"unknown spec keys: {sorted(unknown)}")
    alphabet = doc.get("alphabet")
    if not isinstance(alphabet, list) or not all(isinstance(s, str) and len(s) == 1
                                                 for s in alphabet):
        raise SpecError("alphabet must be a list of single-character symbols")
    forbidden = doc.get("forbidden", [])
    if not isinstance(forbidden, list) or not all(isinstance(a, str) for a in forbidden):
        raise SpecError("forbidden must be a list of word strings")
    entries = doc.get("repeated", [])
    if not isinstance(entries, list):
        raise SpecError("repeated must be a list of {word, multiplicity} objects")
    repeated = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise SpecError(f"repeated[{i}] must be a {{word, multiplicity}} object")
        for key in ("word", "multiplicity"):
            if key not in e:
                raise SpecError(f"repeated[{i}] has no {key}")
        if not isinstance(e["word"], str):
            raise SpecError(f"repeated[{i}].word must be a word string")
        m = e["multiplicity"]
        # bool is a subclass of int, but true is no multiplicity
        if type(m) is not int:
            raise SpecError(f"repeated[{i}].multiplicity must be an integer, got {m!r}")
        repeated.append((e["word"], m))
    spec = validate_spec(alphabet, forbidden, repeated)
    if "expected" in doc:
        _check_expected(doc["expected"], spec)
    return spec


def _check_expected(expected, spec: ShiftSpec) -> None:
    """Type-check the optional ``expected`` block: count tables are lists
    of integers keyed by words of the spec, theta is a number."""
    if not isinstance(expected, dict):
        raise SpecError("expected must be an object")

    def integer_list(table, field: str) -> None:
        # bool is a subclass of int, but true is no count
        if not isinstance(table, list) or any(type(x) is not int for x in table):
            raise SpecError(f"{field} must be a list of integers, got {table!r}")

    if "f" in expected:
        integer_list(expected["f"], "expected.f")
    for key, kind, words in (("g", "repeated", spec.repeated_words),
                             ("fa", "forbidden", spec.forbidden)):
        if key not in expected:
            continue
        if not isinstance(expected[key], dict):
            raise SpecError(f"expected.{key} must be an object of {kind} words to counts")
        for w, table in expected[key].items():
            if tuple(w) not in words:
                raise SpecError(f"expected.{key} key {w!r} is not a {kind} word")
            integer_list(table, f"expected.{key}[{w}]")
    if "theta" in expected and type(expected["theta"]) not in (int, float):
        raise SpecError(f"expected.theta must be a number, got {expected['theta']!r}")


def parse_cylinder(text: str, spec: ShiftSpec) -> measures.Cylinder:
    """Cylinder syntax: either a plain symbol word (vertex form) or a
    comma/space separated chain of ``X*Y#j`` edge tokens."""
    tokens = [t for t in text.replace(",", " ").split() if t]
    if not tokens:
        raise SpecError("empty cylinder")
    if len(tokens) == 1 and "*" not in tokens[0]:
        return measures.Cylinder.from_vertex_word(spec.word(tokens[0]), spec.p)
    edges = []
    for tok in tokens:
        try:
            pair, branch = tok.split("#")
            x, y = pair.split("*")
            j = int(branch)
        except ValueError as exc:
            raise SpecError(f"bad edge token {tok!r}; expected X*Y#j") from exc
        edges.append((spec.word(x), spec.word(y), j))
    return measures.Cylinder.from_edges(edges)


def report_skeleton(command: str, doc: dict) -> dict:
    return {"tool": f"multishift {__version__}", "command": command, "spec": doc}


# The scalar types a report holds, each printed as json.dumps prints it
_SCALAR = {str: encode_basestring_ascii, int: int.__repr__, float: json.dumps,
           bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _scalars(items) -> bool:
    return _SCALAR.keys() >= set(map(type, items))


@functools.cache
def _leaf_encoder(pad: str):
    """The C encoder, printing one line with ``","`` + ``pad`` between items."""
    return json.JSONEncoder(separators=("," + pad, ": ")).encode


def _dumps(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2)`` for a value on a line opened by
    ``pad`` (a newline and that line's indent).  A list of scalars, and a
    list of non-empty lists of scalars, go to the C encoder in one call
    with ``","`` + the deeper pad as item separator; in the second case one
    ``replace`` puts back the rows' own brackets and separators.  No string
    can match that pattern: the encoder escapes every newline inside a
    string, so a literal newline comes only from a separator."""
    kind = type(obj)
    if kind in _SCALAR:
        return _SCALAR[kind](obj)
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not obj:
        return "{}" if kind is dict else "[]"
    deeper = pad + "  "
    if kind is dict:
        body = ("," + deeper).join(encode_basestring_ascii(k) + ": " + _dumps(v, deeper)
                                   for k, v in obj.items())
        return "{" + deeper + body + pad + "}"
    if _scalars(obj):
        body = _leaf_encoder(deeper)(obj)[1:-1]
    elif {list, tuple} >= set(map(type, obj)) and all(obj) and _scalars(chain.from_iterable(obj)):
        rows = deeper + "  "
        body = _leaf_encoder(rows)(obj)[2:-2]
        body = "[" + rows + body.replace("]," + rows + "[", deeper + "]," + deeper + "[" + rows) \
            + deeper + "]"
    else:
        body = ("," + deeper).join(_dumps(v, deeper) for v in obj)
    return "[" + deeper + body + pad + "]"


def emit(report: dict) -> None:
    """Print the report byte for byte as ``json.dumps(report, indent=2)``."""
    print(_dumps(report, "\n"))


def cmd_enumerate(args, doc: dict, spec: ShiftSpec) -> int:
    n_max = args.max_n
    budget = args.budget
    # one pass for all three tables; a negative --max-n prints empty ones
    f, g, fa = oracle_tables(spec, max(n_max, 0), budget)
    keep = slice(0, n_max + 1)
    table = {"n": list(range(0, n_max + 1)), "f": f[keep],
             "g": {"".join(r): g[r][keep] for r in spec.repeated_words},
             "fa": {"".join(a): fa[a][keep] for a in spec.forbidden}}
    if args.fmt == "table":
        heads = ["n", "f"] + [f"g[{k}]" for k in table["g"]] + [f"fa[{k}]" for k in table["fa"]]
        print("  ".join(f"{h:>10}" for h in heads))
        for i, n in enumerate(table["n"]):
            row = [n, table["f"][i]] + [v[i] for v in table["g"].values()] \
                + [v[i] for v in table["fa"].values()]
            print("  ".join(f"{x:>10}" for x in row))
    else:
        if args.slices:
            table["slices"] = [s.to_json() for s in language_slices(n_max, spec, budget)]
        report = report_skeleton("enumerate", doc)
        report["result"] = table
        emit(report)
    return 0


def cmd_genfun(args, doc: dict, spec: ShiftSpec) -> int:
    sol = solve_generating_functions(spec)
    result = {"system": sol.system.to_json(), "solution": sol.to_json(),
              "series": [str(c) for c in series_coeffs(sol.all_words, args.series_n)]}
    if sol.mode == "reduced":
        result["correction"] = sol.correction.to_json()
    report = report_skeleton("genfun", doc)
    report["result"] = result
    emit(report)
    return 0


def cmd_perron(args, doc: dict, spec: ShiftSpec) -> int:
    report = report_skeleton("perron", doc)
    report["result"] = spectral.spectral_report(spec, args.allow_reducible)
    emit(report)
    return 0


def cmd_measure(args, doc: dict, spec: ShiftSpec) -> int:
    ctx = measures.MeasureContext(spec, args.allow_reducible)
    cyl = parse_cylinder(args.cylinder, spec)
    routes = (measures.EDGE_ROUTES if cyl.is_edge_form else measures.VERTEX_ROUTES) \
        if args.route == "all" else (args.route,)
    result = {"cylinder": cyl.to_json(),
              "measures": [measures.cylinder_measure(ctx, cyl, r).to_json() for r in routes]}
    vals = [float(m["value"]) for m in result["measures"]]
    result["max_route_gap"] = format(max(abs(a - b) for a in vals for b in vals), ".3g") \
        if len(vals) > 1 else "0"
    report = report_skeleton("measure", doc)
    report["result"] = result
    emit(report)
    return 0


def cmd_escape(args, doc: dict, spec: ShiftSpec) -> int:
    cyl = parse_cylinder(args.word, spec)
    if not cyl.is_edge_form:
        cyl = measures.Cylinder(cyl.vertices, (1,) * cyl.n_edges)
    rep = measures.escape_report(spec, cyl, args.max_n, args.budget, args.allow_reducible)
    report = report_skeleton("escape", doc)
    report["result"] = rep.to_json()
    emit(report)
    return 0


def cmd_verify(args, doc: dict, spec: ShiftSpec) -> int:
    rep = verify.run_verification(spec, args.max_n, args.budget,
                                  expected=doc.get("expected"),
                                  allow_reducible=args.allow_reducible)
    if args.fmt == "json":
        report = report_skeleton("verify", doc)
        report["result"] = rep.to_json()
        emit(report)
    else:
        for check in rep.checks:
            print(check.line())
    return 0 if rep.passed else EXIT_VERIFY


# Each subcommand: its handler, help line and options in usage order.  An option is (flag,
# kind, default, help); kind is int or str (the option takes a value), the values allowed,
# bool (a switch) or FORMAT (the --json/--table pair, which sets fmt).  None: required.
FORMAT = ("json", "table")
SPEC = ("--spec", str, None, "spec JSON path, or - for stdin")
REDUCIBLE = ("--allow-reducible", bool, False, "analyse a reducible block graph, not refuse it")
BUDGET = ("--budget", int, DEFAULT_BUDGET,
          "refuse (exit 3) any count of a length n >= 1 with q**n > BUDGET, before counting")
COMMANDS = {
    "enumerate": (cmd_enumerate, "weighted count tables from the oracle", (
        SPEC, ("--json | --table", FORMAT, "json", "print the report as JSON or as plain tables"),
        BUDGET, ("--max-n", int, 10, "count the lengths n = 0..MAX_N"),
        ("--slices", bool, False, "JSON output only: include the weighted slices, every "
                                  "allowed word of each length 1..MAX_N with its multiplicity"))),
    "genfun": (cmd_genfun, "exact counting series and their system", (
        SPEC, ("--series-n", int, 12, "print the series coefficients of z**-n, n = 0..SERIES_N"))),
    "perron": (cmd_perron, "root, eigenvectors, entropy, normalization", (SPEC, REDUCIBLE)),
    "measure": (cmd_measure, "cylinder measure by route", (SPEC, REDUCIBLE,
        ("--cylinder", str, None, "vertex word, or edge chain like 00*00#1,00*01#1"),
        ("--route", tuple(dict.fromkeys(("all",) + measures.EDGE_ROUTES + measures.VERTEX_ROUTES)),
         "all", "one route, or every route of the cylinder's form"))),
    "escape": (cmd_escape, "hole avoidance counts and escape rate", (
        SPEC, REDUCIBLE, BUDGET, ("--word", str, None, "hole cylinder (same syntax as measure)"),
        ("--max-n", int, 12, "count the paths that avoid the hole up to length MAX_N"))),
    "verify": (cmd_verify, "run the cross-validation suite", (
        SPEC, ("--json | --table", FORMAT, "table", "print the report as JSON or as plain tables"),
        REDUCIBLE, BUDGET, ("--max-n", int, 10, "cross-check lengths up to MAX_N (at least p)"))),
}


def _exit(command: str, error: str = ""):
    """Exit 2 after the usage and the error on stderr, or with no error exit
    0 after the help on stdout.  ``command`` "" is the program itself."""
    def label(f, kind):  # an option as usage and help show it
        return f if kind in (bool, FORMAT) else f"{f} {{{','.join(kind)}}}" \
            if isinstance(kind, tuple) else f"{f} {f[2:].replace('-', '_').upper()}"
    usage = f"usage: multishift [-h] [--version] {{{','.join(COMMANDS)}}} ..."
    rows = [("--version", "show the version and exit")] + [(n, c[1]) for n, c in COMMANDS.items()]
    if command:
        options = COMMANDS[command][2]
        usage = " ".join([f"usage: multishift {command} [-h]"] + [
            label(f, kind) if default is None else f"[{label(f, kind)}]"
            for f, kind, default, _ in options])
        rows = [(label(f, kind), f"{text} (" + ("required" if default is None else
                 f"default: {default}") + ")") for f, kind, default, text in options]
    if error:
        print(f"{usage}\n{('multishift ' + command).strip()}: error: {error}", file=sys.stderr)
        raise SystemExit(2)
    print(usage + "\n")
    for head, text in [("-h, --help", "show this help message and exit")] + rows:
        print(f"  {head:<20}  {text}" if len(head) <= 20 else f"  {head}\n{'':24}{text}")
    raise SystemExit(0)


def _match(command: str, name: str, flags) -> str | None:
    """The flag ``name`` is, or the one flag it is a prefix of; else None."""
    hits = [name] if name in flags else ["--help"] if name == "-h" else \
        [f for f in flags if f.startswith(name)] if name[:2] == "--" and name != "--" else []
    if len(hits) > 1:
        _exit(command, f"ambiguous option: {name} could match {', '.join(hits)}")
    return hits[0] if hits else None


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The subcommand and its option values, read from ``argv`` with
    :data:`COMMANDS`.  ``--flag=value`` and a unique prefix of a flag are
    accepted, and the last occurrence of an option wins."""
    command = argv[0] if argv else ""
    if command not in COMMANDS:
        flag = _match("", command, ["--help", "--version"])
        if flag == "--version":
            print(__version__)
            raise SystemExit(0)
        _exit("", "" if flag else "the following arguments are required: command" if not argv
              else f"argument command: invalid choice: {command!r} "
                   f"(choose from {', '.join(map(repr, COMMANDS))})")
    options = {flag: ("fmt" if o[1] is FORMAT else o[0][2:].replace("-", "_"), *o[1:3])
               for o in COMMANDS[command][2] for flag in o[0].split(" | ")}
    given, unknown, tokens = {}, [], list(argv[1:])
    while tokens:
        token = tokens.pop(0)
        name, eq, value = token.partition("=") if token[:2] == "--" else (token, "", "")
        flag = _match(command, name, ["--help", *options])
        if flag == "--help":
            _exit(command)
        if flag is None:
            unknown.append(token)
            continue
        dest, kind, _ = options[flag]
        if eq and kind in (bool, FORMAT):
            _exit(command, f"argument {flag}: ignored explicit argument {value!r}")
        if kind in (bool, FORMAT):
            value = flag[2:] if kind is FORMAT else True
        elif not eq:  # the next token, unless an option: not '-' (stdin) nor a negative int
            value = tokens.pop(0) if tokens else "--"
            if value[:1] == "-" and value != "-" and not value[1:].isdigit():
                _exit(command, f"argument {flag}: expected one argument")
        if kind is FORMAT and given.get(dest, value) != value:
            _exit(command, f"argument {flag}: not allowed with argument --{given[dest]}")
        if isinstance(kind, tuple) and value not in kind:
            _exit(command, f"argument {flag}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, kind))})")
        try:
            given[dest] = int(value) if kind is int else value
        except ValueError:
            _exit(command, f"argument {flag}: invalid int value: {value!r}")
    missing = [f for f, (d, _, v) in options.items() if v is None and d not in given]
    if missing or unknown:
        _exit(command, "the following arguments are required: " + ", ".join(missing)
              if missing else "unrecognized arguments: " + " ".join(unknown))
    return SimpleNamespace(command=command, **{d: v for d, _, v in options.values()} | given)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        doc = load_spec_document(args.spec)
        spec = spec_from_document(doc)
        return COMMANDS[args.command][0](args, doc, spec)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NumericError, OverflowError) as exc:
        # an OverflowError is a float conversion out of range
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MultishiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IOError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
