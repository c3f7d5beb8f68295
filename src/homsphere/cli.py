"""Command-line front end with deterministic JSON and CSV output.

Every numeric field is emitted with 17 significant digits, so output is
byte-identical across runs and parses back to the exact same doubles.
Exit codes: 0 success, 1 acceptance failure (a criterion that fails or
raises), internal error (a ``BoundViolation``, a certified window
escaping its proven range, as a one-line ``internal error:`` message on
stderr) or a reader that closed stdout early (no message), 2 invalid
parameters (including parameters whose results leave the floating-point
range, such as a spectrum whose a^2 + b^2 + c^2 underflows to 0, or a
result below the normal range, such as a subnormal eigenvalue or volume;
squares that overflow are no error for ``spectrum``, which solves at a
unit scale, where the rows of a metric so prolate that they would
overflow decouple and the closed form is read off), 3 truncation bound
needing more than ``spectrum.K_CAP`` irrep blocks.  The ``EDGE_INPUTS``
table in ``tests/test_cli.py`` is the one place where each documented
edge input is checked against its exit code and stderr.
Warnings (for example suspicious cluster merges) go to stderr only.  No
subcommand takes a tolerance: the solver, clustering and comparison
tolerances are fixed.

Every subcommand runs on the standard library.  Only ``verify`` imports
the acceptance suite, and with it ``homsphere.oracle``.  All of them
print through ``main``, which calls ``_cmd_<command>`` by name.  Each
command's flags are declared once, in ``_COMMANDS``, from which
``build_parser`` builds the argparse parsers, once per process.

Reading.  ``_READERS``, built from ``_COMMANDS`` once at import, holds
each command's flags with their attribute names, actions, types and
choices, the namespace's defaults and the required flags.  ``_read``
reads a well-formed argv with it into the namespace ``parse_args`` would
return: a command, then its flags by their exact names, each value not
starting with ``-``, of the flag's type and among its choices, and every
required flag given.  Any other argv (none, help, an abbreviation,
``--flag=value``, ``--``, an error) goes to ``parse_args``, so every
message and exit code is argparse's own; only that fallback builds the
parser.

Writing.  A command returns its record's inputs and results as dicts,
lists, floats, strs, ints, bools and None, of exactly these types, and
one ``SpectrumTable``, a spectrum's ``entries``.  ``_write_json`` (JSON)
and ``_flatten`` (CSV) dispatch on each value's exact type, dicts and
floats first, then through ``_WRITERS``; a value of any other type, a
subclass or a tuple among them, raises KeyError at that lookup in both
writers and is never coerced.  ``_to_json`` joins once the one list into
which ``_write_json`` appends the pieces of the whole record.  Every
float goes through ``_fmt``, which raises OverflowError for an inf or a
NaN.

A spectrum's ``entries`` are the ``SpectrumTable`` itself, and ``_rows``
writes them in JSON and in CSV alike from the table's ``values``,
``multiplicities`` and ``k_sources`` columns, building no ``EigenPair``,
with one format per table: the row template, with ``%.17g`` for the
value, repeated once per row and applied to every row's fields at once.
Rows skip ``_fmt``'s finiteness check: every value is at most the
truncation bound, which ``k_cutoff`` has already checked is finite, and
at least 0.  CSV fields are never quoted, because none can hold a comma,
a quote or a line break: each is a number, an enum value, ``True``,
``False``, ``None``, a key path such as ``diameter.lower`` or a
``;``-joined list of irrep labels.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

from .core import (
    GroupKind,
    MetricClass,
    MetricTriple,
    NonPositiveParameter,
    SpectrumTable,
    classify,
    normalize_triple,
)
from .geometry import (
    BoundViolation,
    DiamBounds,
    ProductSpec,
    _lambda1_diam2_of,
    berger_lambda1_diam2_extrema,
    diameter,
    product_estimate,
    scalar_curvature,
    volume,
    yamabe_gap,
)
from .rigidity import invariants, isospectral_check, recover_triple
from .spectrum import CutoffTooLarge, lambda1_closed, spectrum_up_to

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_PARAMS = 2
EXIT_CUTOFF = 3

Payload = tuple[dict, dict]  # (inputs, results) of one record


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise OverflowError(f"a result is {x}")
    return f"{x:.17g}"


_ROW_JSON = '{"value":%.17g,"multiplicity":%d,"k_sources":[%s]}'
_ROW_CSV = "%.17g,%d,%s"

# the JSON writer of each type a command's record holds but dict, looked up
# by exact type: a value of any other type raises KeyError
_WRITERS = {
    float: _fmt,
    str: _json_str,
    int: int.__repr__,
    bool: lambda flag: "true" if flag else "false",
    type(None): lambda _: "null",
    list: lambda items: "[%s]" % ",".join([_to_json(x) for x in items]),
    SpectrumTable: lambda table: "[%s]" % _rows(table, _ROW_JSON, ",", ","),
}


def _to_json(obj) -> str:
    """Serialize with insertion-ordered keys and 17-significant-digit floats.

    Writes the bytes of ``json.dumps`` under its default settings for every
    value but floats: strs through the C escaper ``json.dumps`` uses, ints
    as ``int.__repr__``.  A spectrum's ``entries`` are written by ``_rows``.
    """
    return "".join(_write_json(obj, []))


def _write_json(obj, out: list[str]) -> list[str]:
    """Append ``obj``'s JSON to ``out`` piece by piece, dicts and floats
    first, and return ``out``."""
    kind = type(obj)
    if kind is dict:
        out.append("{")
        for key, val in obj.items():
            out.append(_json_str(key) + ":")
            _write_json(val, out).append(",")
        out[-1] = "}" if obj else "{}"  # the last comma, or the lone "{"
    elif kind is float:
        out.append(_fmt(obj))
    else:
        out.append(_WRITERS[kind](obj))
    return out


def _rows(table: SpectrumTable, row: str, sep: str, row_sep: str) -> str:
    """A spectrum's rows, ``row`` filled with (value, multiplicity, k_sources) each.

    The labels of one row are joined by ``sep`` and the rows by
    ``row_sep``, and one ``%`` applies the repeated template to every row's
    fields at once.
    """
    labels = [str(ks[0]) if len(ks) == 1 else sep.join(map(str, ks)) for ks in table.k_sources]
    fields = tuple(itertools.chain.from_iterable(zip(table.values, table.multiplicities, labels)))
    return row_sep.join([row] * len(labels)) % fields


def _flatten(prefix: str, obj, lines: list[str]) -> None:
    kind = type(obj)
    if kind is dict:
        for key, val in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), val, lines)
    elif kind is list:
        for i, val in enumerate(obj):
            _flatten(f"{prefix}[{i}]", val, lines)
    else:  # a leaf, written as Python spells it; the lookup raises as in JSON
        lines.append(f"{prefix},{_fmt(obj) if _WRITERS[kind] is _fmt else obj}")


def _record_to_csv(results: dict) -> str:
    # no field needs quoting (see the module docstring)
    if "entries" in results:
        return "value,multiplicity,k_sources\n" + _rows(results["entries"], _ROW_CSV, ";", "\n")
    lines = ["key,value"]
    _flatten("", results, lines)
    return "\n".join(lines)


_GROUPS = {kind.value: kind for kind in GroupKind}


def _triple_and_group(args: argparse.Namespace) -> tuple[MetricTriple, GroupKind]:
    return normalize_triple(args.a, args.b, args.c), _GROUPS[args.group]


def _triple_inputs(t: MetricTriple, g: GroupKind) -> dict:
    return {"a": t.a, "b": t.b, "c": t.c, "group": g.value}


def _diameter_payload(d: DiamBounds) -> dict:
    return {"lower": d.lower, "upper": d.upper, "exact": d.exact}


def _parse_triple_arg(text: str) -> MetricTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise NonPositiveParameter(f"expected 'a,b,c', got {text!r}")
    return normalize_triple(*(float(p) for p in parts))


def _cmd_spectrum(args: argparse.Namespace) -> Payload:
    t, g = _triple_and_group(args)
    if args.berger_closed_form and classify(t) is MetricClass.GENERIC:
        raise ValueError("--berger-closed-form needs two equal parameters")
    table = spectrum_up_to(args.lambda_max, t, g)
    inputs = {
        **_triple_inputs(t, g),
        "lambda_max": args.lambda_max,
        "berger_closed_form": args.berger_closed_form,
    }
    return inputs, {
        "truncation_bound": table.truncation_bound,
        "entries": table,
        "eigenvalues_counted": table.counting_function(table.truncation_bound),
    }


def _cmd_lambda1(args: argparse.Namespace) -> Payload:
    t, g = _triple_and_group(args)
    res = lambda1_closed(t, g)
    return _triple_inputs(t, g), {
        "value": res.value,
        "multiplicity": res.multiplicity,
        "regime": res.regime.value,
    }


def _cmd_geometry(args: argparse.Namespace) -> Payload:
    t, g = _triple_and_group(args)
    return _triple_inputs(t, g), {
        "classification": classify(t).value,
        "scalar_curvature": scalar_curvature(t),
        "volume": volume(t, g),
        "diameter": _diameter_payload(diameter(t, g)),
        "yamabe_gap": yamabe_gap(t, g),
    }


def _cmd_estimate(args: argparse.Namespace) -> Payload:
    if args.berger_extrema:
        if (args.a, args.b, args.c, args.group) != (None,) * 4:
            raise ValueError("--berger-extrema takes no --a --b --c --group")
        report = berger_lambda1_diam2_extrema()
        return {"berger_extrema": True}, {
            "min": report.min_value,
            "min_triple": list(report.min_triple.as_tuple()),
            "max": report.max_value,
            "max_triple": list(report.max_triple.as_tuple()),
        }
    if args.a is None or args.b is None or args.c is None or args.group is None:
        raise ValueError("give --a --b --c --group or --berger-extrema")
    t, g = _triple_and_group(args)
    lam, d = lambda1_closed(t, g).value, diameter(t, g)
    lo, hi = _lambda1_diam2_of(lam, d, g)
    return _triple_inputs(t, g), {
        "lambda1": lam,
        "diameter": _diameter_payload(d),
        "lambda1_diam2": {"lower": lo, "upper": hi, "exact_point": lo == hi},
    }


def _cmd_rigidity(args: argparse.Namespace) -> Payload:
    if args.lambda_max is not None and args.compare is None:
        raise ValueError("--lambda-max needs --compare")
    t, g = _triple_and_group(args)
    inv = invariants(t, g)
    recovered = recover_triple(inv, g)
    roundtrip_err = max(abs(x - y) / y for x, y in zip(recovered.as_tuple(), t.as_tuple()))
    results = {
        "invariants": {
            "vol_param": inv.vol_param,
            "scalar_curvature": inv.scal,
            "lambda1": inv.lambda1,
            "multiplicity": inv.mult1,
        },
        "recovered_triple": list(recovered.as_tuple()),
        "roundtrip_rel_err": roundtrip_err,
    }
    inputs = _triple_inputs(t, g)
    if args.compare is not None:
        other = _parse_triple_arg(args.compare)
        lam_max = args.lambda_max
        if lam_max is None:
            lam_max = 1.2 * max(
                lambda1_closed(t, g).value, lambda1_closed(other, g).value
            )
        outcome = isospectral_check(t, other, g, lam_max)
        inputs["compare"] = list(other.as_tuple())
        results["isospectral"] = {
            "verdict": outcome.verdict.value,
            "lambda_max": lam_max,
            "first_differing_index": outcome.mu_index,
            "first_differing_values": list(outcome.values) if outcome.values else None,
        }
    return inputs, results


def _cmd_product(args: argparse.Namespace) -> Payload:
    su2 = tuple(_parse_triple_arg(arg) for arg in (args.su2 or []))
    so3 = tuple(_parse_triple_arg(arg) for arg in (args.so3 or []))
    est = product_estimate(ProductSpec(su2_factors=su2, so3_factors=so3))
    inputs = {
        "su2": [list(t.as_tuple()) for t in su2],
        "so3": [list(t.as_tuple()) for t in so3],
    }
    return inputs, {
        "lambda1": est.lambda1,
        "diam2": {"lower": est.diam2_lower, "upper": est.diam2_upper},
        "product": {"lower": est.product_lower, "upper": est.product_upper},
        "cap": est.cap,
    }


def _cmd_verify() -> tuple[str, int]:
    from . import acceptance  # the oracle loads only for this command

    results = acceptance.run_all()
    failed = sum(not r.passed for r in results)
    lines = [r.line() for r in results]
    lines.append(f"{len(results) - failed}/{len(results)} criteria passed")
    return "\n".join(lines), EXIT_OK if not failed else EXIT_FAILURE


_TRIPLE = {
    "--a": {"type": float, "required": True},
    "--b": {"type": float, "required": True},
    "--c": {"type": float, "required": True},
    "--group": {
        "choices": ["su2", "so3"], "required": True,
        "help": "su2 for the 3-sphere, so3 for real projective 3-space",
    },
}
_RECORD = {"--format": {"choices": ["json", "csv"], "default": "json"}}

# Each command's help line and flags, as argparse.add_argument keywords: the
# one declaration that build_parser and _read both read.  _read knows the
# actions store (the default), store_true and append, and no other.
_COMMANDS = {
    "spectrum": ("truncated spectrum of one metric", {
        **_RECORD, **_TRIPLE,
        "--lambda-max": {"type": float, "required": True},
        "--berger-closed-form": {"action": "store_true", "help": "require two equal parameters"},
    }),
    "lambda1": ("closed-form lowest positive eigenvalue", {**_RECORD, **_TRIPLE}),
    "geometry": ("curvature, volume, diameter, gap", {**_RECORD, **_TRIPLE}),
    "estimate": ("lambda1 * diam^2 estimates", {
        **_RECORD, **{flag: {**spec, "required": False} for flag, spec in _TRIPLE.items()},
        "--berger-extrema": {
            "action": "store_true",
            "help": "report the closed-form extrema over the two-equal-parameter families",
        },
    }),
    "rigidity": ("spectral invariants and inversion", {
        **_RECORD, **_TRIPLE,
        "--compare": {
            "type": str, "default": None, "metavar": "A,B,C",
            "help": "second triple for an isospectrality comparison",
        },
        "--lambda-max": {"type": float, "default": None},
    }),
    "product": ("estimates for products of factors", {
        **_RECORD,
        "--su2": {"action": "append", "metavar": "A,B,C", "help": "add one SU(2) factor"},
        "--so3": {"action": "append", "metavar": "A,B,C", "help": "add one SO(3) factor"},
    }),
    "verify": ("run the acceptance suite", {}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built from ``_COMMANDS``; it holds no
    handlers, so ``main`` looks each ``_cmd_*`` up at call time.  ``main``
    builds it only for an argv ``_read`` leaves to it: help and errors."""
    parser = argparse.ArgumentParser(
        prog="homsphere",
        description=(
            "Laplace-Beltrami spectra, diameters, and spectral rigidity of "
            "homogeneous metrics on the 3-sphere and projective 3-space."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for flag, spec in flags.items():
            command.add_argument(flag, **spec)
    return parser


def _reader(flags: dict) -> tuple[dict, dict, tuple]:
    """One command's flags as ``_read`` takes them: each flag's attribute
    name, action, type and choices, the namespace's defaults, and the
    attribute names of the required flags."""
    names = {flag: flag[2:].replace("-", "_") for flag in flags}
    return (
        {flag: (names[flag], spec.get("action"), spec.get("type", str), spec.get("choices"))
         for flag, spec in flags.items()},
        {names[flag]: False if spec.get("action") == "store_true" else spec.get("default")
         for flag, spec in flags.items()},
        tuple(names[flag] for flag, spec in flags.items() if spec.get("required")),
    )


_READERS = {command: _reader(flags) for command, (_, flags) in _COMMANDS.items()}


def _read(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, for an argv
    of the one form read here; None for any other.

    The form: a command of ``_COMMANDS``, then its flags by their exact
    names, each that takes a value followed by one that does not start with
    ``-``, converts with the flag's type and is one of its choices, with
    every required flag given.  Abbreviations, ``--flag=value``, ``--``,
    ``-h`` and every error are left to argparse, whose messages and exit
    codes stand.  Flags fill the namespace as argparse's actions do.
    """
    if not argv or argv[0] not in _READERS:
        return None
    specs, defaults, required = _READERS[argv[0]]
    values = {"command": argv[0], **defaults}
    words = iter(argv[1:])
    for word in words:
        spec = specs.get(word)
        if spec is None:
            return None
        name, action, kind, choices = spec
        if action == "store_true":
            values[name] = True
            continue
        text = next(words, "-")  # a missing value reads as one starting with "-"
        try:
            value = kind(text)
        except ValueError:
            return None
        if text[:1] == "-" or choices is not None and value not in choices:
            return None
        values[name] = (values[name] or []) + [value] if action == "append" else value
    if any(values[name] is None for name in required):
        return None
    # Namespace(**values) would set the attributes one by one in Python
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: read by ``_read`` when it can."""
    return _read(argv) or build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "verify":
            text, status = _cmd_verify()
        else:
            inputs, results = globals()[f"_cmd_{args.command}"](args)
            record = {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "inputs": inputs,
                "results": results,
            }
            text = _record_to_csv(results) if args.format == "csv" else _to_json(record)
            status = EXIT_OK
    except CutoffTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CUTOFF
    except ValueError as exc:  # NonPositiveParameter, EmptyProduct among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except BoundViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ArithmeticError as exc:  # ZeroDivisionError, OverflowError
        print(f"error: parameters out of floating-point range: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; point stdout at devnull so that the flush
        # at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILURE
    return status


if __name__ == "__main__":
    sys.exit(main())
