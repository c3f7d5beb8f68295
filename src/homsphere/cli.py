"""Command-line front end with deterministic JSON and CSV output.

Every numeric field is emitted with 17 significant digits, so output is
byte-identical across runs and parses back to the exact same doubles.
Exit codes: 0 success, 1 acceptance failure, ``verify`` without numpy
(one ``error:`` line), internal error (a one-line ``internal error:``
message on stderr) or a reader that closed stdout early (no message), 2
invalid parameters (including parameters whose results leave the
floating-point range, such as a spectrum whose a^2 + b^2 + c^2 underflows
to 0, or a result below the normal range, such as a subnormal eigenvalue
or volume; squares that overflow are no error for ``spectrum``, which
solves at a unit scale, where the rows of a metric so prolate that they
would overflow decouple and the closed form is read off), 3 truncation
bound needing more than ``spectrum.K_CAP`` irrep blocks.  Warnings (for
example suspicious cluster merges) go to stderr only.  No subcommand
takes a tolerance: the solver, clustering and comparison tolerances are
fixed.

Only ``verify`` imports the acceptance suite, and with it numpy (the
``homsphere[verify]`` extra) and ``homsphere.oracle``; every other
subcommand runs on the standard library.  All of them print through
``main``, which builds the parser once per process and calls
``_cmd_<command>`` by name.

A spectrum's entries travel as the table's two columns, ``(entries,
k_sources)``, and ``_rows`` writes them in JSON and in CSV alike with one
format per table: the row template, with ``%.17g`` for the value,
repeated once per row and applied to every row's fields at once.  Rows
skip ``_fmt``'s finiteness check: every value is at most the truncation
bound, which ``k_cutoff`` has already checked is finite, and at least 0.
CSV fields are never quoted, because none can hold a comma, a quote or a
line break: each is a number, an enum value, ``True``, ``False``,
``None``, a key path such as ``diameter.lower`` or a ``;``-joined list of
irrep labels.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

from .core import (
    GroupKind,
    MetricClass,
    MetricTriple,
    NonPositiveParameter,
    classify,
    normalize_triple,
)
from .geometry import (
    BoundViolation,
    ProductSpec,
    berger_lambda1_diam2_extrema,
    diameter,
    lambda1_diam2,
    product_estimate,
    scalar_curvature,
    volume,
    yamabe_gap,
)
from .eigensolve import NonConvergence
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


def _to_json(obj) -> str:
    """Serialize with insertion-ordered keys and 17-significant-digit floats.

    A spectrum's ``entries`` are written by ``_rows``.
    """
    if isinstance(obj, dict):
        return "{%s}" % ",".join(
            json.dumps(key) + ":"
            + ("[%s]" % _rows(val, _ROW_JSON, ",", ",") if key == "entries" else _to_json(val))
            for key, val in obj.items()
        )
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ",".join(map(_to_json, obj))
    return _fmt(obj) if isinstance(obj, float) else json.dumps(obj)


def _rows(columns: tuple[tuple, tuple], row: str, sep: str, row_sep: str) -> str:
    """A spectrum's rows, ``row`` filled with (value, multiplicity, k_sources) each.

    ``columns`` is a table's ``(entries, k_sources)``; the labels of one
    row are joined by ``sep`` and the rows by ``row_sep``, and one ``%``
    applies the repeated template to every row's fields at once.
    """
    pairs, sources = columns
    values, mults = zip(*pairs)
    labels = [str(ks[0]) if len(ks) == 1 else sep.join(map(str, ks)) for ks in sources]
    fields = tuple(itertools.chain.from_iterable(zip(values, mults, labels)))
    return row_sep.join([row] * len(values)) % fields


def _flatten(prefix: str, obj, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), val, lines)
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            _flatten(f"{prefix}[{i}]", val, lines)
    else:
        lines.append(f"{prefix},{_fmt(obj) if isinstance(obj, float) else obj}")


def _record_to_csv(results: dict) -> str:
    # no field needs quoting (see the module docstring)
    if "entries" in results:
        lines = ["value,multiplicity,k_sources", _rows(results["entries"], _ROW_CSV, ";", "\n")]
    else:
        lines = ["key,value"]
        _flatten("", results, lines)
    return "\n".join(lines)


def _triple_and_group(args: argparse.Namespace) -> tuple[MetricTriple, GroupKind]:
    return normalize_triple(args.a, args.b, args.c), GroupKind(args.group)


def _triple_inputs(t: MetricTriple, g: GroupKind) -> dict:
    return {"a": t.a, "b": t.b, "c": t.c, "group": g.value}


def _diameter_payload(t: MetricTriple, g: GroupKind) -> dict:
    d = diameter(t, g)
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
        "entries": (table.entries, table.k_sources),
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
        "diameter": _diameter_payload(t, g),
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
    lo, hi = lambda1_diam2(t, g)
    return _triple_inputs(t, g), {
        "lambda1": lambda1_closed(t, g).value,
        "diameter": _diameter_payload(t, g),
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
    from . import acceptance  # numpy and the oracle load only for this command

    results = acceptance.run_all()
    failed = sum(not r.passed for r in results)
    lines = [r.line() for r in results]
    lines.append(f"{len(results) - failed}/{len(results)} criteria passed")
    return "\n".join(lines), EXIT_OK if not failed else EXIT_FAILURE


def _add_triple_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--a", type=float, required=required)
    parser.add_argument("--b", type=float, required=required)
    parser.add_argument("--c", type=float, required=required)
    parser.add_argument(
        "--group", choices=["su2", "so3"], required=required,
        help="su2 for the 3-sphere, so3 for real projective 3-space",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; it holds no handlers, so ``main`` looks
    each ``_cmd_*`` up at call time."""
    parser = argparse.ArgumentParser(
        prog="homsphere",
        description=(
            "Laplace-Beltrami spectra, diameters, and spectral rigidity of "
            "homogeneous metrics on the 3-sphere and projective 3-space."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    record = argparse.ArgumentParser(add_help=False)
    record.add_argument("--format", choices=["json", "csv"], default="json")

    spectrum_p = sub.add_parser(
        "spectrum", parents=[record], help="truncated spectrum of one metric"
    )
    _add_triple_flags(spectrum_p)
    spectrum_p.add_argument("--lambda-max", type=float, required=True)
    spectrum_p.add_argument(
        "--berger-closed-form",
        action="store_true",
        help="require two equal parameters",
    )

    lambda1_p = sub.add_parser(
        "lambda1", parents=[record], help="closed-form lowest positive eigenvalue"
    )
    _add_triple_flags(lambda1_p)

    geometry_p = sub.add_parser(
        "geometry", parents=[record], help="curvature, volume, diameter, gap"
    )
    _add_triple_flags(geometry_p)

    estimate_p = sub.add_parser(
        "estimate", parents=[record], help="lambda1 * diam^2 estimates"
    )
    _add_triple_flags(estimate_p, required=False)
    estimate_p.add_argument(
        "--berger-extrema",
        action="store_true",
        help="report the closed-form extrema over the two-equal-parameter families",
    )

    rigidity_p = sub.add_parser(
        "rigidity", parents=[record], help="spectral invariants and inversion"
    )
    _add_triple_flags(rigidity_p)
    rigidity_p.add_argument(
        "--compare", type=str, default=None, metavar="A,B,C",
        help="second triple for an isospectrality comparison",
    )
    rigidity_p.add_argument("--lambda-max", type=float, default=None)

    product_p = sub.add_parser(
        "product", parents=[record], help="estimates for products of factors"
    )
    product_p.add_argument(
        "--su2", action="append", metavar="A,B,C", help="add one SU(2) factor"
    )
    product_p.add_argument(
        "--so3", action="append", metavar="A,B,C", help="add one SO(3) factor"
    )

    sub.add_parser("verify", help="run the acceptance suite")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
    except ModuleNotFoundError as exc:  # only verify imports numpy
        if exc.name != "numpy":
            raise
        print("error: verify needs numpy: pip install 'homsphere[verify]'", file=sys.stderr)
        return EXIT_FAILURE
    except CutoffTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CUTOFF
    except ValueError as exc:  # NonPositiveParameter, EmptyProduct among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except (BoundViolation, NonConvergence) as exc:
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
