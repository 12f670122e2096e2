"""Command-line front-end.

Thin adapter only: `run` parses the arguments and loads the space,
vectors and cost they name, once for every subcommand; the subcommand's
handler calls one library entry point, and `run` serializes the returned
report.  The example kinds, their sizes and caps come from
`space.EXAMPLES`, and no numeric logic lives here.  Output is a single
JSON document on stdout wrapped in a run manifest (command, input
digests, seed, version, wall time); `--csv` flattens the result payload
into key,value rows instead.
Both go through `space.jsonable`, so a non-finite number prints as null.

Exit codes: 0 success or verified, and also a sweep that evaluated no
sample or rested on an unconverged solve (verdict "inconclusive"); 2
verified violation, with the witness in the payload; 1 input error or
solver failure, with a machine-readable error object.  `--seed` (default 0) fixes every
stochastic sweep.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time

from . import __version__
from .calculus import (
    time_derivative,
    weak_infconv,
    weak_infconv_bruteforce,
)
from .cost import parse_cost_spec
from .hj import hj_boundary, hj_residuals, obstruction_search
from .reports import (
    chain_report,
    constants_report,
    hypercube_report,
    two_point_report,
)
from .space import (EXAMPLES, MetricViolation, build_example, jsonable,
                    load_space, uniform_measure)
from .transport import (
    SolverError,
    check_transport_entropy,
    transport_oracle_small,
    weak_transport_cost,
)

_GRID_CAP = 10_000  # points in a start:stop:step grid


class InputError(ValueError):
    """Bad CLI input; `detail` is a JSON-ready object."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail or {}


# error type and detail attribute per exception class, most specific first
_ERRORS = ((InputError, "input", "detail"),
           (MetricViolation, "metric-violation", "witness"),
           (ValueError, "value", None),
           (SolverError, "solver", None))


def _digest_bytes(data):
    return hashlib.sha256(data).hexdigest()


def _digest_obj(obj):
    return _digest_bytes(json.dumps(obj, sort_keys=True).encode())


def _read_json(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode()), _digest_bytes(raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _load_space_arg(spec, inputs):
    """A space argument is a JSON file path or an example spec
     'name' / 'name:n' (e.g. hypercube:3)."""
    if os.path.isfile(spec):
        obj, digest = _read_json(spec)
        inputs["space"] = digest
        try:
            return load_space(obj)
        except MetricViolation:
            raise
        except (ValueError, TypeError, KeyError) as exc:
            raise InputError(f"bad space file {spec}: {exc}") from exc
    name, _, arg = spec.partition(":")
    if name not in EXAMPLES:
        raise InputError(
            f"space {spec!r} is neither a file nor an example spec",
            {"known_examples": list(EXAMPLES)})
    inputs["space"] = _digest_obj({"example": spec})
    try:
        n = int(arg) if arg else None
    except ValueError:
        raise InputError(f"bad example size {arg!r} in {spec!r}") from None
    try:
        return build_example(name, n)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _numbers(items, message):
    """`items` as a list of floats; InputError(message) if one is not a
    number."""
    try:
        return list(map(float, items))
    except (TypeError, ValueError):
        raise InputError(message) from None


def _load_vector_arg(spec, name, inputs):
    """A vector argument is a JSON file holding a list, or an inline
    comma-separated list of numbers."""
    if os.path.isfile(spec):
        obj, digest = _read_json(spec)
        inputs[name] = digest
        message = f"{name} file {spec} must hold a JSON list of numbers"
        if not isinstance(obj, list):
            raise InputError(message)
        return _numbers(obj, message)
    values = _numbers(spec.split(","), f"{name} {spec!r} is neither a file "
                      "nor a comma-separated list of numbers")
    inputs[name] = _digest_obj(values)
    return values


def _parse_grid(spec):
    """'start:stop:step' inclusive grid, or a comma-separated list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise InputError(f"grid {spec!r} must be start:stop:step")
        start, stop, step = _numbers(parts, f"non-numeric grid bound in {spec!r}")
        if not all(map(math.isfinite, (start, stop, step))):
            raise InputError(f"non-finite grid bound in {spec!r}")
        if step <= 0 or stop < start:
            raise InputError(f"empty grid {spec!r}")
        span = (stop - start) / step
        if span + 1 > _GRID_CAP:
            raise InputError(f"grid {spec!r} has {span + 1:.0f} points, "
                             f"more than the cap of {_GRID_CAP}")
        grid = [start + i * step for i in range(int(round(span)) + 1)]
        return [t for t in grid if t <= stop + 1e-12]
    return _numbers(spec.split(","), f"bad grid {spec!r}")


def _load_inputs(args, inputs):
    """Replace the --space, --f/--nu/--mu and --cost specs in `args` by the
    space, vectors and cost they name, loaded in that order, the order of
    the digests in `inputs`."""
    given = vars(args)
    if "space" in given:
        given["space"] = _load_space_arg(given["space"], inputs)
    for name in ("f", "nu", "mu"):
        if given.get(name) is not None:
            given[name] = _load_vector_arg(given[name], name, inputs)
    if "cost" in given:
        try:
            given["cost"] = parse_cost_spec(given["cost"])
        except ValueError as exc:
            raise InputError(str(exc)) from exc


def _flatten(obj, prefix, rows):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            rows.append((prefix, ";".join("" if v is None else str(v) for v in obj)))
        else:
            for i, v in enumerate(obj):
                _flatten(v, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, "" if obj is None else str(obj)))


def _to_csv(payload):
    rows = []
    _flatten(payload, "", rows)
    lines = ["key,value"]
    for key, value in rows:
        if "," in value or '"' in value:
            value = '"' + value.replace('"', '""') + '"'
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, exit_code), and reads the
# space, vectors and cost that `_load_inputs` put in `args`.  A payload may
# hold report dataclasses as they are: `run` makes it plain JSON in one
# `jsonable` walk


def _cmd_space(args, inputs):
    spec = args.validate if args.validate else args.example
    if spec is None:
        raise InputError("space needs --example or --validate")
    space = _load_space_arg(spec, inputs)
    payload = {"n": space.n, "diameter": space.diameter,
               "valid": True, **space.to_json_dict()}
    return payload, 0


def _cmd_qtilde(args, inputs):
    f, t, cost, space = args.f, args.t, args.cost, args.space
    res = weak_infconv(f, t, cost, space)
    payload = {
        "t": t,
        "cost": cost.label(),
        "values": res.values,
        "derivative": time_derivative(f, t, cost, space, result=res),
        "argmin": list(zip(res.u_min, res.u_max)),
    }
    code = 0
    if args.oracle:
        ref = weak_infconv_bruteforce(f, t, cost, space)
        errors = abs(res.values - ref)
        payload["oracle_values"] = ref
        payload["oracle_max_error"] = float(errors.max())
        # the exact oracle agrees to rounding: 1e-12 (1 + |oracle|) per point
        if (errors > 1e-12 * (1.0 + abs(ref))).any():
            code = 2
    return payload, code


def _cmd_hj_verify(args, inputs):
    grid = _parse_grid(args.t_grid)
    slices = hj_residuals(args.f, grid, args.cost, args.space)
    payload = {"cost": args.cost.label(), "slices": slices}
    holds = all(s.holds for s in slices)
    if args.boundary:
        boundary = hj_boundary(args.f, args.cost, args.space)
        payload["boundary"] = boundary
        holds = holds and boundary.holds
    payload["holds"] = bool(holds)
    return payload, 0 if holds else 2


def _cmd_obstruction(args, inputs):
    grid = _parse_grid(args.t_grid) if args.t_grid else None
    res = obstruction_search(args.space, t_grid=grid, trials=args.trials,
                             seed=args.seed)
    # the default family recovers f, so the status is witness or exhausted
    return res, 2 if res.status == "witness" else 0


def _cmd_ttilde(args, inputs):
    nu, mu, cost, space = args.nu, args.mu, args.cost, args.space
    res = weak_transport_cost(nu, mu, cost, space)
    payload = {
        "cost": cost.label(),
        "value": res.value,
        "gap": res.gap,
        "iterations": res.iterations,
        "converged": res.converged,
        "coupling": res.coupling.matrix,
    }
    code = 0
    if args.oracle:
        ref = transport_oracle_small(nu, mu, cost, space)
        payload["oracle_value"] = ref
        payload["oracle_error"] = abs(res.value - ref)
        # the oracle lies between the certified lower bound and the value
        if not res.value - res.gap - 1e-12 <= ref <= res.value + 1e-9:
            code = 2
    return payload, code


def _cmd_te_verify(args, inputs):
    mu = uniform_measure(args.space.n) if args.mu is None else args.mu
    report = check_transport_entropy(
        mu, args.C, args.cost, args.space, direction=args.direction,
        n_samples=args.samples, seed=args.seed)
    return report, 2 if report.violated else 0


def _cmd_constants(args, inputs):
    payload = constants_report(args.space, args.mu, restarts=args.restarts,
                               seed=args.seed)
    return payload, 0


def _cmd_chain_verify(args, inputs):
    payload = chain_report(args.space, args.mu, C=args.C, restarts=args.restarts,
                           samples=args.samples, seed=args.seed)
    legs = [payload["mlsi"], payload["dual"], *payload["transport"].values(),
            *payload["hypercontractivity"]]
    return payload, 2 if any(leg["verdict"] == "violated" for leg in legs) else 0


def _cmd_examples(args, inputs):
    inputs["example"] = _digest_obj({"report": args.which, "n": args.n})
    budget = {"restarts": args.restarts, "seed": args.seed}
    if args.which == "two-point":
        if args.n is not None:
            raise InputError(f"examples two-point takes no --n, got {args.n}")
        payload = two_point_report(**budget)
        return payload, 0 if payload["holds"] else 2
    size = {} if args.n is None else {"n": args.n}
    return hypercube_report(**size, samples=args.samples, **budget), 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they leave as a JSON error object
    with exit 1 like any other bad input; subparsers inherit the class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def _build_parser():
    parser = _Parser(
        prog="weakhj",
        description=("Weak inf-convolution semigroups, transport costs and "
                     "functional-inequality verifiers on finite metric "
                     "spaces. JSON on stdout."))
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for stochastic sweeps (default 0)")
    common.add_argument("--csv", action="store_true",
                        help="flatten the result payload to key,value rows")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", parents=[common],
                       help="build or validate a metric space")
    p.add_argument("--example", help="example spec, e.g. hypercube:3")
    p.add_argument("--validate", metavar="PATH",
                   help="JSON file with 'dist' or 'n'+'edges'")
    p.set_defaults(handler=_cmd_space)

    p = sub.add_parser("qtilde", parents=[common],
                       help="evaluate the weak inf-convolution")
    p.add_argument("--space", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--cost", default="quadratic")
    p.add_argument("--oracle", action="store_true",
                   help="compare against the brute-force oracle")
    p.set_defaults(handler=_cmd_qtilde)

    p = sub.add_parser("hj-verify", parents=[common],
                       help="residual and boundary verification")
    p.add_argument("--space", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--cost", default="quadratic")
    p.add_argument("--t-grid", default="0.1:2:0.1")
    p.add_argument("--boundary", action="store_true",
                   help="also verify the t->0 limit")
    p.set_defaults(handler=_cmd_hj_verify)

    p = sub.add_parser("obstruction", parents=[common],
                       help="search for a semigroup-failure witness")
    p.add_argument("--space", required=True)
    p.add_argument("--t-grid", default=None)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(handler=_cmd_obstruction)

    p = sub.add_parser("ttilde", parents=[common],
                       help="weak transport cost between two measures")
    p.add_argument("--space", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--cost", default="quadratic")
    p.add_argument("--oracle", action="store_true",
                   help="compare against the small-space oracle")
    p.set_defaults(handler=_cmd_ttilde)

    p = sub.add_parser("te-verify", parents=[common],
                       help="sampled transport-entropy inequality check")
    p.add_argument("--space", required=True)
    p.add_argument("--mu", default=None)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--direction", choices=("I", "II"), default="I")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--cost", default="quadratic")
    p.set_defaults(handler=_cmd_te_verify)

    p = sub.add_parser("constants", parents=[common],
                       help="Poincare and entropy ratio estimates")
    p.add_argument("--space", required=True)
    p.add_argument("--mu", default=None)
    p.add_argument("--restarts", type=int, default=24)
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("chain-verify", parents=[common],
                       help="entropy constant and its consequences")
    p.add_argument("--space", required=True)
    p.add_argument("--mu", default=None)
    p.add_argument("--C", type=float, default=None,
                   help="entropy constant; estimated when omitted")
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--restarts", type=int, default=24)
    p.set_defaults(handler=_cmd_chain_verify)

    p = sub.add_parser("examples", parents=[common],
                       help="worked example reports")
    p.add_argument("which", choices=("two-point", "hypercube"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--restarts", type=int, default=24)
    p.set_defaults(handler=_cmd_examples)
    return parser


def run(argv=None):
    """Parse argv, dispatch, print one JSON (or CSV) document, return
    the exit code."""
    inputs = {}
    start = time.monotonic()
    try:
        args = _build_parser().parse_args(argv)
        _load_inputs(args, inputs)
        payload, code = args.handler(args, inputs)
    except (ValueError, SolverError) as exc:
        kind, field = next((k, a) for cls, k, a in _ERRORS if isinstance(exc, cls))
        error = {"error": {"type": kind, "message": str(exc),
                           "detail": getattr(exc, field) if field else {}}}
        print(json.dumps(jsonable(error), indent=2))
        return 1
    manifest = {
        "command": args.command,
        "inputs": inputs,
        "seed": getattr(args, "seed", 0),
        "version": __version__,
        "wall_time_s": round(time.monotonic() - start, 6),
    }
    if getattr(args, "csv", False):
        sys.stdout.write(_to_csv(jsonable(payload)))
    else:
        print(json.dumps(jsonable({"manifest": manifest, "result": payload}),
                         indent=2))
    return code


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
