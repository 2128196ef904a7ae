"""Command-line interface.

Verbs: capacity (source-model SK/PK), bounds (transceiver lower /
noninteractive / upper), polytree (per-edge capacities, optionally
wiretapped bounds), simulate (Monte-Carlo protocol runs), validate
(parse-only check).

Reports go to stdout as JSON with sorted keys, an indent of 2 and numbers
rounded to 12 significant digits; every report embeds the tool version,
the model-file SHA-256, and the full configuration.  Diagnostics go to
stderr.  Exit codes: 0 ok, 2 model/schema error (also a command-line usage
error or an unwritable --csv), 3 LP failure, 4 internal-consistency
failure, 5 infeasible rate, 6 iteration cap hit before convergence.

A command's fixed cost is kept small, since on small models it is most of
the command: a command line that starts with a verb builds only that
verb's parser (``_parse``), and ``_json`` rounds and writes a report in
one walk, with the bytes ``json.dumps(..., sort_keys=True, indent=2)``
gives for the rounded report.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__
from .errors import (
    ConvergenceError,
    DecodeBudgetError,
    InternalConsistencyError,
    LpError,
    ModelError,
    RateInfeasibleError,
    SkacapError,
)
from .modelio import parse_model
from .models import PartySpec, Polytree, SourceModel, TransceiverModel
from .omniscience import (
    constraint_family,
    pk_capacity,
    sk_capacity,
    sk_capacity_dual,
    source_entropies,
)
from .optimize import MAX_RESTARTS, InputOptimizerConfig
from .polytree import polytree_capacity, wiretapped_polytree_bounds
from .sim import SimConfig, run_sim
from .transceiver import sk_bounds

EXIT_OK = 0
EXIT_MODEL = 2
EXIT_LP = 3
EXIT_CONSISTENCY = 4
EXIT_RATE = 5
EXIT_CONVERGENCE = 6

#: Warn when the constraint family gets large.
FAMILY_WARN = 1 << 14

PRIMAL_DUAL_TOL = 1e-7


def _json(obj, pad: str = "\n") -> str:
    """``obj`` as JSON text, with every float rounded to 12 significant digits.

    One walk gives ``json.dumps(rounded, sort_keys=True, indent=2)``:
    ``pad`` is the newline and indent of ``obj``'s level; strings are
    ASCII-escaped, floats print as ``float.__repr__`` of the rounded value
    or as ``NaN``/``Infinity``/``-Infinity``, and numpy scalars as the
    Python numbers they hold.
    """
    if isinstance(obj, (float, np.floating)):
        x = float(f"{float(obj):.12g}")
        if math.isfinite(x):
            return repr(x)
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [_quote(k) + ": " + _json(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in obj]) + pad + "]"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(envelope: dict):
    sys.stdout.write(_json(envelope) + "\n")


def _envelope(args, verb: str, model_bytes: bytes, config: dict, result: dict) -> dict:
    return {
        "tool": "skacap",
        "version": __version__,
        "command": verb,
        "model_file": args.model,
        "model_sha256": hashlib.sha256(model_bytes).hexdigest(),
        "config": config,
        "result": result,
    }


def _load(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from exc
    return raw, parse_model(raw)


def _terminal_list(text: str) -> list[int]:
    try:
        out = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ModelError(f"bad terminal list {text!r}") from exc
    if not out or any(t < 1 for t in out):
        raise ModelError(f"terminal lists are 1-based and nonempty, got {text!r}")
    return out


def _int_at_least(low: int):
    """The argparse type of an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return integer


def cmd_capacity(args) -> int:
    raw, model = _load(args.model)
    if not isinstance(model, SourceModel):
        raise ModelError("capacity requires a source-model file")
    a = _terminal_list(args.A)
    d = _terminal_list(args.D) if args.D else []
    if d and args.dual:
        raise ModelError("--dual cross-checks the SK capacity (D = empty): drop --D or --dual")
    spec = PartySpec.from_one_based(model.m, a, d)
    fam = constraint_family(spec)
    if len(fam.members) > FAMILY_WARN:
        sys.stderr.write(
            f"warning: constraint family has {len(fam.members)} members\n"
        )
    if d:
        rep = pk_capacity(model, spec)
        result = {"pk_capacity": rep.to_dict()}
    else:
        h = source_entropies(model)  # one computation for both routes
        rep = sk_capacity(model, spec.a, h)
        result = {"sk_capacity": rep.to_dict()}
        if args.dual:
            dual = sk_capacity_dual(model, spec.a, h)
            result["sk_capacity_dual"] = dual.to_dict()
            if abs(dual.value - rep.value) > PRIMAL_DUAL_TOL:
                raise InternalConsistencyError(
                    f"primal {rep.value} and dual {dual.value} disagree"
                )
    config = {"A": a, "D": d, "dual": bool(args.dual)}
    _emit(_envelope(args, "capacity", raw, config, result))
    return EXIT_OK


def cmd_bounds(args) -> int:
    raw, model = _load(args.model)
    if not isinstance(model, TransceiverModel):
        raise ModelError("bounds requires a transceiver-model file")
    a = _terminal_list(args.A)
    if args.D:
        raise ModelError(
            "bounds computes the D = empty (SK) sandwich; "
            "use 'capacity' on an emulated source for PK studies"
        )
    spec = PartySpec.from_one_based(model.m, a)
    cfg = InputOptimizerConfig(restarts=args.restarts, seed=args.seed, grid=args.grid)
    out = sk_bounds(model, spec.a, cfg)
    result = {
        "lower_bounds": [r.to_dict() for r in out["lower_bounds"]],
        "noninteractive": out["noninteractive"].to_dict(),
        "upper_bound": out["upper_bound"].to_dict(),
    }
    config = {
        "A": a,
        "restarts": args.restarts,
        "seed": args.seed,
        "grid": args.grid,
    }
    _emit(_envelope(args, "bounds", raw, config, result))
    return EXIT_OK


def cmd_polytree(args) -> int:
    raw, model = _load(args.model)
    if not isinstance(model, Polytree):
        raise ModelError("polytree requires a polytree-model file")
    config = {"tol": args.tol, "wiretap": bool(args.wiretap)}
    if args.wiretap:
        lower, upper = wiretapped_polytree_bounds(model, tol=args.tol)
        result = {"lower": lower.to_dict(), "upper": upper.to_dict()}
    else:
        rep = polytree_capacity(model, tol=args.tol)
        result = {"capacity": rep.to_dict()}
    _emit(_envelope(args, "polytree", raw, config, result))
    return EXIT_OK


def cmd_simulate(args) -> int:
    raw, model = _load(args.model)
    if not isinstance(model, Polytree):
        raise ModelError("simulate requires a polytree-model file")
    a = (
        _terminal_list(args.A)
        if args.A
        else list(range(1, model.m + 1))
    )
    cfg = SimConfig(
        n=args.n,
        blocks=args.blocks,
        rate=args.rate,
        recon_margin=args.delta,
        pa_margin=args.s,
        seed=args.seed,
    )
    res = run_sim(model, {t - 1 for t in a}, cfg, csv_path=args.csv)
    cap = polytree_capacity(model)
    result = res.to_dict()
    result["noninteractive_capacity"] = cap.value
    config = {
        "A": a,
        "n": args.n,
        "blocks": args.blocks,
        "rate": args.rate,
        "delta": args.delta,
        "s": args.s,
        "seed": args.seed,
        "csv": args.csv,
    }
    _emit(_envelope(args, "simulate", raw, config, result))
    return EXIT_OK


def cmd_validate(args) -> int:
    raw, model = _load(args.model)
    kind = {SourceModel: "source", TransceiverModel: "transceiver", Polytree: "polytree"}[
        type(model)
    ]
    _emit(_envelope(args, "validate", raw, {}, {"valid": True, "kind": kind}))
    return EXIT_OK


def _capacity_args(p):
    p.add_argument("--A", required=True, help="key terminals, 1-based, comma-separated")
    p.add_argument("--D", default="", help="compromised terminals")
    p.add_argument("--dual", action="store_true",
                   help="also solve the fractional-cover dual and cross-check (not with --D)")


def _bounds_args(p):
    p.add_argument("--A", required=True)
    p.add_argument("--D", default="")
    p.add_argument("--restarts", type=int, default=8,
                   help=f"Dirichlet-random ascent starts, 1 to {MAX_RESTARTS}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=_int_at_least(2), default=8,
                   help="seeding-grid denominator, at least 2: the grid steps by 1/GRID")


def _polytree_args(p):
    p.add_argument("--wiretap", action="store_true", help="wiretapped lower/upper pair")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="certified Frank-Wolfe gap at which each edge's ascent stops "
                        "(Blahut-Arimoto, or I(T;Y|Z) with --wiretap)")
    p.add_argument("--restarts", type=int, default=8,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility; has no effect")


def _simulate_args(p):
    p.add_argument("--A", default="", help="key terminals (default: all)")
    p.add_argument("--n", type=int, required=True, help="rounds per block")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--rate", type=float, required=True, help="key bits per round")
    p.add_argument("--delta", type=float, default=0.25, help="reconciliation margin")
    p.add_argument("--s", type=int, default=8, help="privacy-amplification margin bits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="per-block CSV output path")


#: verb -> (help line, the verb's own arguments, handler), in usage order.
VERBS = {
    "capacity": ("source-model SK/PK capacity", _capacity_args, cmd_capacity),
    "bounds": ("transceiver lower/noninteractive/upper bounds", _bounds_args, cmd_bounds),
    "polytree": ("polytree-PIN capacity", _polytree_args, cmd_polytree),
    "simulate": ("Monte-Carlo key-agreement simulation", _simulate_args, cmd_simulate),
    "validate": ("parse and check a model file", lambda p: None, cmd_validate),
}


def _add_verb(p: argparse.ArgumentParser, verb: str) -> argparse.ArgumentParser:
    """Give ``p`` the arguments of ``verb``, and ``verb``/``fn`` as defaults."""
    _, add_args, fn = VERBS[verb]
    p.add_argument("model", help="model file (JSON)")
    p.add_argument("--threads", type=_int_at_least(1), default=1,
                   help="accepted for compatibility; has no effect")
    add_args(p)
    p.set_defaults(verb=verb, fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The skacap parser, with a subparser per verb."""
    parser = argparse.ArgumentParser(
        prog="skacap",
        description="Secret-key agreement capacities for multiterminal channel models",
    )
    parser.add_argument("--version", action="version", version=f"skacap {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (help_line, _, _) in VERBS.items():
        _add_verb(sub.add_parser(name, help=help_line), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building one verb's parser alone
    when ``argv`` starts with that verb.

    The full parser hands everything after the verb to the verb's subparser
    (prog ``skacap <verb>``), so the verb's own parser gives the same
    namespace, help and errors.  Three things only the full parser does,
    so those command lines go to it: a line that does not start with a
    verb; arguments the verb does not know, which the top-level parser
    reports as unrecognized; and an argument starting with ``--=``, which
    the top-level parser refuses as an ambiguous ``--help``/``--version``
    before the verb's subparser runs.
    """
    if argv and argv[0] in VERBS and not any(a.startswith("--=") for a in argv):
        verb = _add_verb(argparse.ArgumentParser(prog=f"skacap {argv[0]}"), argv[0])
        args, unknown = verb.parse_known_args(argv[1:])
        if not unknown:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None)."""
    args = _parse(list(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except RateInfeasibleError as exc:
        sys.stderr.write(f'{{"error": {_json(str(exc))}, '
                         f'"max_feasible_rate": {_json(exc.max_feasible_rate)}}}\n')
        return EXIT_RATE
    except (ModelError, DecodeBudgetError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MODEL
    except LpError as exc:
        sys.stderr.write(f"LP failure: {exc}\n")
        return EXIT_LP
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return EXIT_CONSISTENCY
    except ConvergenceError as exc:
        sys.stderr.write(f"no convergence: {exc}\n")
        return EXIT_CONVERGENCE
    except SkacapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MODEL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
