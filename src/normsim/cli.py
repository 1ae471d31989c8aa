"""Command-line front end: plot-ready CSV/JSON out, no interactive UI.

Subcommands:
  simulate      run a Monte Carlo experiment from a JSON spec
  chain         exact census-chain analysis for small communities (gamma = 1)
  design        feasibility analysis for the social threshold
  bestresponse  solve one user's adaptation problem against a census
  verify        run the cross-module consistency suites

Exit codes: 0 success, 1 invariant violation, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import chain as chain_mod
from . import design as design_mod
from .bestresponse import (
    best_response,
    bimodal_opponent,
    closed_form_bimodal,
    subset_serve,
)
from .norms import (
    CommunityParams,
    ConfigError,
    SocialNorm,
    config_number,
    load_document,
    load_norm,
)
from .payoff import model_arrays
from .sim import ExperimentSpec, bridge_occupancy, run_experiment


def _parse_grid(text: str) -> list[float]:
    """Parse start:stop:step into an inclusive grid.  A grid of more points
    than ``design.MAX_GRID_CELLS`` is refused before it is built."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"grid must look like start:stop:step, got {text!r}") from exc
    if not all(map(np.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ConfigError(f"bad grid bounds in {text!r}")
    stop += step / 2
    points = (stop - start) / step  # np.arange's length, before rounding up
    if points > design_mod.MAX_GRID_CELLS:
        raise ConfigError(
            f"grid {text!r} has more points than the limit {design_mod.MAX_GRID_CELLS}")
    return [float(v) for v in np.arange(start, stop, step)]


def _parse_ladder(text: str) -> list[float]:
    """Parse a comma-separated error ladder; each entry a finite float."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"eps ladder must be comma-separated numbers, got {text!r}") from exc
    return [config_number(v, "eps-ladder entry") for v in values]


def _parse_counts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"counts must be comma-separated integers, got {text!r}") from exc


def _cmd_simulate(args) -> int:
    doc = load_document(args.spec, "experiment spec")
    if args.seed is not None:
        doc["seed"] = args.seed
    spec = ExperimentSpec.from_dict(doc)
    summary = run_experiment(spec, out_dir=args.out)
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


def _cmd_chain(args) -> int:
    norm = load_norm(args.config)
    p = norm.params
    N = args.N if args.N is not None else p.N
    if N != p.N:
        norm = SocialNorm(params=dataclasses.replace(p, N=N), h=norm.h)
    space = chain_mod.enumerate_configs(N, norm.L)
    ladder = (
        _parse_ladder(args.eps_ladder) if args.eps_ladder
        else list(chain_mod.DEFAULT_EPS_LADDER)
    )
    result = chain_mod.limiting_distribution(norm, space, ladder)
    classification = chain_mod.classify_absorbing(norm, space)
    doc = {
        "schema_version": 1,
        "N": N,
        "L": norm.L,
        "h": norm.h,
        "eps_ladder": list(result.eps_ladder),
        "absorbing": space.counts[list(classification.absorbing_indices)].tolist(),
        "absorbing_classes": [
            space.counts[list(cls)].tolist() for cls in classification.classes
        ],
        "ssc_support": space.counts[list(result.support)].tolist(),
        "omega": {
            f"{eps:g}": [float(w) for w in dist.weights]
            for eps, dist in result.table.items()
        },
    }
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "chain.json").write_text(json.dumps(doc, indent=2))
        lines = ["config," + ",".join(f"omega_eps_{e:g}" for e in result.eps_ladder)]
        for i, census in enumerate(space.counts.tolist()):
            weights = [f"{result.table[e].weights[i]:.17g}" for e in result.eps_ladder]
            lines.append('"' + " ".join(map(str, census)) + '",' + ",".join(weights))
        (out / "omega.csv").write_text("\n".join(lines) + "\n")
    else:
        json.dump(doc, sys.stdout, indent=2)
        print()
    return 0


def _cmd_design(args) -> int:
    rows = design_mod.feasible_region_grid(
        _parse_grid(args.delta_grid), _parse_grid(args.cb_grid), args.L
    )
    design_mod.write_region_csv(rows, args.out if args.out else sys.stdout)
    return 0


def _cmd_bestresponse(args) -> int:
    norm = load_norm(args.config)
    eta = _parse_counts(args.eta)
    try:
        model_arrays(norm, [eta])  # the census has the right length, sign and sum
    except ValueError as exc:
        raise ConfigError(f"--eta {args.eta!r}: {exc}") from exc
    serve = subset_serve(norm.L) if args.action_space == "subset" else None
    sol = best_response(norm, eta, serve=serve)
    doc = {
        "schema_version": 1,
        "policy": [int(a) for a in sol.policy],
        "values": [float(v) for v in sol.values],
        "iterations": sol.iterations,
    }
    json.dump(doc, sys.stdout, indent=2)
    print()
    return 0


def _verify_closed_form(quick: bool) -> list[str]:
    failures = []
    Ns = (5, 11) if quick else (5, 11, 51)
    deltas = (0.3, 0.6) if quick else (0.3, 0.5, 0.6, 0.8)
    ratios = (2, 5) if quick else (2, 3, 5)
    for N in Ns:
        for h in (1, 2, 3):
            for d in deltas:
                for ratio in ratios:
                    params = CommunityParams(N=N, L=3, b=float(ratio), c=1.0, delta=d)
                    norm = SocialNorm(params=params, h=h)
                    for nL in range(N + 1):
                        for rep in (0, 3):
                            if nL == (N if rep == 0 else 0):
                                continue  # nobody at reputation rep
                            cf = closed_form_bimodal(norm, N - nL, nL, rep)
                            br = best_response(
                                norm, bimodal_opponent(norm, N - nL, nL, rep)
                            )
                            if np.abs(br.values - cf.values).max() > 1e-7:
                                failures.append(
                                    f"closed form vs iteration at N={N} h={h} "
                                    f"delta={d} b={ratio} census={(N - nL, 0, 0, nL)}"
                                )
    return failures


def _verify_absorbing(quick: bool) -> list[str]:
    failures = []
    Ns = (4, 6) if quick else (4, 6, 8)
    deltas = (0.3, 0.6, 0.9)
    for N in Ns:
        for d in deltas:
            for ratio in (2, 5):
                for h in (1, 2):
                    params = CommunityParams(N=N, L=3, b=float(ratio), c=1.0, delta=d)
                    norm = SocialNorm(params=params, h=h)
                    space = chain_mod.enumerate_configs(N, 3)
                    try:
                        chain_mod.classify_absorbing(norm, space)
                    except RuntimeError as exc:
                        failures.append(str(exc))
    return failures


def _verify_bridge(quick: bool) -> list[str]:
    N, eps, periods = (5, 0.05, 50_000) if quick else (6, 0.01, 1_000_000)
    params = CommunityParams(N=N, L=3, b=3.0, c=1.0, delta=0.6, epsilon=eps, gamma=1.0)
    norm = SocialNorm(params=params, h=1)
    space = chain_mod.enumerate_configs(N, 3)
    P = chain_mod.build_transition_matrix(norm, space)
    omega = chain_mod.stationary_distribution(P)
    counts = bridge_occupancy(norm, space, periods, seed=7)
    total = counts.sum()
    tv = 0.5 * np.abs(counts / total - omega.weights).sum()
    limit = 0.08 if quick else 0.03
    if tv > limit:
        return [f"trajectory vs stationary total variation {tv:.4f} > {limit}"]
    return []


def _cmd_verify(args) -> int:
    failures = []
    for name, suite in (
        ("closed-form equivalence", _verify_closed_form),
        ("absorbing classification", _verify_absorbing),
        ("trajectory bridge", _verify_bridge),
    ):
        found = suite(args.quick)
        status = "ok" if not found else f"{len(found)} failure(s)"
        print(f"{name}: {status}")
        for msg in found:
            print(f"  {msg}")
        failures.extend(found)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normsim",
        description="Reputation-protocol analysis: simulation, exact chains, design.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    sim.add_argument("--spec", required=True, help="experiment spec JSON file")
    sim.add_argument("--seed", type=int, default=None, help="override the spec seed")
    sim.add_argument("--out", default=None, help="output directory for CSV/JSON")
    sim.set_defaults(func=_cmd_simulate)

    ch = sub.add_parser("chain", help="exact census-chain analysis")
    ch.add_argument("--config", required=True, help="community config JSON file")
    ch.add_argument("--N", type=int, default=None, help="override the population size")
    ch.add_argument("--eps-ladder", default=None, help="comma-separated error ladder")
    ch.add_argument("--out", default=None, help="output directory")
    ch.set_defaults(func=_cmd_chain)

    de = sub.add_parser("design", help="social-threshold feasibility grid")
    de.add_argument("--delta-grid", required=True, help="start:stop:step")
    de.add_argument("--cb-grid", required=True, help="start:stop:step for c/b")
    de.add_argument("--L", type=int, default=3, help="top reputation")
    de.add_argument("--out", default=None, help="CSV output path")
    de.set_defaults(func=_cmd_design)

    br = sub.add_parser("bestresponse", help="solve one user's adaptation problem")
    br.add_argument("--config", required=True, help="community config JSON file")
    br.add_argument("--eta", required=True, help="opponent census, e.g. 2,0,0,7")
    br.add_argument(
        "--action-space", choices=("threshold", "subset"), default="threshold"
    )
    br.set_defaults(func=_cmd_bestresponse)

    ve = sub.add_parser("verify", help="run cross-module consistency suites")
    ve.add_argument("--quick", action="store_true", help="smaller grids and runs")
    ve.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # UnicodeDecodeError is a ValueError, so it must be caught first
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
