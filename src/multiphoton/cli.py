"""Command-line surface.

Exit codes: 0 ok, 1 verification failure, 2 validation error, 3 size cap
exceeded, 4 suppression-conjecture violation detected.

Floating-point output uses 17 significant digits in JSON (round-trip exact)
and 12 in CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from . import bosonsampling, network, probability, spectral, verify, zeroprob
from .errors import MultiphotonError, SizeLimitError, ValidationError
from .network import parse_network_source
from .probability import ENGINES, output_distribution
from .spectral import GaussianState, load_detectors, load_photons

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_VALIDATION = 2
EXIT_SIZE = 3
EXIT_CONJECTURE = 4


# -- formatting helpers -----------------------------------------------------------


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _format_json(obj) -> str:
    """JSON with floats at 17 significant digits."""

    def walk(x):
        if isinstance(x, float):
            return _RawFloat(x)
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [walk(v) for v in x]
        return x

    class _RawFloat(float):
        def __repr__(self):
            return f"{float(self):.17g}"

    return json.dumps(walk(obj), indent=2, default=_json_default)


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _csv_cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path: str | None, header: Sequence[str], rows):
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
    _write_text(path, "\n".join(lines))


def _parse_occupation(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"occupation must be comma-separated integers: {text!r}") from exc


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"range must look like start:stop:count, got {text!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValidationError("range count must be >= 1")
    return np.linspace(start, stop, count)


# -- subcommands ------------------------------------------------------------------


def cmd_distribution(args) -> int:
    u = parse_network_source(args.network, args.tol)
    n_occ = _parse_occupation(args.input)
    if len(n_occ) != u.shape[0]:
        raise ValidationError(
            f"field 'input': {len(n_occ)} modes but the network has {u.shape[0]}"
        )
    n = sum(n_occ)
    photons = load_photons(args.photons) if args.photons else None
    if args.engine not in ("classical", "ideal"):
        if photons is None:
            raise ValidationError("field 'photons': this engine needs a photon spec file")
        if len(photons) != n:
            raise ValidationError(
                f"field 'photons': {len(photons)} entries but |input| = {n}"
            )
    detectors = load_detectors(args.detectors) if args.detectors else None
    if detectors is not None and len(detectors) != u.shape[0]:
        raise ValidationError(
            f"field 'detectors': {len(detectors)} entries but the network has {u.shape[0]} modes"
        )
    dist = output_distribution(args.engine, u, n_occ, photons=photons, detectors=detectors)
    _write_text(args.out, _format_json(dist.to_dict()))
    return EXIT_OK


def cmd_hom_scan(args) -> int:
    taus = _parse_range(args.range)
    if args.photons:
        photons = load_photons(args.photons)
        if len(photons) != 2 or not all(isinstance(p, GaussianState) for p in photons):
            raise ValidationError("field 'photons': HOM scan needs exactly 2 Gaussian photons")
        base = photons[0]
        if (photons[1].omega, photons[1].delta, photons[1].pol) != (base.omega, base.delta, base.pol):
            raise ValidationError("field 'photons': the two Gaussians must differ only by delay")
    else:
        base = GaussianState(omega=args.omega, delta=args.delta, t=0.0)
    u = network.fourier(2)
    rows = []
    for tau in taus:
        pair = [base, base.delayed(float(tau))]
        dist_p = probability.prob_permanent_basis(pair, None, u, (1, 1), (1, 1))
        rows.append((float(tau), dist_p.p))
    _write_csv(args.out, ["tau", "p_coincidence"], rows)
    return EXIT_OK


def cmd_purity(args) -> int:
    gammas = _parse_range(args.range)
    if np.any(gammas < 0.0) or np.any(gammas >= 1.0):
        raise ValidationError("field 'range': gamma values must lie in [0, 1)")
    n_list = [int(x) for x in args.n_list.split(",")]
    rows = bosonsampling.purity_curve(n_list, gammas)
    _write_csv(args.out, ["gamma", "N", "purity", "trace"],
               [(r["gamma"], r["N"], r["purity"], r["trace"]) for r in rows])
    return EXIT_OK


def _load_group_spec(path: str) -> zeroprob.GroupSpec:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        groups = []
        for entry in data["groups"]:
            state = spectral.photon_from_dict(entry["state"])
            groups.append(zeroprob.PhotonGroup(state=state, modes=tuple(int(m) for m in entry["modes"])))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"group spec file malformed: {exc}") from exc
    return zeroprob.GroupSpec(tuple(groups))


def _render_suppression_table(records) -> str:
    header = f"{'m':<18} {'max|Y|':>12} {'P(grid)':>34} verdict"
    lines = [header, "-" * len(header)]
    for r in records:
        probs = " ".join(f"{p:.2e}" for p in r.probabilities.values()) or "-"
        lines.append(f"{str(r.m):<18} {r.max_amplitude:>12.3e} {probs:>34} {r.verdict}")
    return "\n".join(lines)


def cmd_suppress(args) -> int:
    u = parse_network_source(args.network, args.tol)
    spec = _load_group_spec(args.groups)
    records = zeroprob.suppression_scan(u, spec)
    report = {
        "network": args.network,
        "records": [r.to_dict() for r in records],
        "flagged": sum(r.verdict == zeroprob.VERDICT_SUPPRESSED for r in records),
        "violations": sum(r.violation for r in records),
    }
    _write_text(args.out, _format_json(report))
    if args.out not in (None, "-"):
        print(_render_suppression_table(records))
    if report["violations"]:
        offender = next(r for r in records if r.violation)
        print(f"conjecture violation at output {offender.m}: {offender.probabilities}",
              file=sys.stderr)
        return EXIT_CONJECTURE
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = verify.run_checks(seed=args.seed, inject_fault=args.inject_fault)
    report = {
        "seed": args.seed,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    _write_text(args.out, _format_json(report))
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiphoton",
        description="Exact multiphoton output probabilities for unitary linear-optical "
                    "networks with partially distinguishable photons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output file ('-' or omit for stdout)")
        p.add_argument("--tol", type=float, default=network.USER_UNITARITY_TOL,
                       help="unitarity tolerance for user-supplied networks (finite, >= 0)")

    p = sub.add_parser("distribution", help="full output distribution for one engine")
    p.add_argument("--network", required=True, help="file | fourier:M | haar:M:seed")
    p.add_argument("--input", required=True, help="comma-separated occupation, e.g. 1,1,0")
    p.add_argument("--photons", default=None, help="photon spec JSON")
    p.add_argument("--detectors", default=None, help="detector spec JSON")
    p.add_argument("--engine", default="jmatrix", choices=ENGINES)
    add_common(p)
    p.set_defaults(func=cmd_distribution)

    p = sub.add_parser("hom-scan", help="two-photon coincidence vs delay on a balanced splitter")
    p.add_argument("--range", required=True, help="tau range start:stop:count")
    p.add_argument("--photons", default=None, help="photon spec JSON (2 Gaussians)")
    p.add_argument("--delta", type=float, default=1.0, help="spectral width when no file given")
    p.add_argument("--omega", type=float, default=0.0, help="center frequency when no file given")
    add_common(p)
    p.set_defaults(func=cmd_hom_scan)

    p = sub.add_parser("purity", help="Boson-Sampling purity-degradation curves")
    p.add_argument("--range", required=True, help="gamma range start:stop:count")
    p.add_argument("--n-list", default="2,4,10,20,30")
    add_common(p)
    p.set_defaults(func=cmd_purity)

    p = sub.add_parser("suppress", help="zero-probability suppression scan")
    p.add_argument("--network", required=True)
    p.add_argument("--groups", required=True, help="group spec JSON")
    add_common(p)
    p.set_defaults(func=cmd_suppress)

    p = sub.add_parser("verify", help="cross-engine and invariant checks")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--inject-fault", action="store_true",
                   help="negate a J entry to prove the harness catches it")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (ValidationError, MultiphotonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
