"""Command-line front end.

Subcommands wire the catalog, Rayleigh calculus, certificate store,
checker, SOS search, and sampler into reproducible runs.  Exit codes:
0 success/PROVED, 1 REFUTED or verification FAIL, 2 INCONCLUSIVE or
not found, 3 usage or I/O error, 4 computation error (an unexpected
exception, too, is one `error: internal error:` line and exit 4).
`check-hpp` replays its report (`replay_report`) before it prints a
verdict; a report that does not replay is a computation error.

Only the float layers, `sos_search` and `sampler`, import numpy, and they
are imported where they are used: `sos-search`, `sample`, and `check-hpp`
with `--search` or `--refute`.  `catalog`, `bases`, `minor`, `dual`,
`iso`, `rdiff`, `disc`, `verify-cert`, and `check-hpp` without those
flags never load numpy.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from hppcheck import catalog as catalog_mod
from hppcheck.certificate import (CertificateParseError, certificate_from_text,
                                  certificate_to_text, load_store,
                                  shipped_store_dir, verify)
from hppcheck.checker import (CheckOptions, INCONCLUSIVE, PROVED, REFUTED,
                              StrongRayleighChecker, replay_report)
from hppcheck.matroid import (DegenerateMinorError, Matroid,
                              MatroidParseError, matroid_from_text,
                              matroid_to_text)
from hppcheck.polynomial import (Polynomial, PolynomialParseError,
                                 format_polynomial, parse_polynomial)
from hppcheck.rayleigh import discriminant, rayleigh_diff

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_ERROR = 4

_EPILOG = ("exit codes: 0 success/PROVED, 1 REFUTED/FAIL, "
           "2 INCONCLUSIVE/not found, 3 usage or I/O error, "
           "4 computation error")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e3" as a flag (its default pattern knows only
        # "-1" and "-1.5"), so a box like "--box -1e3 1e3" could not be given
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class UsageError(Exception):
    """A well-formed command whose arguments do not fit its input (exit 3)."""


def _load(ref: str, of_matroid, parse_text):
    """A catalog name or U_<r>_<m> pattern, through `of_matroid`, else the
    existing file `ref`, through `parse_text`."""
    try:
        return of_matroid(catalog_mod.resolve_name(ref))
    except KeyError as exc:
        path = Path(ref)
        if not path.exists():
            raise KeyError(f"{exc.args[0]}, and no file of that name") from None
    return parse_text(path.read_text())


def _load_matroid(ref: str) -> Matroid:
    """Resolve a catalog name, U_<r>_<m> pattern, or matroid file path."""
    return _load(ref, lambda M: M, matroid_from_text)


def _load_polynomial(ref: str) -> Polynomial:
    """Resolve to a polynomial: catalog/uniform names give the basis
    polynomial, otherwise the file is read in the polynomial grammar."""
    def parse(text: str) -> Polynomial:
        try:
            return parse_polynomial(text)
        except PolynomialParseError as exc:
            # a matroid file lands here too: say what was expected
            raise PolynomialParseError(
                f"{ref}: expected a catalog name or a polynomial file: "
                f"{exc}") from None
    return _load(ref, Matroid.basis_polynomial, parse)


def _check_elements(m: int, *elements: int) -> None:
    """Element arguments must be distinct members of the ground set 1..m."""
    for e in elements:
        if not 1 <= e <= m:
            raise UsageError(f"element {e} is not in the ground set 1..{m}")
    if len(set(elements)) != len(elements):
        raise UsageError(f"elements {list(elements)} are not distinct")


def _store_from(args) -> "CertificateStore":
    directory = args.certs if getattr(args, "certs", None) else shipped_store_dir()
    return load_store(directory)


# -- subcommand handlers -----------------------------------------------------


def _cmd_catalog(args) -> int:
    for name, ent in catalog_mod.catalog().items():
        M = ent.matroid
        flags = []
        if ent.cert_pair:
            flags.append(f"certificate pair {ent.cert_pair}")
        if ent.known_hpp:
            flags.append("known HPP (imported)")
        print(f"{name}: m={M.m} rank={M.rank} bases={M.num_bases()}"
              + (f"  [{'; '.join(flags)}]" if flags else ""))
        if args.verbose:
            print(f"    {ent.provenance}")
    return EXIT_OK


def _cmd_bases(args) -> int:
    M = _load_matroid(args.name)
    sys.stdout.write(matroid_to_text(M))
    return EXIT_OK


def _cmd_minor(args) -> int:
    M = _load_matroid(args.name)
    _check_elements(M.m, args.element)
    if M.m == 1:
        raise UsageError("a one-element matroid has no nonempty minor")
    if args.op == "del":
        out = M.delete(args.element)
    else:
        out = M.contract(args.element)
    sys.stdout.write(matroid_to_text(out))
    return EXIT_OK


def _cmd_dual(args) -> int:
    M = _load_matroid(args.name)
    sys.stdout.write(matroid_to_text(M.dual()))
    return EXIT_OK


def _cmd_iso(args) -> int:
    A = _load_matroid(args.first)
    B = _load_matroid(args.second)
    perm = A.is_isomorphic(B)
    if perm is None:
        print("not isomorphic")
        return EXIT_INCONCLUSIVE
    print("isomorphic; element i of the first maps to:")
    print(" ".join(f"{i+1}->{p}" for i, p in enumerate(perm)))
    return EXIT_OK


def _cmd_rdiff(args) -> int:
    Z = _load_polynomial(args.source)
    _check_elements(Z.m, args.e, args.f)
    print(format_polynomial(rayleigh_diff(Z, args.e, args.f)))
    return EXIT_OK


def _cmd_disc(args) -> int:
    Z = _load_polynomial(args.source)
    if not Z.is_multiaffine():
        raise UsageError("disc requires a multiaffine polynomial")
    _check_elements(Z.m, args.e, args.f, args.g)
    print(format_polynomial(discriminant(Z, args.e, args.f, args.g)))
    return EXIT_OK


def _cmd_verify_cert(args) -> int:
    cert = certificate_from_text(Path(args.certfile).read_text(),
                                 source=args.certfile)
    if args.target:
        target = _load_polynomial(args.target)
        if cert.matroid_name and args.target == cert.matroid_name and cert.pair:
            _check_elements(target.m, *cert.pair)
            target = rayleigh_diff(target, *cert.pair)
    elif cert.target is not None:
        target = cert.target
    elif cert.matroid_name and cert.pair:
        try:
            M = catalog_mod.resolve_name(cert.matroid_name)
        except KeyError:
            print(f"certificate names unknown matroid {cert.matroid_name!r}; "
                  f"pass --target", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        _check_elements(M.m, *cert.pair)
        target = rayleigh_diff(M.basis_polynomial(), *cert.pair)
    else:
        print("certificate has no target; pass --target", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    verdict = verify(cert, target)
    print(verdict.describe())
    return EXIT_OK if verdict.passed else EXIT_FAIL


def _cmd_check_hpp(args) -> int:
    M = _load_matroid(args.name)
    store = _store_from(args)
    options = CheckOptions(search=args.search, refute=args.refute,
                           seed=args.seed)
    if args.refute:
        print(f"seed: {args.seed}")
    checker = StrongRayleighChecker(store, options)
    report = checker.check(M, name=args.name)
    # a verdict stands only once its evidence re-checks exactly
    if not replay_report(report, M, store):
        print(f"error: the {report.verdict} report does not replay",
              file=sys.stderr)
        return EXIT_ERROR
    payload = (json.dumps(report.to_dict(), indent=2)
               if args.format == "structured" else report.render())
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        print(payload)
    print(f"verdict: {report.verdict}")
    return {PROVED: EXIT_OK, REFUTED: EXIT_FAIL,
            INCONCLUSIVE: EXIT_INCONCLUSIVE}[report.verdict]


def _cmd_sos_search(args) -> int:
    from hppcheck.sos_search import (GramProblemError, UnsuitableTargetError,
                                     build_problem, search_certificate)
    target = _load_polynomial(args.polyfile)
    try:
        build_problem(target)
    except UnsuitableTargetError as exc:
        # unsuitable input, not a proof that no Gram matrix exists (FAIL)
        raise UsageError(f"sos-search target: {exc}") from None
    except GramProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_FAIL
    cert = search_certificate(target)
    if cert is None:
        print("no certificate found (this does not prove nonexistence)")
        return EXIT_INCONCLUSIVE
    text = certificate_to_text(cert)
    if args.out:
        Path(args.out).write_text(text)
        print(f"certificate written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_sample(args) -> int:
    from hppcheck import sampler as sampler_mod
    Z = _load_polynomial(args.source)
    mode = {"rayleigh": sampler_mod.RAYLEIGH,
            "strong-rayleigh": sampler_mod.STRONG_RAYLEIGH,
            "hpp": sampler_mod.HPP_EVIDENCE,
            "stable": sampler_mod.STABLE_EVIDENCE}[args.mode]
    pairwise = mode in (sampler_mod.RAYLEIGH, sampler_mod.STRONG_RAYLEIGH)
    if pairwise and not Z.is_multiaffine():
        raise UsageError(f"--mode {args.mode} requires a multiaffine polynomial")
    box = tuple(args.box) if args.box else None
    try:
        config = sampler_mod.SampleConfig(mode=mode, trials=args.trials,
                                          box=box, seed=args.seed,
                                          descent=args.descent)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"seed: {args.seed}")
    if pairwise:
        counter = sampler_mod.falsify(Z, config)
        if counter is None:
            print("no counterexample found")
            return EXIT_OK
        pt = ", ".join(str(x) for x in counter.point)
        print(f"counterexample: pair {counter.pair} at ({pt})")
        print(f"exact value: {counter.value}")
        return EXIT_FAIL
    report = sampler_mod.hpp_evidence(Z, config)
    print(f"min |Z| over {report.trials} sampled points: {report.min_modulus:.6g}")
    print("at point: " + ", ".join(f"{z.real:.4g}{z.imag:+.4g}j"
                                   for z in report.point))
    if report.exact_zero is not None:
        print("exact zero found (falsification)")
        return EXIT_FAIL
    print("heuristic evidence only; no claim")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="hppcheck", epilog=_EPILOG,
                     description="Exact half-plane / strong Rayleigh "
                                 "certification for multiaffine polynomials "
                                 "and matroid basis polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list built-in matroids",
                       epilog=_EPILOG)
    p.add_argument("--verbose", action="store_true",
                   help="include provenance notes")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("bases", help="print a matroid in file format",
                       epilog=_EPILOG)
    p.add_argument("name", help="catalog name, U_<r>_<m>, or matroid file")
    p.set_defaults(func=_cmd_bases)

    p = sub.add_parser("minor", help="one-element deletion or contraction",
                       epilog=_EPILOG)
    p.add_argument("name")
    p.add_argument("op", choices=("del", "con"))
    p.add_argument("element", type=int)
    p.set_defaults(func=_cmd_minor)

    p = sub.add_parser("dual", help="dual matroid", epilog=_EPILOG)
    p.add_argument("name")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("iso", help="isomorphism test", epilog=_EPILOG)
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("rdiff", help="Rayleigh difference of a pair",
                       epilog=_EPILOG)
    p.add_argument("source", help="catalog name or polynomial file")
    p.add_argument("e", type=int)
    p.add_argument("f", type=int)
    p.set_defaults(func=_cmd_rdiff)

    p = sub.add_parser("disc", help="discriminant of the pair difference "
                                    "as a quadratic in the third variable",
                       epilog=_EPILOG)
    p.add_argument("source")
    p.add_argument("e", type=int)
    p.add_argument("f", type=int)
    p.add_argument("g", type=int)
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("verify-cert", help="verify a certificate exactly",
                       epilog=_EPILOG)
    p.add_argument("certfile")
    p.add_argument("--target", help="matroid name or polynomial file "
                                    "overriding the certificate's target")
    p.set_defaults(func=_cmd_verify_cert)

    p = sub.add_parser("check-hpp", help="recursive strong-Rayleigh check",
                       epilog=_EPILOG)
    p.add_argument("name")
    p.add_argument("--certs", help="certificate directory (default: shipped)")
    p.add_argument("--search", action="store_true",
                   help="try SOS search when no certificate applies")
    p.add_argument("--refute", action="store_true",
                   help="hunt for exact rational counterexamples")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the --refute sampler")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(func=_cmd_check_hpp)

    p = sub.add_parser("sos-search", help="search for a sum-of-squares "
                                          "certificate (exactly re-verified)",
                       epilog=_EPILOG)
    p.add_argument("polyfile", help="catalog name or polynomial file")
    p.add_argument("--out", help="write the certificate file here")
    p.set_defaults(func=_cmd_sos_search)

    p = sub.add_parser("sample", help="randomized falsification / evidence",
                       epilog=_EPILOG)
    p.add_argument("source", help="catalog name or polynomial file")
    p.add_argument("--mode", required=True,
                   choices=("rayleigh", "strong-rayleigh", "hpp", "stable"))
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--descent", action=argparse.BooleanOptionalAction,
                   default=True)
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse --help exits 0; usage errors come through _Parser.error
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, MatroidParseError, CertificateParseError,
            PolynomialParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateMinorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # a traceback would exit 1, the REFUTED/FAIL code
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
