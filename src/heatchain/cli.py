"""Command line front end: validate | exact | verify | sample | entropy.

Model documents are JSON.  Energies are exact rationals written as strings
("3", "-7/2"); floats are rejected so that shell membership never depends
on binary rounding.  Temperatures and angles are ordinary numbers.

    {
      "system": {"energies": ["0", "1"], "beta": 1.0},
      "ancillas": [
        {"energies": ["0", "1"], "beta": 2.0,
         "unitary": {"kind": "partial_swap", "theta": 0.7853981633974483}}
      ],
      "master_seed": 7,
      "tolerance": 1e-9,
      "enumeration_cap": 100000000
    }

Unitary kinds and their parameters:
    haar          optional "stream_tag" (defaults to the collision number)
    partial_swap  "theta" in radians (resonant two-level subsystems only)
    permutation   "cycles": {"num/den": [[member indices], ...]} or "shift"
    explicit      "blocks": {"num/den": [[[re, im], ...], ...]}
    identity      no parameters

Exit codes: 0 all requested checks passed, 1 a check failed, 2 unusable
input or usage error, 141 (128 + SIGPIPE) stdout was closed before the
output was written.  Reports and exports are byte-identical across runs
with the same document, seed and worker count; wall-clock time is printed
separately and never written into them.

A report (validate, verify and entropy ``--out``) opens with "command",
"model" and "master_seed" and ends with "passed"; a check record lists
"name", "passed", "max_residual", its details, then "tolerance".

The argument parser is built once, at import; every ``dispatch`` in the
process parses with that one parser.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .chain import assert_detailed_balance, realize_model
from .heatstats import (
    DEFAULT_ENUMERATION_CAP,
    _csv_texts,
    _json_texts,
    _partial_decomposition,
    _system_law,
    _system_layers,
    compare_distributions,
    exact_forward_joint_via_ancilla_paths,
    verify_joint_ft,
    verify_product_relation,
)
from .model import (
    AncillaSpec,
    EnumerationCapError,
    ModelConfig,
    ModelError,
    Spectrum,
    format_rational,
    parse_rational,
)
from .sampler import SamplerConfig, _post_states, _sample, average_entropy_production
from .unitaries import UnitarySpec, validate_energy_preservation

__all__ = ["parse_model", "load_model_file", "RunSettings", "dispatch", "main"]

ROUTE_EQUIVALENCE_TOL = 1e-12
DEFAULT_DETAILED_BALANCE_TOL = 1e-10


@dataclass(frozen=True)
class RunSettings:
    """Document-level defaults that individual commands may override."""

    tolerance: float = 1e-9
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP


def _fail(path: str, message: str) -> ModelError:
    return ModelError(f"{path}: {message}")


def _at(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ``ModelError`` reported at the document field ``path``."""
    try:
        return build(*args, **kwargs)
    except ModelError as exc:
        raise _fail(path, str(exc)) from None


def _number(value: object, path: str) -> float:
    if isinstance(value, bool):
        raise _fail(path, f"expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        result = float(value)
    elif isinstance(value, str):
        try:
            result = float(value)
        except ValueError:
            raise _fail(path, f"expected a number, got {value!r}") from None
    else:
        raise _fail(path, f"expected a number, got {value!r}")
    if not math.isfinite(result):
        raise _fail(path, "must be finite")
    return result


def _spectrum(values: object, path: str) -> Spectrum:
    if not isinstance(values, list) or not values:
        raise _fail(path, "expected a non-empty list of exact energies")
    levels = []
    for idx, raw in enumerate(values):
        if isinstance(raw, float):
            raise _fail(
                f"{path}[{idx}]",
                f"floats are not exact; write {raw!r} as a 'num/den' string",
            )
        levels.append(_at(f"{path}[{idx}]", parse_rational, raw))
    return _at(path, Spectrum, tuple(levels))


def _complex_matrix(raw: object, path: str) -> list[list[complex]]:
    if not isinstance(raw, list) or not raw:
        raise _fail(path, "expected a matrix as a list of rows")
    matrix = []
    for r, row in enumerate(raw):
        if not isinstance(row, list):
            raise _fail(f"{path}[{r}]", "expected a list of [re, im] pairs")
        if len(row) != len(raw[0]):
            raise _fail(f"{path}[{r}]", f"has {len(row)} entries, row 0 has {len(raw[0])}")
        entries = []
        for c, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in cell)
            ):
                raise _fail(f"{path}[{r}][{c}]", "expected an [re, im] pair")
            entries.append(complex(cell[0], cell[1]))
        matrix.append(entries)
    return matrix


def _unitary(raw: object, path: str) -> UnitarySpec:
    if not isinstance(raw, Mapping):
        raise _fail(path, "expected an object with a 'kind' field")
    kind = raw.get("kind")
    if kind == "haar":
        tag = raw.get("stream_tag")
        if tag is not None and (isinstance(tag, bool) or not isinstance(tag, int)):
            raise _fail(f"{path}.stream_tag", "expected an integer")
        return _at(f"{path}.stream_tag", UnitarySpec.haar, stream_tag=tag)
    if kind == "partial_swap":
        if "theta" not in raw:
            raise _fail(f"{path}.theta", "partial_swap requires an angle")
        return UnitarySpec.partial_swap(_number(raw["theta"], f"{path}.theta"))
    if kind == "permutation":
        cycles = raw.get("cycles")
        if cycles is not None and not isinstance(cycles, Mapping):
            raise _fail(f"{path}.cycles", "expected {'num/den': [[...], ...]}")
        shift = raw.get("shift", 0)
        if isinstance(shift, bool) or not isinstance(shift, int):
            raise _fail(f"{path}.shift", "expected an integer")
        return _at(f"{path}.cycles", UnitarySpec.permutation, cycles=cycles, shift=shift)
    if kind == "explicit":
        blocks_raw = raw.get("blocks")
        if not isinstance(blocks_raw, Mapping) or not blocks_raw:
            raise _fail(f"{path}.blocks", "expected {'num/den': matrix} entries")
        # Keyed as written: the library parses each total and rejects "1" beside "2/2".
        blocks = {t: _complex_matrix(mat, f"{path}.blocks[{t}]") for t, mat in blocks_raw.items()}
        return _at(f"{path}.blocks", UnitarySpec.explicit, blocks)
    if kind == "identity":
        return UnitarySpec.identity()
    raise _fail(f"{path}.kind", f"unknown unitary kind {kind!r}")


def parse_model(document: Mapping) -> ModelConfig:
    """Validate a model document and build the configuration."""
    if not isinstance(document, Mapping):
        raise _fail("model document", "expected a JSON object")
    if "system" not in document or not isinstance(document["system"], Mapping):
        raise _fail("system", "missing or not an object")
    system = document["system"]
    spectrum = _spectrum(system.get("energies"), "system.energies")
    beta_s = _number(system.get("beta", 0.0), "system.beta")
    # Each distinct energies list is parsed once, at its first use, which is
    # where a bad list is reported.  Lists are keyed on their repr, which
    # tells "1", 1, 1.0 and true apart.
    spectra = {repr(system.get("energies")): spectrum}

    raw_ancillas = document.get("ancillas")
    if not isinstance(raw_ancillas, list) or not raw_ancillas:
        raise _fail("ancillas", "expected a non-empty list")
    ancillas = []
    for idx, raw in enumerate(raw_ancillas):
        path = f"ancillas[{idx}]"
        if not isinstance(raw, Mapping):
            raise _fail(path, "expected an object")
        energies = raw.get("energies")
        key = repr(energies)
        if key not in spectra:
            spectra[key] = _spectrum(energies, f"{path}.energies")
        ancillas.append(
            AncillaSpec(
                spectrum=spectra[key],
                beta=_number(raw.get("beta", 0.0), f"{path}.beta"),
                unitary=_unitary(raw.get("unitary", {"kind": "identity"}), f"{path}.unitary"),
            )
        )

    seed = document.get("master_seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise _fail("master_seed", "expected an unsigned 64-bit integer")
    config = ModelConfig(
        system=spectrum,
        system_beta=beta_s,
        ancillas=tuple(ancillas),
        master_seed=seed,
    )
    # Surface structural problems (non-resonant partial swap, bad explicit
    # blocks) at load time, naming the first faulty ancilla.
    try:
        realize_model(config)
    except ModelError as exc:
        if not hasattr(exc, "collision"):
            raise
        raise _fail(f"ancillas[{exc.collision - 1}].unitary", str(exc)) from None
    return config


def _settings(document: Mapping) -> RunSettings:
    tolerance = _number(document.get("tolerance", 1e-9), "tolerance")
    if tolerance < 0:
        raise _fail("tolerance", "must be at least 0")
    cap = document.get("enumeration_cap", DEFAULT_ENUMERATION_CAP)
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise _fail("enumeration_cap", "expected a positive integer")
    return RunSettings(tolerance=tolerance, enumeration_cap=cap)


def load_model_file(path: str | Path) -> tuple[ModelConfig, RunSettings]:
    """Read a JSON model document from disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: not valid JSON ({exc})") from None
    return parse_model(document), _settings(document)


# ---------------------------------------------------------------------------
# Output helpers


def _open_output(path: Path) -> TextIO:
    """Open ``path`` for writing as UTF-8 text with ``\\n`` line ends, making its directories."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", encoding="utf-8", newline="\n")


def _write_text(path: Path, texts: Iterable[str]) -> None:
    """Write ``texts`` to ``path`` one after another, each as soon as it comes."""
    with _open_output(path) as sink:
        sink.writelines(texts)


def _check(name: str, passed: bool, max_residual: float, tolerance: float, **details) -> dict:
    """One check's report record: its details sit between ``max_residual`` and ``tolerance``."""
    return dict(name=name, passed=passed, max_residual=max_residual, **details, tolerance=tolerance)


def _print_check(name: str, passed: bool, detail: str) -> None:
    print(f"{name}: {'pass' if passed else 'FAIL'} ({detail})")


def _report(command: str, args: argparse.Namespace, config: ModelConfig, fields: dict) -> int:
    """Write the header and then ``fields`` to ``--out``; exit 0 if ``fields["passed"]``, else 1."""
    if args.out:
        header = {"command": command, "model": str(args.model), "master_seed": config.master_seed}
        _write_text(Path(args.out), [json.dumps({**header, **fields}, indent=2) + "\n"])
    return 0 if fields["passed"] else 1


def _finish_checks(
    command: str, args: argparse.Namespace, config: ModelConfig, checks: list[dict]
) -> int:
    """Print one line per check, write the report to ``--out``, return the exit code."""
    for check in checks:
        detail = f"max residual {check['max_residual']:.3e}"
        if check.get("support_mismatches"):  # a failure about support, not about a residual
            detail += f"; {check['support_mismatches']} support mismatches"
        _print_check(check["name"], check["passed"], detail)
    passed = all(check["passed"] for check in checks)
    return _report(command, args, config, {"checks": checks, "passed": passed})


def _backward_path(out: Path) -> Path:
    return out.with_name(out.stem + ".backward" + out.suffix)


def _output_clash(args: argparse.Namespace) -> str | None:
    """Why a file the command would write is the model or another output, if one is.

    Such a write would destroy the file, so the command must touch no file.
    A file that exists is known by its device and inode, whatever links
    lead to it; one still to be written by its path with links and ``..``
    resolved.
    """
    paths = {"the model": args.model, "--out": args.out, "--dump": getattr(args, "dump", None)}
    if args.command == "exact" and args.out:
        paths["--out's backward export"] = _backward_path(Path(args.out))
    files: dict[object, str] = {}
    for name, path in paths.items():
        if path:
            try:
                status = os.stat(path)
                key: object = (status.st_dev, status.st_ino)
            except OSError:
                key = os.path.realpath(path)
            other = files.setdefault(key, name)
            if other != name:
                return f"{name} {path} is the same file as {other}"
    return None


def _distribution_texts(dist, fmt: str) -> Iterator[str]:
    """The export of ``dist`` a block of keys at a time: its texts in order."""
    return _json_texts(dist) if fmt == "json" else _csv_texts(dist, include_exact=True)


def _distribution_text(dist, fmt: str) -> str:
    return "".join(_distribution_texts(dist, fmt))


# ---------------------------------------------------------------------------
# Commands


def _cmd_validate(args: argparse.Namespace) -> int:
    config, _ = load_model_file(args.model)
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_DETAILED_BALANCE_TOL
    realized = realize_model(config)
    checks = []
    for stage in realized.stages:
        unit = validate_energy_preservation(stage.unitary)
        balance = assert_detailed_balance(stage.propagator, stage.beta, config.system, tolerance)
        checks += [
            _check(f"unitarity[collision {stage.index}]", unit.passed, unit.max_residual, unit.tolerance),
            _check(
                f"detailed_balance[collision {stage.index}]", balance.passed,
                balance.max_residual, balance.tolerance, worst_pair=list(balance.worst_pair),
            ),
        ]
    return _finish_checks("validate", args, config, checks)


def _cmd_exact(args: argparse.Namespace) -> int:
    config, settings = load_model_file(args.model)
    cap = args.cap if args.cap is not None else settings.enumeration_cap
    realized = realize_model(config)
    layers = _system_layers(realized, realized.stages)
    forward = _system_law(realized, layers, cap, "forward")
    backward = _system_law(realized, layers, cap, "backward")
    for dist in (forward, backward):
        print(
            f"{dist.direction}: {len(dist)} heat tuples, mass {dist.total_mass():.12f}, "
            f"pruned {dist.pruned_mass:.3e}"
        )
    if args.out:
        out = Path(args.out)
        _write_text(out, _distribution_texts(forward, args.format))
        _write_text(_backward_path(out), _distribution_texts(backward, args.format))
        print(f"wrote {out} and {_backward_path(out)}")
    else:
        for dist in (forward, backward):
            sys.stdout.write(f"# {dist.direction}\n")
            sys.stdout.writelines(_distribution_texts(dist, args.format))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config, settings = load_model_file(args.model)
    tolerance = args.tolerance if args.tolerance is not None else settings.tolerance
    cap = args.cap if args.cap is not None else settings.enumeration_cap
    realized = realize_model(config)
    # A reached level of zero initial population has no reversed partner path.
    _post_states(realized, "the fluctuation identities are undefined because")

    # Every system-path law is swept off the chain's one realization: a
    # stage's layer serves both directions and its single collision.
    layers = _system_layers(realized, realized.stages)
    forward = _system_law(realized, layers, cap, "forward")
    backward = _system_law(realized, layers, cap, "backward")
    via_ancillas = exact_forward_joint_via_ancilla_paths(config, cap)
    singles = [_system_law(realized, [layer], cap, "forward") for layer in layers]

    route_gap = compare_distributions(forward, via_ancillas)
    checks = [
        _check("route_equivalence", route_gap <= ROUTE_EQUIVALENCE_TOL, route_gap, ROUTE_EQUIVALENCE_TOL)
    ]
    reports = [
        ("joint_ft", verify_joint_ft(forward, backward, config, tolerance)),
        ("product_relation", verify_product_relation(forward, backward, singles, tolerance)),
    ]
    if config.n_collisions >= 2:
        # The backward law of the chain without its last collision: stages N-1 .. 1.
        shorter_backward = _system_law(realized, layers[:-1], cap, "backward")
        reports.append(
            (
                "partial_decomposition",
                _partial_decomposition(forward, backward, singles[-1], shorter_backward, tolerance),
            )
        )
    checks += [
        _check(
            name, result.passed, result.max_log_residual, tolerance,
            checked_pairs=result.checked_pairs, support_mismatches=len(result.support_mismatches),
        )
        for name, result in reports
    ]
    return _finish_checks("verify", args, config, checks)


def _dump_line(record) -> str:
    """The ``--dump`` line of a sampled record: the reference for the lines the command writes."""
    return json.dumps({
        "alphas": list(record.trajectory.alphas),
        "ancilla_pairs": [list(pair) for pair in record.trajectory.ancilla_pairs],
        "heats": [format_rational(q) for q in record.heats],
        "sigma": record.sigma,
    })


def _cmd_sample(args: argparse.Namespace) -> int:
    config, _ = load_model_file(args.model)
    seed = args.seed if args.seed is not None else config.master_seed
    sampler_config = SamplerConfig(
        shots=args.shots, master_seed=seed, worker_count=args.workers
    )
    if args.dump:
        with _open_output(Path(args.dump)) as sink:
            summary = _sample(config, sampler_config, sink.write)
    else:
        summary = _sample(config, sampler_config)

    print(
        f"sampled {summary.shots} trajectories with seed {seed} "
        f"across {args.workers} worker streams"
    )
    print(
        f"mean exp(-entropy production) = {summary.integral_ft_mean:.6f} "
        f"+- {summary.integral_ft_stderr:.6f} (expected 1)"
    )
    print(f"distinct heat tuples: {len(summary.empirical.distribution)}")
    if args.out:
        # Joined whole: written a block at a time, it raised the sample benchmark's max RSS.
        _write_text(Path(args.out), [_distribution_text(summary.empirical.distribution, args.format)])
        print(f"wrote {args.out}")
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    config, settings = load_model_file(args.model)
    tolerance = args.tolerance if args.tolerance is not None else settings.tolerance
    cap = args.cap if args.cap is not None else settings.enumeration_cap
    report = average_entropy_production(config, tolerance, cap)
    print(f"heat-average form:      {report.heat_average:.12f}")
    print(f"trajectory-average form: {report.trajectory_average:.12f}")
    print(f"information form:        {report.information_form:.12f}")
    _print_check(
        "entropy_consistency", report.passed, f"max pairwise gap {report.max_pairwise_gap:.3e}"
    )
    return _report("entropy", args, config, asdict(report))


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _tolerance(text: str) -> float:
    """argparse type: a finite float no smaller than 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatchain",
        description="Exact and Monte Carlo heat statistics for collision chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, cap: bool = True, tol: bool = False) -> None:
        p.add_argument("model", help="path to a JSON model document")
        p.add_argument("--out", help="write the report or export here")
        if cap:
            p.add_argument("--cap", type=_int_at_least(1), default=None, help="enumeration path cap")
        if tol:
            p.add_argument("--tolerance", type=_tolerance, default=None)

    p = sub.add_parser("validate", help="unitarity and detailed-balance checks")
    common(p, cap=False, tol=True)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("exact", help="write forward and backward joint heat laws")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("verify", help="fluctuation-theorem and route checks")
    common(p, tol=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sample", help="Monte Carlo trajectory sampling")
    common(p, cap=False)
    p.add_argument("--shots", type=_int_at_least(1), default=10000)
    p.add_argument(
        "--seed", type=_int_at_least(0), default=None,
        help="sampler seed (defaults to master_seed)",
    )
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.add_argument("--dump", help="write one JSON record per trajectory here")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("entropy", help="three-way average entropy production check")
    common(p, tol=True)
    p.set_defaults(handler=_cmd_entropy)

    return parser


_PARSER = _build_parser()


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Run one command line; returns the exit code instead of exiting."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    clash = _output_clash(args)
    if clash:
        print(f"error: {clash}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        code = args.handler(args)
        print(f"elapsed: {time.perf_counter() - started:.3f}s")
    except BrokenPipeError:  # the reader of stdout is gone: not an input error
        return 141
    except (ModelError, EnumerationCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    code = dispatch()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at exit has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
