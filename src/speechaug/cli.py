"""Command-line front end.

Subcommands: augment (perturb a directory of WAVs), textaug (clean,
translate and filter a text corpus), build (synthesize a manifest from
pairs), sample (stream record ids by origin weights) and stats (summarize
a manifest). Machine-readable output goes to stdout, diagnostics to
stderr. Exit codes: 0 success, 1 bad configuration or input, 2 finished
with per-item failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import shlex
import sys
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator

from ._numpy import np
from .audio import _write_file, load_wav, save_wav
from .chain import ChainConfig, apply_chain, default_chain, load_chain, needs_bank
from .effects import NoiseBank
from .errors import SpeechAugError
from .manifest import (
    SamplerConfig,
    build_manifest,
    corpus_stats,
    iter_manifest,
    sample_stream,
)
from .ports import (
    MockSynthesizer,
    MockTranslator,
    MockUnitizer,
    SubprocessSynthesizer,
    SubprocessTranslator,
    ordered_map,
)
from .textpipe import (
    FilterPolicy,
    RejectionStats,
    TextPair,
    iter_lines,
    iter_text_stage,
    read_pairs_tsv,
    reservoir_take,
    write_pairs_tsv,
)

log = logging.getLogger("speechaug")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2


class CliError(Exception):
    """A configuration or input problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which collides with our
    # partial-failure code; route them through CliError instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _load_chain_config(args: argparse.Namespace) -> ChainConfig:
    if args.config:
        try:
            config = load_chain(args.config)
        except (OSError, ValueError) as err:
            raise CliError(f"cannot load chain config: {err}") from err
    else:
        config = default_chain()
    return config.with_seed(args.seed)


def _load_bank(args: argparse.Namespace, chain: ChainConfig | None) -> NoiseBank | None:
    """The bank named by --noise-dir or --noise-manifest when the chain mixes
    noise, which it must then get; None when no chain runs or it mixes none."""
    if chain is None or not needs_bank(chain):
        return None
    bank = None
    try:
        if args.noise_dir is not None:
            bank = NoiseBank.from_dir(args.noise_dir)
        elif args.noise_manifest is not None:
            bank = NoiseBank.from_manifest(args.noise_manifest)
    except (SpeechAugError, OSError, ValueError) as err:
        raise CliError(f"cannot load noise bank: {err}") from err
    if bank is not None and len(bank) == 0:
        source = args.noise_manifest if args.noise_dir is None else args.noise_dir
        raise CliError(f"no noise entries in {source}")
    if bank is None:
        raise CliError("this chain mixes noise; pass --noise-dir or --noise-manifest")
    return bank


def cmd_augment(args: argparse.Namespace) -> int:
    in_dir = Path(args.in_path)
    out_dir = Path(args.out_path)
    if not in_dir.is_dir():
        raise CliError(f"--in {in_dir} is not a directory")
    files = sorted(in_dir.glob("*.wav"))
    if not files:
        raise CliError(f"no WAV files under {in_dir}")
    config = _load_chain_config(args)
    bank = _load_bank(args, config)
    out_dir.mkdir(parents=True, exist_ok=True)

    def process(path: Path) -> str:
        out, trace = apply_chain(config, load_wav(path), path.stem, bank)
        save_wav(out, out_dir / path.name, encoding="float32")
        return trace.to_json()

    # each item is a pure function of its path, the chain and the bank
    outcomes = list(ordered_map(process, files, args.workers, processes=True))
    failures = [(p.name, o) for p, o in zip(files, outcomes) if isinstance(o, SpeechAugError)]
    _write_file(out_dir / "traces.jsonl", (t + "\n" for t in outcomes if isinstance(t, str)))

    print(json.dumps({"processed": len(files) - len(failures), "failed": len(failures)}))
    if failures:
        for name, err in failures:
            log.error("failed: %s: %s", name, err)
        log.error("%d of %d files failed", len(failures), len(files))
        return EXIT_PARTIAL
    return EXIT_OK


def _make_translator(spec: str):
    if spec == "mock":
        return MockTranslator(tag_output=True)
    if spec == "mock-notag":
        return MockTranslator(tag_output=False)
    if spec.startswith("subprocess:"):
        command = shlex.split(spec[len("subprocess:") :])
        if not command:
            raise CliError("subprocess translator needs a command")
        return SubprocessTranslator(command)
    raise CliError(f"unknown translator {spec!r} (mock, mock-notag or subprocess:CMD)")


def _make_synthesizer(spec: str, sample_rate: int):
    if spec == "mock":
        return MockSynthesizer(sample_rate=sample_rate)
    if spec.startswith("subprocess:"):
        command = shlex.split(spec[len("subprocess:") :])
        if not command:
            raise CliError("subprocess synthesizer needs a command")
        return SubprocessSynthesizer(command, sample_rate=sample_rate)
    raise CliError(f"unknown synthesizer {spec!r} (mock or subprocess:CMD)")


def _policy_from_args(args: argparse.Namespace) -> FilterPolicy:
    try:
        return FilterPolicy(
            max_length_ratio=args.max_length_ratio,
            max_repetition_run=args.max_repetition_run,
            min_tokens=args.min_tokens,
            max_tokens=args.max_tokens,
            max_special_char_ratio=args.max_special_char_ratio,
        )
    except ValueError as err:
        raise CliError(str(err)) from err


def cmd_textaug(args: argparse.Namespace) -> int:
    in_path = Path(args.in_path)
    if not in_path.is_file():
        raise CliError(f"--in {in_path} is not a file")
    out_dir = Path(args.out_path)
    sentences = iter_lines(in_path)
    if args.take_n is not None:
        if args.seed is None:
            raise CliError("--take-n needs --seed")
        rng = np.random.Generator(np.random.PCG64(args.seed))
        sentences = reservoir_take(sentences, args.take_n, rng)
    policy = _policy_from_args(args)
    translator = _make_translator(args.translator)
    close = getattr(translator, "close", lambda: None)
    stats = RejectionStats()

    def pairs() -> Iterator[TextPair]:
        yield from iter_text_stage(sentences, args.language, translator, args.to, stats, policy)
        # before pairs.tsv is renamed into place: an engine that fails to
        # exit leaves neither pairs.tsv nor stats.json
        close()

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_pairs_tsv(pairs(), out_dir / "pairs.tsv")
    finally:
        close()  # also after a failure; a second close does nothing
    _write_file(out_dir / "stats.json", [json.dumps(stats.to_dict(), indent=2) + "\n"])
    print(json.dumps(stats.to_dict()))
    if stats.translator_failures:
        log.error("%d sentences failed translation", stats.translator_failures)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    pairs_path = Path(args.pairs)
    if not pairs_path.is_file():
        raise CliError(f"--pairs {pairs_path} is not a file")
    try:
        pairs = read_pairs_tsv(pairs_path)
    except ValueError as err:
        raise CliError(str(err)) from err
    # a chain that perturbs neither side is not loaded, and needs no bank
    unused = args.no_effects or (args.no_augment_source and not args.augment_target)
    chain = None if unused else _load_chain_config(args)
    bank = _load_bank(args, chain)
    synthesizer = _make_synthesizer(args.synthesizer, args.sample_rate)
    unitizer = MockUnitizer(vocabulary_size=args.units_k)
    try:
        outcome = build_manifest(
            pairs,
            synthesizer,
            unitizer,
            Path(args.out_path),
            chain=chain,
            bank=bank,
            src_lang=args.src_lang,
            tgt_lang=args.tgt_lang,
            origin=args.origin,
            augment_source=not args.no_augment_source,
            augment_target=args.augment_target,
            workers=args.workers,
        )
    finally:
        if hasattr(synthesizer, "close"):
            synthesizer.close()
    print(str(outcome.manifest_path))
    if outcome.failures:
        for pair_id, err in outcome.failures:
            log.error("failed: %s: %s", pair_id, err)
        return EXIT_PARTIAL
    return EXIT_OK


def _parse_weights(text: str) -> dict[str, float]:
    weights: dict[str, float] = {}
    for part in text.split(","):
        if not part.strip():
            continue
        name, _, value = part.partition("=")
        if not _ or not name.strip():
            raise CliError(f"bad --weights entry {part!r}, expected origin=value")
        try:
            weights[name.strip()] = float(value)
        except ValueError as err:
            raise CliError(f"bad weight in {part!r}: {err}") from err
    if not weights:
        raise CliError("--weights is empty")
    return weights


def cmd_sample(args: argparse.Namespace) -> int:
    # every record is validated, but a pool keeps only the ids it prints
    pools = []
    for item in args.manifest:
        origin, _, path = item.partition("=")
        if not _ or not origin.strip():
            raise CliError(f"bad --manifest entry {item!r}, expected origin=path")
        try:
            ids = [record.id for record in iter_manifest(path)]
        except (OSError, SpeechAugError) as err:
            raise CliError(f"cannot read manifest {path}: {err}") from err
        pools.append((ids, origin.strip()))
    try:
        config = SamplerConfig(weights=_parse_weights(args.weights), seed=args.seed)
        stream = sample_stream(pools, config)
        sys.stdout.writelines(f"{record_id}\n" for record_id in islice(stream, args.count))
    except ValueError as err:
        raise CliError(str(err)) from err
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    try:
        summary = corpus_stats(args.manifest)
    except OSError as err:
        raise CliError(f"cannot read manifest: {err}") from err
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _int_type(low: int, what: str) -> Callable[[str], int]:
    """An argparse type for an integer of at least ``low``, called ``what``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive_int = _int_type(1, "a positive integer")
_count = _int_type(0, "a non-negative integer")
_vocabulary_size = _int_type(2, "an integer of at least 2")


def _add_noise_options(p: argparse.ArgumentParser) -> None:
    noise = p.add_mutually_exclusive_group()
    noise.add_argument("--noise-dir", help="directory of noise WAVs")
    noise.add_argument("--noise-manifest", help="noise listing of path<TAB>category lines")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="speechaug", description=__doc__)
    parser.add_argument("--log-level", default="INFO", help="logging level for stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="perturb every WAV in a directory")
    p.add_argument("--in", dest="in_path", required=True, help="directory of input WAVs")
    p.add_argument("--out", dest="out_path", required=True, help="output directory")
    p.add_argument("--seed", type=int, required=True, help="global seed")
    p.add_argument("--config", help="chain config JSON (default: the standard chain)")
    _add_noise_options(p)
    p.add_argument("--workers", type=_positive_int, default=1, help="worker processes")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("textaug", help="clean, translate and filter a text corpus")
    p.add_argument("--in", dest="in_path", required=True, help="corpus file, one sentence per line")
    p.add_argument("--out", dest="out_path", required=True, help="output directory")
    p.add_argument("--language", required=True, help="language of the input corpus")
    p.add_argument("--to", required=True, help="language to translate into")
    p.add_argument("--translator", default="mock", help="mock, mock-notag or subprocess:CMD")
    p.add_argument("--take-n", type=_positive_int, default=None, help="reservoir-sample N input lines")
    p.add_argument("--seed", type=int, default=None, help="seed (required with --take-n)")
    p.add_argument("--max-length-ratio", type=float, default=3.0)
    p.add_argument("--max-repetition-run", type=int, default=3)
    p.add_argument("--min-tokens", type=int, default=1)
    p.add_argument("--max-tokens", type=int, default=200)
    p.add_argument("--max-special-char-ratio", type=float, default=0.2)
    p.set_defaults(func=cmd_textaug)

    p = sub.add_parser("build", help="synthesize audio and a manifest from sentence pairs")
    p.add_argument("--pairs", required=True, help="pairs TSV from textaug")
    p.add_argument("--out", dest="out_path", required=True, help="output directory")
    p.add_argument("--seed", type=int, required=True, help="global seed")
    p.add_argument("--units-k", type=_vocabulary_size, required=True, help="unit vocabulary size")
    p.add_argument("--sample-rate", type=_positive_int, default=16000)
    p.add_argument("--config", help="chain config JSON (default: the standard chain)")
    p.add_argument("--no-effects", action="store_true", help="skip acoustic perturbation")
    _add_noise_options(p)
    p.add_argument("--synthesizer", default="mock", help="mock or subprocess:CMD")
    p.add_argument("--src-lang", default="src")
    p.add_argument("--tgt-lang", default="tgt")
    p.add_argument("--origin", default="text_aug", choices=["real", "text_aug"])
    p.add_argument("--no-augment-source", action="store_true")
    p.add_argument("--augment-target", action="store_true")
    p.add_argument("--workers", type=_positive_int, default=1, help="worker threads")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("sample", help="stream record ids drawn by origin weights")
    p.add_argument(
        "--manifest",
        action="append",
        required=True,
        metavar="ORIGIN=PATH",
        help="manifest for one origin; repeatable",
    )
    p.add_argument("--weights", required=True, help="e.g. real=0.5,text_aug=0.5")
    p.add_argument("-n", "--count", type=_count, required=True, help="how many ids to emit")
    p.add_argument("--seed", type=int, required=True, help="sampling seed")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stats", help="summarize a manifest")
    p.add_argument("--manifest", required=True, help="manifest file")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, str(args.log_level).upper(), logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    # an OSError here is a run-level output (traces.jsonl, stats.json,
    # pairs.tsv, the manifest) that cannot be written; WAV writes fail alone
    except (CliError, SpeechAugError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
