"""Batch command-line surface: region computation, membership checks,
codebook inspection, and simulation.

Every command takes --seed (default 0; wall-clock entropy is never used),
so outputs are reproducible byte-for-byte. Commands that write files also
write a run-manifest sidecar (<out>.manifest.json) recording the command,
parameters, seed, tool version, and input digests.

Exit codes: 0 success, 1 usage, 2 validation, 3 resource guard.
"""

import datetime
import sys
from dataclasses import asdict

import click
import numpy as np

from . import __version__, jsonio
from .channel import load_channel, load_chain_file
from .codebook import CodebookParams, generate, rate_check
from .exceptions import GuardError, ValidationError
from .region import (
    RateTuple,
    SearchParams,
    AuxChain,
    bbc_frontier,
    evaluate_chain,
    frontier_csv,
    input_chain,
    membership,
    octant_directions,
    rc_re_star,
    secrecy_frontier,
    full_frontier,
)
from .simulate import SimConfig, run as run_simulation

_search_options = [
    click.option("--restarts", default=SearchParams.restarts, show_default=True,
                 help="Random restarts per search."),
    click.option("--iterations", default=SearchParams.iterations, show_default=True,
                 help="Ascent sweeps per restart."),
    click.option("--u-size", default=None, type=int, help="First-layer alphabet size."),
    click.option("--v-size", default=None, type=int, help="Second-layer alphabet size."),
]


def search_flags(fn):
    for opt in reversed(_search_options):
        fn = opt(fn)
    return fn


def _manifest(command: str, params: dict, seed: int, inputs: list) -> dict:
    return {
        "command": command,
        "parameters": params,
        "seed": seed,
        "version": __version__,
        "inputs": {str(p): jsonio.sha256_file(p) for p in inputs},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit(text: str, out, command: str, params: dict, seed: int, inputs: list) -> None:
    """Print a command's output, or write it to `out` with its manifest."""
    if out is None:
        click.echo(text, nl=False)
        return
    manifest = _manifest(command, params, seed, inputs)
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        jsonio.dump(manifest, str(out) + ".manifest.json")
    except OSError as exc:
        raise ValidationError(f"cannot write output file {out}: {exc}") from exc


def _load_code(channel_file, chain_file, blocklength: int, sizes: str, seed: int) -> tuple:
    """The channel, auxiliary chain and codebook parameters of a code run."""
    ch = load_channel(channel_file)
    chain = AuxChain(*load_chain_file(chain_file))
    parts = sizes.split(",")
    if len(parts) != 5:
        raise click.BadParameter("expected m0,m1,m2,j,l", param_hint="--sizes")
    try:
        m0, m1, m2, j, l = (int(s) for s in parts)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--sizes")
    params = CodebookParams(n=blocklength, m0_size=m0, m1_size=m1, m2_size=m2,
                            j_size=j, l_size=l, seed=seed)
    return ch, chain, params


@click.group()
@click.version_option(__version__, prog_name="bbcsec")
def cli():
    """Rate regions and random-coding simulation for the bidirectional
    broadcast channel with a confidential message."""


@cli.command("info")
@click.argument("channel_file", type=click.Path())
@click.option("--chain", "chain_file", type=click.Path(), help="Auxiliary-chain file.")
@click.option("--uniform-x", is_flag=True, help="Use the uniform-input chain instead of a file.")
def cmd_info(channel_file, chain_file, uniform_x):
    """Information quantities and peak confidential rates for one chain."""
    if (chain_file is None) == (not uniform_x):
        raise click.UsageError("provide exactly one of --chain or --uniform-x")
    ch = load_channel(channel_file)
    if uniform_x:
        chain = input_chain(np.full(ch.x_size, 1.0 / ch.x_size))
    else:
        chain = AuxChain(*load_chain_file(chain_file))
    iq = evaluate_chain(chain, ch)
    rc_star, re_star = rc_re_star(iq, 0.0, 0.0)
    doc = {
        "info_quantities": asdict(iq),
        "rc_star_at_zero_individual_rates": rc_star,
        "re_star": re_star,
        "chain": chain.to_dict(),
    }
    click.echo(jsonio.dumps(doc), nl=False)


@cli.command("region")
@click.argument("channel_file", type=click.Path())
@click.option("--mode", type=click.Choice(["bbc", "secrecy", "full"]), default="full", show_default=True)
@click.option("--weights", "n_weights", default=33, show_default=True, help="Weight directions to sample.")
@click.option("--out", type=click.Path(), default=None, help="CSV output path (stdout if omitted).")
@click.option("--seed", default=0, show_default=True)
@search_flags
def cmd_region(channel_file, mode, n_weights, out, seed, **flags):
    """Frontier of the selected region as a support-point CSV.

    The bbc frontier is solved exactly, so it takes no search settings; the
    search flags are still validated in every mode.
    """
    ch = load_channel(channel_file)
    p = SearchParams(seed=seed, **flags)
    params = {"mode": mode, "weights": n_weights}
    if mode == "bbc":
        entries = bbc_frontier(ch, n_weights)
    else:
        frontier, dims = (secrecy_frontier, 3) if mode == "secrecy" else (full_frontier, 4)
        entries = frontier(ch, octant_directions(n_weights, dims), p)
        params.update(asdict(p))
    _emit(frontier_csv(entries), out, "region", params, seed, [channel_file])


@cli.command("member")
@click.argument("channel_file", type=click.Path())
@click.option("--tuple", "tuple_str", required=True, help="rc,re,r1,r2 in bits per channel use.")
@click.option("--out", type=click.Path(), default=None, help="Report path (stdout if omitted).")
@click.option("--seed", default=0, show_default=True)
@search_flags
def cmd_member(channel_file, tuple_str, out, seed, **flags):
    """Membership verdict for one rate-equivocation tuple."""
    parts = tuple_str.split(",")
    if len(parts) != 4:
        raise click.BadParameter("expected four comma-separated rates", param_hint="--tuple")
    try:
        rates = [float(s) for s in parts]
        t = RateTuple(*rates)
    except (ValueError, ValidationError) as exc:
        raise click.BadParameter(str(exc), param_hint="--tuple")
    ch = load_channel(channel_file)
    p = SearchParams(seed=seed, **flags)
    result = membership(t, ch, p)
    _emit(jsonio.dumps(result.to_dict()), out, "member", {"tuple": tuple_str, **asdict(p)},
          seed, [channel_file])


@cli.command("simulate")
@click.argument("channel_file", type=click.Path())
@click.argument("chain_file", type=click.Path())
@click.option("--n", "blocklength", default=8, show_default=True, help="Blocklength.")
@click.option("--sizes", default="1,1,1,2,2", show_default=True,
              help="m0,m1,m2,j,l index-set sizes (powers of two keep rates in bits exact).")
@click.option("--trials", default=200, show_default=True)
@click.option("--equiv", type=click.Choice(["exact", "mc", "none"]), default="exact", show_default=True)
@click.option("--mc-samples", default=2000, show_default=True)
@click.option("--epsilon", default=0.15, show_default=True, help="Typicality slack.")
@click.option("--k-size", default=None, type=int,
              help="Partition-class count; selects the stochastic construction.")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Report path (stdout if omitted).")
def cmd_simulate(channel_file, chain_file, blocklength, sizes, trials, equiv, mc_samples,
                 epsilon, k_size, seed, out):
    """Monte Carlo run of the full code: errors, equivocation, leakage.

    Infeasible rates are not an error; the report shows them.
    """
    ch, chain, params = _load_code(channel_file, chain_file, blocklength, sizes, seed)
    cfg = SimConfig(trials=trials, params=params, chain=chain, channel=ch,
                    equiv_mode=equiv, mc_samples=mc_samples, epsilon=epsilon, seed=seed,
                    k_size=k_size)
    report = run_simulation(cfg)
    _emit(jsonio.dumps(report.to_dict()), out, "simulate",
          {"n": blocklength, "sizes": sizes, "trials": trials, "equiv": equiv,
           "mc_samples": mc_samples, "epsilon": epsilon, "k_size": k_size},
          seed, [channel_file, chain_file])


@cli.command("codebook")
@click.argument("channel_file", type=click.Path())
@click.argument("chain_file", type=click.Path())
@click.option("--n", "blocklength", default=8, show_default=True)
@click.option("--sizes", default="1,1,1,2,2", show_default=True,
              help="m0,m1,m2,j,l index-set sizes (powers of two keep rates in bits exact).")
@click.option("--delta", default=0.05, show_default=True, help="Rate-condition slack.")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Codebook dump path.")
def cmd_codebook(channel_file, chain_file, blocklength, sizes, delta, seed, out):
    """Write a codebook dump (tiny instances) and print the rate-condition
    report."""
    ch, chain, params = _load_code(channel_file, chain_file, blocklength, sizes, seed)
    conditions = rate_check(params, evaluate_chain(chain, ch), delta)
    cb = generate(params, chain, ch)
    _emit(jsonio.dumps(cb.to_dict()), out, "codebook", {"n": blocklength, "sizes": sizes, "delta": delta},
          seed, [channel_file, chain_file])
    click.echo(jsonio.dumps({"rate_conditions": [c.to_dict() for c in conditions]}), nl=False)


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:  # --help / --version
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except ValidationError as exc:
        click.echo(f"validation error: {exc}", err=True)
        return 2
    except GuardError as exc:
        click.echo(f"resource guard: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
