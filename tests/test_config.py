"""``nepoll generate`` flags and config files read through one key table:
the same keys give the same config, or the same error."""

import math

import hypothesis.strategies as st
from hypothesis import given, settings

from nepoll import DataError
from nepoll.cli import _build_parser
from nepoll.config import (FLAGS, experiment_config, generate_keys,
                           parse_config_text)

# The key each flag sets, written out here to referee the flags that the
# key table derives.  ``--max-iter`` is read apart: it sets the budget of
# each target given, or graph.rkk_max_iter when neither is.
FLAG_KEYS = {
    "--model": "graph.model", "--n": "graph.n", "--alpha": "graph.alpha",
    "--kmin": "graph.kmin", "--kmax": "graph.kmax", "--p": "graph.p",
    "--rkk": "graph.rkk", "--rkk-tol": "graph.rkk_tol",
    "--label-p": "labels.p", "--rho": "labels.rho", "--rho-tol": "labels.tol",
    "--seed": "seed"}


def _values(valid, invalid):
    """Values of a flag, one in five out of range; every one parses as
    the flag's type."""
    return st.sampled_from([False] * 4 + [True]).flatmap(
        lambda bad: st.sampled_from(invalid) if bad else valid)


_GOALS = _values(st.sampled_from([-1.0, -0.2, 0.0, 0.1, 1.0]), [1.5, math.nan])
_TOLERANCES = _values(st.sampled_from([1e-05, 0.01]), [0.0, -1.0, math.nan])
_COUNTS = _values(st.integers(0, 10**6), [-1])
VALUES = {
    "--n": _values(st.integers(40, 400), [1, 0, -2]),
    "--alpha": _values(st.sampled_from([1.5, 2.4, 3.0, math.inf]),
                       [1.0, 0.5, -1.5, math.nan]),
    "--kmin": _values(st.integers(1, 3), [0, -1]),
    "--kmax": _values(st.integers(3, 40), [-1, 400]),
    "--p": _values(st.sampled_from([0.05, 0.3, 1.0]), [0.0, 1.5, math.nan]),
    "--rkk": _GOALS, "--rkk-tol": _TOLERANCES,
    "--label-p": _values(st.sampled_from([0.3, 0.5]), [0.0, 1.0, math.nan]),
    "--rho": _GOALS, "--rho-tol": _TOLERANCES,
    "--max-iter": _COUNTS, "--seed": _COUNTS}
MODEL_FLAGS = {"config": ("--alpha", "--kmin", "--kmax"), "er": ("--p",)}


@st.composite
def generate_flags(draw):
    """``generate`` flags and their values: the flags of the model drawn
    most of the time, each flag of the other model now and then, and any
    subset of the rest."""
    model = draw(st.sampled_from(sorted(MODEL_FLAGS)))
    flags = {"--model": model, "--n": draw(VALUES["--n"])}
    for flag in VALUES:
        if flag in flags:
            continue
        own = flag in MODEL_FLAGS[model]
        stray = not own and any(flag in f for f in MODEL_FLAGS.values())
        # in tenths: the odds that the flag is given
        odds = 9 if own else 1 if stray else 3 if "tol" in flag else 5
        if draw(st.sampled_from([True] * odds + [False] * (10 - odds))):
            flags[flag] = draw(VALUES[flag])
    return flags


def _outcome(build):
    """The config that ``build`` returns, or the text of its DataError."""
    try:
        return build()
    except DataError as exc:
        return f"DataError: {exc}"


def _config_text(flags: dict[str, object]) -> str:
    keys = {FLAG_KEYS[flag]: value for flag, value in flags.items()
            if flag != "--max-iter"}
    keys.setdefault("labels.p", 0.5)  # the default of --label-p
    if "--max-iter" in flags:
        budgets = [budget for target, budget in (
            ("graph.rkk", "graph.rkk_max_iter"),
            ("labels.rho", "labels.max_iter")) if target in keys]
        keys.update(dict.fromkeys(budgets or ["graph.rkk_max_iter"],
                                  flags["--max-iter"]))
    return "".join(f"{key} = {value!r}\n" if isinstance(value, str)
                   else f"{key} = {value}\n" for key, value in keys.items())


@settings(max_examples=400, deadline=None)
@given(generate_flags())
def test_generate_flags_and_config_keys_agree(flags):
    argv = ["generate"] + [arg for flag, value in flags.items()
                           for arg in (flag, str(value))]
    args = _build_parser().parse_args(argv)
    from_flags = _outcome(lambda: experiment_config(generate_keys(args)))
    from_file = _outcome(
        lambda: experiment_config(parse_config_text(_config_text(flags))))
    assert from_flags == from_file


def test_every_generate_flag_is_refereed():
    assert set(FLAGS) == set(FLAG_KEYS) | {"--max-iter"} \
        == {"--model", *VALUES}
