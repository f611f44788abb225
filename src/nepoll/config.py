"""Experiment configs: flat ``key = value`` files and ``generate`` flags.

One table, ``KEYS``, states the config language.  Each row names a key,
the field it sets, its value check, when it is read and its ``generate``
flag.  The errors, the specs a config builds and the ``generate`` flags
all derive from it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DataError, require_count
from .estimators import ESTIMATOR_KINDS
from .netgen import (ConfigModelSpec, ErdosRenyiSpec, LabelTarget,
                     RewireTarget)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: where the graph and labels come from, and what to run."""

    graph_source: object            # path, ConfigModelSpec, or ErdosRenyiSpec
    label_source: object            # path or LabelTarget
    budgets: tuple[int, ...] | None = None
    replications: int = 600
    estimators: tuple[str, ...] = ESTIMATOR_KINDS
    walk_length: int | None = None
    master_seed: int = 0
    rewire: RewireTarget | None = None

    def __post_init__(self):
        require_count("replications", self.replications, 1)
        if self.budgets is not None:
            if not self.budgets:
                raise DataError("budgets must be nonempty")
            for b in self.budgets:
                require_count("budget", b, 1)
        unknown = set(self.estimators) - set(ESTIMATOR_KINDS)
        if unknown:
            raise DataError(f"unknown estimators: {sorted(unknown)}")
        # a repeated cell would replay its stream and write identical rows
        for key, values in (("estimators", self.estimators),
                            ("budgets", self.budgets or ())):
            twice = [v for k, v in enumerate(values) if v in values[:k]]
            if twice:
                raise DataError(f"{key} lists {twice[0]!r} twice")
        if self.walk_length is not None:
            require_count("walk_length", self.walk_length, 0)
        require_count("seed", self.master_seed, 0)


class Check(NamedTuple):
    """A value check: the words its error uses, what a value of each type
    it accepts becomes, and the type that parses its ``generate`` flag."""

    noun: str
    convert: dict
    flag_type: type | None = None

    def __call__(self, key: str, value):
        try:
            return self.convert[type(value)](value)
        except KeyError:
            raise DataError(f"{key} must be {self.noun}, got {value!r}") \
                from None


INTEGER = Check("an integer", {int: int}, int)  # a bool is no integer here
NUMBER = Check("a number", {int: float, float: float}, float)
# a file name of digits is quoted: unquoted, 0123 would open 123
PATH = Check("a path", {str: str})
BUDGETS = Check("a list or default",
                {list: tuple, str: {"default": None}.__getitem__})
ESTIMATORS = Check("a list", {
    list: lambda v: tuple(map(str, v)),
    str: lambda v: tuple(x.strip() for x in v.split(",") if x.strip())})


class Key(NamedTuple):
    """One row of the key table.  ``fields``: the :class:`ExperimentConfig`
    fields it sets, or ``part.field`` of the spec in field ``part``, one
    space apart.  ``check`` is None where the field's own check names
    the key.  ``when``: the sources that read it or the one key it
    needs; empty if every config reads it.  A ``required`` key must be
    given where it is read.  ``flag``: its ``generate`` flag, with
    argparse ``options`` beyond the check's ``flag_type``."""

    name: str
    fields: str
    check: Check | None
    when: tuple[str, ...] = ()
    required: bool = False
    flag: str | None = None
    options: dict | None = None


CONFIG, ER = "graph.model = config", "graph.model = er"
# Where the graph and the labels come from: a config gives one source of
# each, a key or a ``key = value``.  A source, or ``graph.rkk``, builds a
# spec of the keys it reads, for one field.
SOURCES = (("graph.path", CONFIG, ER), ("labels.path", "labels.p"))
_SPECS = (("graph_source", CONFIG, ConfigModelSpec),
          ("graph_source", ER, ErdosRenyiSpec),
          ("rewire", "graph.rkk", RewireTarget),
          ("label_source", "labels.p", LabelTarget))

KEYS = {key.name: key for key in (
    Key("graph.path", "graph_source", PATH),
    Key("graph.model", "", None, flag="--model", options={"required": True}),
    Key("graph.n", "graph_source.node_count", INTEGER, (CONFIG, ER), True,
        "--n", {"required": True}),
    Key("graph.alpha", "graph_source.power_law_exponent", NUMBER, (CONFIG,),
        True, "--alpha", {"help": "power-law exponent (config)"}),
    Key("graph.kmin", "graph_source.k_min", INTEGER, (CONFIG,), flag="--kmin"),
    Key("graph.kmax", "graph_source.k_max", INTEGER, (CONFIG,), flag="--kmax"),
    Key("graph.p", "graph_source.edge_probability", NUMBER, (ER,), True,
        "--p", {"help": "edge probability (er)"}),
    Key("graph.rkk", "rewire.target", NUMBER, flag="--rkk",
        options={"help": "assortativity target"}),
    Key("graph.rkk_tol", "rewire.tolerance", NUMBER, ("graph.rkk",),
        flag="--rkk-tol"),
    Key("graph.rkk_max_iter", "rewire.max_iterations", INTEGER,
        ("graph.rkk",), flag="--max-iter"),
    Key("labels.path", "label_source", PATH),
    Key("labels.p", "label_source.base_probability", NUMBER, flag="--label-p",
        options={"default": 0.5, "help": "Bernoulli label probability"}),
    Key("labels.rho", "label_source.target", NUMBER, ("labels.p",),
        flag="--rho", options={"help": "degree-label corr target"}),
    Key("labels.tol", "label_source.tolerance", NUMBER, ("labels.rho",),
        flag="--rho-tol"),
    Key("labels.max_iter", "label_source.max_iterations", INTEGER,
        ("labels.rho",), flag="--max-iter"),
    Key("budgets", "budgets", BUDGETS),
    Key("replications", "replications", None),
    Key("estimators", "estimators", ESTIMATORS),
    Key("walk_length", "walk_length", None),
    Key("seed", "master_seed graph_source.seed", None, flag="--seed",
        options={"type": int}),
)}

# each ``generate`` flag, and the keys it sets in table order
FLAGS = {key.flag: [k for k in KEYS.values() if k.flag == key.flag]
         for key in KEYS.values() if key.flag}


def experiment_config(kv: dict[str, object]) -> ExperimentConfig:
    """The sweep that flat config keys describe: one source of the graph
    and one of the labels, and the keys they read.  A key left out keeps
    the default of the field it sets.  An unknown key, two sources of a
    kind or none, or else the first key in table order that nothing
    reads, that is required and left out, or whose value fails its check
    raises ``DataError`` naming the key."""
    def unread(key: Key) -> str | None:
        """Why nothing reads ``key``: ``with`` the source given in place
        of its own, or ``without`` the key it needs; None if it is read."""
        if not key.when or given.intersection(key.when):
            return None
        need = key.when[0]
        if need in source_of:  # each source -> the one given of its kind
            return f"with {source_of[need]}"
        return unread(KEYS[need]) or f"without {need}"

    for name in kv:
        if name not in KEYS:
            raise DataError(f"unknown key {name}")
    given, source_of = set(kv), {}
    for sources in SOURCES:
        names = list(dict.fromkeys(s.partition(" = ")[0] for s in sources))
        named = [name for name in names if name in kv]
        if len(named) > 1:
            raise DataError(f"{named[0]} and {named[1]} both given; "
                            "set one source")
        if not named:
            raise DataError(f"config needs {' or '.join(names)}")
        source = (named[0] if named[0] in sources
                  else f"{named[0]} = {kv[named[0]]}")
        if source not in sources:
            raise DataError(f"unknown {named[0]} {kv[named[0]]!r}")
        given.add(source)
        source_of.update(dict.fromkeys(sources, source))

    parts = {part: {} for part in ["", *(part for part, _, _ in _SPECS)]}
    for key in KEYS.values():
        why = unread(key)
        if key.name not in kv:
            if key.required and not why:
                raise DataError(f"config needs {key.name}")
            continue
        if why:
            raise DataError(f"{key.name} is not read {why}")
        value = kv[key.name]
        if key.check is not None:
            value = key.check(key.name, value)
        for field in key.fields.split():
            part, _, name = field.rpartition(".")
            parts[part][name] = value
    cfg = parts[""]
    for part, source, spec in _SPECS:
        if source in given:
            cfg[part] = spec(**parts[part])
    return ExperimentConfig(**cfg)


def add_generate_flags(parser) -> None:
    """Add each ``generate`` flag to an argparse ``parser``.  The flag of
    a key that picks a source takes the values that name one."""
    for flag, (key, *_) in FLAGS.items():
        choices = [s.partition(" = ")[2] for sources in SOURCES
                   for s in sources if s.startswith(f"{key.name} = ")]
        parser.add_argument(flag, choices=choices or None, **{
            "type": key.check and key.check.flag_type, **(key.options or {})})


def generate_keys(args) -> dict[str, object]:
    """The config keys that parsed ``generate`` flags set.  A flag sets
    its key.  A flag of several keys (``--max-iter``) sets each whose
    ``when`` names a key that a flag sets, or else its first key, which
    then fails as a key nothing reads."""
    values = {flag: getattr(args, flag.lstrip("-").replace("-", "_"))
              for flag in FLAGS}
    named = {key.name for flag, keys in FLAGS.items()
             if values[flag] is not None for key in keys}
    kv: dict[str, object] = {}
    for flag, keys in FLAGS.items():
        if values[flag] is not None:
            read = [key.name for key in keys if named.intersection(key.when)]
            kv.update(dict.fromkeys(read or [keys[0].name], values[flag]))
    return kv


# the part of a line before a '#' that lies outside quotes
_BEFORE_COMMENT = re.compile(r"""(?:[^#'"]|"[^"]*"?|'[^']*'?)*""")


def parse_config_text(text: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _BEFORE_COMMENT.match(raw).group().strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"line {lineno}: expected 'key = value', "
                            f"got {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise DataError(f"line {lineno}: repeated key {key}")
        values[key] = _parse_value(val)
    return values


def _parse_value(s: str):
    if s.startswith("[") and s.endswith("]"):
        return [_parse_value(x.strip()) for x in s[1:-1].split(",")] \
            if s[1:-1].strip() else []
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "'\"":
        return s[1:-1]
    if s.lower() in ("true", "false"):
        return s.lower() == "true"
    for number in (int, float):
        try:
            return number(s)
        except ValueError:
            pass
    return s


def load_experiment_config(path) -> ExperimentConfig:
    """Read a flat ``key = value`` config file into
    :func:`experiment_config`; a ``DataError`` names ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return experiment_config(parse_config_text(text))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
