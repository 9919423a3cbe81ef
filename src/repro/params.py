"""One declaration of the ``search`` and ``census`` parameters.

The ``repro-dynamo search`` / ``census`` subcommands and the service's
``POST /jobs/search`` / ``POST /jobs/census`` bodies take the same
parameters with the same defaults, choices and bounds, because both read
the :class:`ParamTable` entries below:

* :meth:`ParamTable.add_arguments` puts a table on an argparse
  subparser (flag ``--seed-size`` for entry ``seed_size``);
* :meth:`ParamTable.from_json` turns a JSON job body into the normalized
  spec the service runs, rejecting unknown keys, wrong types and
  out-of-range values with :class:`ValueError`;
* :attr:`ParamTable.check` is the cross-field check (seed size within
  ``1..m*n``, a buildable torus, a constructible rule) both front ends
  run before any work starts — the CLI reports its :class:`ValueError`
  as a usage error, the service as a 400.

Flags only the CLI has (``--db``, ``--backend``, plan, ledger, telemetry,
``--render``) are not parameters of a job and stay in :mod:`repro.cli`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .rules import RULE_NAMES, make_rule
from .topology.tori import TORUS_KINDS, make_torus

__all__ = ["CENSUS", "Param", "ParamTable", "SEARCH", "TABLES"]


@dataclass(frozen=True)
class Param:
    """One parameter: its JSON key, its flag, and its admissible values.

    ``type`` is ``int``, ``str`` or ``bool`` (a bool is an off-by-default
    switch).  ``many`` makes the value a non-empty list of ``type``;
    ``choices`` and ``minimum`` then apply to every element.  A
    ``required`` parameter has no default; a ``positional`` one is a
    positional CLI argument.  JSON ``null`` is accepted only where the
    default is ``None`` (the driver then picks its own value).
    """

    name: str
    type: type
    default: Any = None
    required: bool = False
    positional: bool = False
    many: bool = False
    choices: Optional[Tuple[str, ...]] = None
    minimum: Optional[int] = None
    metavar: Optional[str] = None
    help: Optional[str] = None

    @property
    def flag(self) -> str:
        """The CLI spelling: the name itself, or ``--dashed-name``."""
        if self.positional:
            return self.name
        return "--" + self.name.replace("_", "-")

    def _check_value(self, value: Any, label: str) -> Any:
        """Reject one scalar outside ``choices``/``minimum``."""
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"{label} must be one of {', '.join(self.choices)}, "
                f"got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ValueError(
                f"{label} must be >= {self.minimum}, got {value!r}"
            )
        return value

    def _parse_cli(self, text: str) -> int:
        """argparse ``type`` of an integer entry."""
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{self.flag} must be an integer, got {text!r}"
            ) from None
        try:
            return self._check_value(value, self.flag)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        """Declare this entry on an argparse (sub)parser."""
        if self.type is bool:
            parser.add_argument(self.flag, action="store_true", help=self.help)
            return
        kwargs: Dict[str, Any] = {"help": self.help}
        if self.type is int:
            kwargs["type"] = self._parse_cli
        if self.choices is not None:
            kwargs["choices"] = self.choices
        if self.many:
            kwargs["nargs"] = "+"
        if not self.positional:
            kwargs["metavar"] = self.metavar
            if self.required:
                kwargs["required"] = True
            else:
                kwargs["default"] = (
                    list(self.default) if self.many else self.default
                )
        parser.add_argument(self.flag, **kwargs)

    def from_json(self, body: Mapping[str, Any]) -> Any:
        """This entry's normalized value from a JSON job body."""
        if self.name not in body:
            if self.required:
                raise ValueError(f"missing required parameter {self.name!r}")
            return list(self.default) if self.many else self.default
        value = body[self.name]
        if value is None and self.default is None and not self.required:
            return None
        if self.many:
            if not isinstance(value, list) or not value:
                raise ValueError(
                    f"{self.name!r} must be a non-empty list of "
                    f"{self.type.__name__} values"
                )
            return [self._scalar_from_json(item) for item in value]
        return self._scalar_from_json(value)

    def _scalar_from_json(self, value: Any) -> Any:
        # bool is an int subclass: never let True stand for 1
        if isinstance(value, bool) != (self.type is bool) or not isinstance(
            value, self.type
        ):
            raise ValueError(
                f"{self.name!r} must be {self.type.__name__}, got {value!r}"
            )
        return self._check_value(value, self.name)


@dataclass(frozen=True)
class ParamTable:
    """The parameters of one driver plus its cross-field check."""

    command: str
    params: Tuple[Param, ...]
    #: the cross-field check: ``check(spec, cli)`` raises ValueError for
    #: an inconsistent spec, naming parameters as the CLI flags
    #: (``cli=True``) or as the JSON keys
    check: Callable[[Mapping[str, Any], bool], None]

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        """Declare every entry on the command's argparse subparser."""
        for param in self.params:
            param.add_to(parser)

    def from_json(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        """Normalize a JSON job body (CLI defaults filled in) and run the
        cross-field :attr:`check`; every rejection is a ValueError."""
        known = {param.name for param in self.params}
        unknown = sorted(set(body) - known)
        if unknown:
            raise ValueError(
                f"unknown parameter(s): {', '.join(unknown)}; "
                f"accepted: {', '.join(sorted(known))}"
            )
        spec = {param.name: param.from_json(body) for param in self.params}
        self.check(spec, False)
        return spec


def _check_search(spec: Mapping[str, Any], cli: bool) -> None:
    m, n = spec["m"], spec["n"]
    vertices = make_torus(spec["kind"], m, n).num_vertices
    if not 1 <= spec["seed_size"] <= vertices:
        raise ValueError(
            f"{'--seed-size' if cli else 'seed_size'} must be in "
            f"1..{vertices} on a {m}x{n} torus, got {spec['seed_size']!r}"
        )
    make_rule(spec["rule"], num_colors=spec["colors"])


def _check_census(spec: Mapping[str, Any], cli: bool) -> None:
    for kind in spec["kinds"]:
        for size in spec["sizes"]:
            make_torus(kind, size, size)


def _trials(help: str) -> Param:
    return Param("trials", int, 20_000, minimum=0, help=help)


def _seed(help: str) -> Param:
    return Param("seed", int, 0xBEEF, help=help)


def _processes(help: str) -> Param:
    return Param("processes", int, 0, minimum=0, metavar="P", help=help)


def _shard_size(help: Optional[str] = None) -> Param:
    return Param("shard_size", int, None, minimum=1, metavar="S", help=help)


SEARCH = ParamTable(
    "search",
    (
        Param("kind", str, required=True, positional=True, choices=TORUS_KINDS),
        Param("m", int, required=True, positional=True),
        Param("n", int, required=True, positional=True),
        Param("seed_size", int, required=True, metavar="S",
              help="number of target-color seed vertices"),
        Param("colors", int, 4, minimum=2, metavar="C",
              help="palette size (default: 4)"),
        Param("target_color", int, 0, metavar="K"),
        Param("rule", str, "smp", choices=RULE_NAMES),
        Param("exhaustive", bool, False,
              help="enumerate every configuration instead of random "
              "trials (refuses oversized enumerations)"),
        _trials("random trials (ignored with --exhaustive)"),
        _seed("RNG root of the random search"),
        Param("monotone_only", bool, False,
              help="keep only monotone witnesses"),
        Param("batch_size", int, None, minimum=1, metavar="B"),
        _processes("worker processes sharding the random trials (0 runs "
                   "inline)"),
        _shard_size(),
        Param("max_configs", int, 20_000_000, minimum=1,
              help="largest enumeration --exhaustive accepts"),
    ),
    _check_search,
)

CENSUS = ParamTable(
    "census",
    (
        Param("kinds", str, TORUS_KINDS, many=True, choices=TORUS_KINDS),
        Param("sizes", int, (3, 4, 5, 6), many=True, minimum=3),
        _trials("random-search trials per (kind, size, seed size)"),
        Param("batch_size", int, 8192, minimum=1, metavar="B",
              help="replica rows advanced per batched-engine call"),
        _processes("worker processes sharding the random searches (0 runs "
                   "inline); results are identical at any count"),
        _shard_size("random trials per process shard (default: the batch "
                    "size)"),
        _seed("RNG root for the per-cell random searches"),
    ),
    _check_census,
)

#: command name -> its table
TABLES: Dict[str, ParamTable] = {table.command: table for table in (SEARCH, CENSUS)}
