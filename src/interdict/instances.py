"""Instance file format and the built-in instance families.

File format (line oriented, UTF-8, LF):

    c <comment>                     any number of comment lines
    p interdict <n> <m> <gamma>     exactly one header line
    n <id> s                        source designator
    n <id> t                        sink designator
    a <tail> <head> <capacity>      m arc lines; capacity is a finite
                                    nonnegative decimal or the token "inf"

The "inf" arcs alone may connect source to sink at most gamma times (arc
disjointly), or the game's value would be unbounded.

Arc ids are 1-based in file order.  parse/serialize round-trip exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Optional

from .graph import Arc, Instance

FAMILIES = ("fig1", "fig2a", "fig2b", "thm6", "random")


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


class SpecInvalid(Exception):
    """Generator parameters violate the family's constraints."""


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    gamma: int
    k: Optional[int] = None
    seed: Optional[int] = None
    nodes: Optional[int] = None
    arcs: Optional[int] = None
    cap_max: Optional[int] = None
    fig2b_prose: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecInvalid(f"unknown family {self.family!r}")
        if self.gamma < 1:
            raise SpecInvalid("gamma must be >= 1")
        if self.family in ("fig1", "fig2a", "fig2b"):
            if self.k is None or self.k < self.gamma + 1:
                raise SpecInvalid(f"{self.family} requires K >= gamma + 1")
        elif self.family == "thm6":
            if self.k is None or self.k < 1:
                raise SpecInvalid("thm6 requires K >= 1")
        else:
            if self.nodes is None or self.nodes < 2:
                raise SpecInvalid("random requires nodes >= 2")
            if self.arcs is None or self.arcs < 1:
                raise SpecInvalid("random requires arcs >= 1")
            if self.cap_max is None or self.cap_max < 1:
                raise SpecInvalid("random requires cap_max >= 1")
            if self.seed is None:
                raise SpecInvalid("random requires a seed")
            if self.gamma > self.arcs:
                raise SpecInvalid("gamma exceeds arc count")


def fig2a(k: int, gamma: int) -> Instance:
    """K unit arcs s->v followed by gamma+1 unbounded arcs v->t."""
    if k < gamma + 1:
        raise SpecInvalid("fig2a requires K >= gamma + 1")
    arcs = [Arc(1, 2, Fraction(1)) for _ in range(k)]
    arcs += [Arc(2, 3, None) for _ in range(gamma + 1)]
    return Instance(node_count=3, source=1, sink=3, arcs=tuple(arcs), gamma=gamma)


def fig1(k: int, gamma: int) -> Instance:
    """fig2a plus one s->v arc of capacity 3K/2, before the downstream arcs."""
    if k < gamma + 1:
        raise SpecInvalid("fig1 requires K >= gamma + 1")
    arcs = [Arc(1, 2, Fraction(1)) for _ in range(k)]
    arcs.append(Arc(1, 2, Fraction(3 * k, 2)))
    arcs += [Arc(2, 3, None) for _ in range(gamma + 1)]
    return Instance(node_count=3, source=1, sink=3, arcs=tuple(arcs), gamma=gamma)


def fig2b(k: int, gamma: int, prose: bool = False) -> Instance:
    """Four-node family: K unit arcs s->v, a relief branch through w, and
    gamma unbounded arcs v->t.

    The default branch follows the drawn layout (s->w cap gamma*K, w->v cap
    K, w->t cap K).  ``prose=True`` selects the alternative written layout
    (s->v cap gamma*K, w->v cap K, w->t unbounded), which leaves node w
    without inflow; it is kept verbatim for comparison runs.
    """
    if k < gamma + 1:
        raise SpecInvalid("fig2b requires K >= gamma + 1")
    # nodes: 1=s, 2=v, 3=w, 4=t
    arcs = [Arc(1, 2, Fraction(1)) for _ in range(k)]
    if prose:
        arcs += [Arc(1, 2, Fraction(gamma * k)), Arc(3, 2, Fraction(k)), Arc(3, 4, None)]
    else:
        arcs += [
            Arc(1, 3, Fraction(gamma * k)),
            Arc(3, 2, Fraction(k)),
            Arc(3, 4, Fraction(k)),
        ]
    arcs += [Arc(2, 4, None) for _ in range(gamma)]
    return Instance(node_count=4, source=1, sink=4, arcs=tuple(arcs), gamma=gamma)


def thm6(k: int, gamma: int) -> Instance:
    """gamma unit arcs and floor(gamma/2) arcs of capacity K from s to v,
    then gamma+1 unbounded arcs v->t."""
    if k < 1:
        raise SpecInvalid("thm6 requires K >= 1")
    arcs = [Arc(1, 2, Fraction(1)) for _ in range(gamma)]
    arcs += [Arc(1, 2, Fraction(k)) for _ in range(gamma // 2)]
    arcs += [Arc(2, 3, None) for _ in range(gamma + 1)]
    return Instance(node_count=3, source=1, sink=3, arcs=tuple(arcs), gamma=gamma)


def random_instance(
    nodes: int, arcs: int, cap_max: int, gamma: int, seed: int
) -> Instance:
    """Seeded layered DAG with two internal layers and a guaranteed s-t path.

    Capacities are uniform integers in [1, cap_max]; parallel arcs may occur.
    """
    spec = GeneratorSpec(
        family="random", gamma=gamma, seed=seed, nodes=nodes, arcs=arcs, cap_max=cap_max
    )
    rng = random.Random(spec.seed)
    internal = list(range(2, nodes))
    half = math.ceil(len(internal) / 2)
    layers = [[1]]
    if internal[:half]:
        layers.append(internal[:half])
    if internal[half:]:
        layers.append(internal[half:])
    layers.append([nodes])
    allowed = [
        (u, w)
        for i, layer in enumerate(layers)
        for u in layer
        for later in layers[i + 1 :]
        for w in later
    ]
    backbone = [
        (layers[i][0], layers[i + 1][0]) for i in range(len(layers) - 1)
    ]
    if arcs < len(backbone):
        raise SpecInvalid(f"need at least {len(backbone)} arcs for {nodes} nodes")
    pairs = backbone + [rng.choice(allowed) for _ in range(arcs - len(backbone))]
    built = tuple(
        Arc(t, h, Fraction(rng.randint(1, cap_max))) for t, h in pairs
    )
    return Instance(node_count=nodes, source=1, sink=nodes, arcs=built, gamma=gamma)


def generate(spec: GeneratorSpec) -> Instance:
    if spec.family == "fig1":
        return fig1(spec.k, spec.gamma)
    if spec.family == "fig2a":
        return fig2a(spec.k, spec.gamma)
    if spec.family == "fig2b":
        return fig2b(spec.k, spec.gamma, prose=spec.fig2b_prose)
    if spec.family == "thm6":
        return thm6(spec.k, spec.gamma)
    return random_instance(spec.nodes, spec.arcs, spec.cap_max, spec.gamma, spec.seed)


def _parse_capacity(token: str, line: int) -> Optional[Fraction]:
    if token == "inf":
        return None
    try:  # a non-finite Decimal raises ValueError (NaN) or OverflowError
        value = Fraction(Decimal(token))
    except (InvalidOperation, ValueError, OverflowError):
        raise ParseError(f"bad capacity {token!r}", line) from None
    if value < 0:
        raise ParseError("capacity must be nonnegative", line)
    return value


def _format_capacity(cap: Optional[Fraction]) -> str:
    """Shortest exact decimal, or "inf"."""
    if cap is None:
        return "inf"
    if cap.denominator == 1:
        return str(cap.numerator)
    den = cap.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"capacity {cap} has no exact decimal form")
    digits = max(twos, fives)
    scaled = cap.numerator * 10**digits // cap.denominator
    text = str(scaled).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    return f"{whole}.{frac.rstrip('0')}" if frac.rstrip("0") else whole


def parse(text: str) -> Instance:
    """Parse the file format above; raises ParseError with a line number."""
    header = None
    source = sink = None
    raw_arcs: list[tuple[int, int, Optional[Fraction], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
            if header is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(fields) != 5 or fields[1] != "interdict":
                raise ParseError("malformed problem line", lineno)
            try:
                header = tuple(int(x) for x in fields[2:])
            except ValueError:
                raise ParseError("malformed problem line", lineno) from None
        elif tag == "n":
            if header is None:
                raise ParseError("node line before problem line", lineno)
            if len(fields) != 3 or fields[2] not in ("s", "t"):
                raise ParseError("malformed node line", lineno)
            try:
                node = int(fields[1])
            except ValueError:
                raise ParseError("malformed node line", lineno) from None
            if not 1 <= node <= header[0]:
                raise ParseError(f"node id {node} out of range", lineno)
            if fields[2] == "s":
                if source is not None:
                    raise ParseError("duplicate source line", lineno)
                source = node
            else:
                if sink is not None:
                    raise ParseError("duplicate sink line", lineno)
                sink = node
        elif tag == "a":
            if header is None or source is None or sink is None:
                raise ParseError("arc line before header/designators", lineno)
            if len(fields) != 4:
                raise ParseError("malformed arc line", lineno)
            try:
                tail, head = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("malformed arc line", lineno) from None
            cap = _parse_capacity(fields[3], lineno)
            for v in (tail, head):
                if not 1 <= v <= header[0]:
                    raise ParseError(f"node id {v} out of range", lineno)
            if head == source:
                raise ParseError("arc enters source", lineno)
            if tail == sink:
                raise ParseError("arc leaves sink", lineno)
            raw_arcs.append((tail, head, cap, lineno))
        else:
            raise ParseError(f"unknown line tag {tag!r}", lineno)
    lastline = lineno if text.strip() else 0
    if header is None:
        raise ParseError("missing problem line", lastline or 1)
    n, m, gamma = header
    if source is None:
        raise ParseError("missing source designator", lastline)
    if sink is None:
        raise ParseError("missing sink designator", lastline)
    if source == sink:
        raise ParseError("source equals sink", lastline)
    if len(raw_arcs) != m:
        raise ParseError(f"expected {m} arcs, found {len(raw_arcs)}", lastline)
    if not 1 <= gamma <= m:
        raise ParseError("gamma out of range", lastline)
    arcs = tuple(Arc(t, h, cap) for t, h, cap, _ in raw_arcs)
    try:
        return Instance(node_count=n, source=source, sink=sink, arcs=arcs, gamma=gamma)
    except ValueError as exc:
        raise ParseError(str(exc), lastline) from None


def serialize(instance: Instance) -> str:
    lines = [
        f"p interdict {instance.node_count} {instance.arc_count} {instance.gamma}",
        f"n {instance.source} s",
        f"n {instance.sink} t",
    ]
    for aid in instance.arc_ids():
        arc = instance.arc(aid)
        lines.append(f"a {arc.tail} {arc.head} {_format_capacity(arc.capacity)}")
    return "\n".join(lines) + "\n"
