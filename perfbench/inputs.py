"""Every seeded input of the benchmark, generated in one place.

The engine under test only ever receives what this module produces: the
XMark document text and query texts (plus update bindings).  The run's
seed fixes the query order, the nonces and literal values, the
watch-insert targets and the open-loop arrival times, so the same seed
replays the same request sequence.  Each purpose draws from its own
``random.Random`` stream, so how many values one consumer takes never
shifts another's sequence.

The document is the same for every seed (generator seed
:data:`DOCUMENT_SEED`).  At these scales the generator's seed moves the
volume Q10 constructs by about a third, and the constructor leak turns
that into a twofold spread in steady-state throughput between seeds --
a spread no bound could hold.  The leak itself shows on every seed.

Reference answers come from :class:`Oracle`, the nested-loop baseline
interpreter with value indexes, on its own arena: it shares no code with
the loop-lifting compiler, the optimizer or the relational evaluator.
"""

from __future__ import annotations

import random

from repro.baseline import Interpreter
from repro.encoding.arena import NodeArena
from repro.encoding.shred import shred_text
from repro.xmark import XMARK_QUERIES, generate_document
from repro.xmark.words import WORDS
from repro.xmark.xmlgen import scaled_counts
from repro.xquery.core import desugar_module
from repro.xquery.parser import parse_query

#: the catalog URI every workload loads its document under
DOC_URI = "auction.xml"

#: the XMark generator seed of every workload's document
DOCUMENT_SEED = 42

#: the standard XMark texts, in Q1..Q20 order
QUERY_NAMES = tuple(XMARK_QUERIES)

#: a query no workload sends: set-up runs it once so lazily built state
#: (the optimizer's arena statistics) exists before timing starts
WARMUP_QUERY = "count(/site/people/person)"

#: the "watch an auction" update; no XMark query reads ``watch``, so
#: every read stays checkable against the reference after inserts
WATCH_UPDATE = (
    "declare variable $p external; declare variable $a external; "
    'insert node <watch open_auction="{$a}"/> '
    "into /site/people/person[@id = $p]"
)
WATCH_COUNT_QUERY = "count(//watch)"


def stream(seed: int, purpose: str) -> random.Random:
    """The private random stream of one input ``purpose``."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def document(scale: float) -> str:
    """The XMark document of a workload."""
    return generate_document(scale, seed=DOCUMENT_SEED)


def _literal_variant(name: str, text: str, rng: random.Random, scale: float) -> str:
    """``text`` with its probe constants replaced by seeded values.

    Every replacement keeps the query valid at any value, so no variant
    can fail; templates without a constant are returned unchanged.
    """
    counts = scaled_counts(scale)

    def person() -> str:
        return f'"person{rng.randrange(counts.people)}"'

    if name == "Q1":
        return text.replace('"person0"', person())
    if name == "Q4":
        return text.replace('"person1"', person()).replace('"person2"', person())
    if name == "Q5":
        return text.replace(">= 40", f">= {rng.randint(10, 300)}")
    if name in ("Q11", "Q12"):
        text = text.replace("5000 *", f"{rng.randint(2000, 8000)} *")
        return text.replace("> 50000", f"> {rng.randint(20000, 100000)}")
    if name == "Q14":
        return text.replace('"gold"', f'"{rng.choice(WORDS)}"')
    if name == "Q18":
        return text.replace("2.20371", f"{rng.uniform(1.0, 3.0):.5f}")
    if name == "Q20":
        high = rng.randint(60000, 150000)
        low = rng.randint(10000, 50000)
        return text.replace("100000", str(high)).replace("30000", str(low))
    return text


class ColdRequests:
    """The plan-cold request stream: passes over the 20 templates in
    seeded order, each text made unique by a nonce comment and seeded
    literal values.  Yields ``(name, answer_key, text)``; ``answer_key``
    is the text without its nonce, which fixes the reference answer."""

    def __init__(self, seed: int, scale: float):
        self._order = stream(seed, "cold-order")
        self._literals = stream(seed, "cold-literals")
        self._nonce = stream(seed, "cold-nonce")
        self._scale = scale

    def __iter__(self):
        seen: set[str] = set()
        while True:
            names = list(QUERY_NAMES)
            self._order.shuffle(names)
            for name in names:
                key = _literal_variant(
                    name, XMARK_QUERIES[name], self._literals, self._scale
                )
                nonce = f"{self._nonce.getrandbits(64):016x}"
                text = f"(: nonce {nonce} :){key}"
                if text in seen:  # a 64-bit nonce repeating is a bug
                    raise RuntimeError("plan-cold produced a repeated query text")
                seen.add(text)
                yield name, key, text


def steady_orders(seed: int, passes: int) -> list[list[str]]:
    """The xmark-steady schedule: one seeded shuffle of Q1..Q20 per pass."""
    rng = stream(seed, "steady-order")
    orders = []
    for _ in range(passes):
        names = list(QUERY_NAMES)
        rng.shuffle(names)
        orders.append(names)
    return orders


class ServeRequests:
    """The serve-mixed request sequence, in blocks of 50: 49 reads that
    walk the 20 XMark queries in seeded passes, then one watch insert
    for a seeded (person, open auction) pair -- 2% updates at a fixed
    spacing, and every query equally often.

    Not thread-safe: one thread at a time draws from it.  Items are
    ``("query", name, None)`` or ``("update", "watch", bindings)``.
    """

    BLOCK = 50

    def __init__(self, seed: int, scale: float):
        self._order = stream(seed, "serve-order")
        self._target = stream(seed, "serve-watch")
        self._counts = scaled_counts(scale)
        self._pass: list[str] = []
        self._block: list[tuple] = []

    def _read(self) -> tuple[str, str, None]:
        if not self._pass:
            self._pass = list(QUERY_NAMES)
            self._order.shuffle(self._pass)
        return "query", self._pass.pop(), None

    def next(self) -> tuple[str, str, dict | None]:
        if not self._block:
            self._block = [self._read() for _ in range(self.BLOCK - 1)]
            bindings = {
                "p": f"person{self._target.randrange(self._counts.people)}",
                "a": f"open_auction{self._target.randrange(self._counts.open_auctions)}",
            }
            self._block.append(("update", "watch", bindings))
            self._block.reverse()  # popped from the end: reads in pass order
        return self._block.pop()


def arrivals(seed: int, rate: float, seconds: float) -> list[float]:
    """Open-loop due times (seconds from phase start): a seeded Poisson
    process at ``rate`` requests per second."""
    rng = stream(seed, "serve-arrivals")
    times, t = [], rng.expovariate(rate)
    while t < seconds:
        times.append(t)
        t += rng.expovariate(rate)
    return times


class Oracle:
    """Reference answers from the nested-loop baseline interpreter, over
    a private arena (value indexes on ``@person`` and ``@income``, the
    ones the paper's authors added to X-Hive)."""

    def __init__(self, xml_text: str):
        arena = NodeArena()
        root = shred_text(arena, xml_text)
        self._interp = Interpreter(arena, {DOC_URI: root}, DOC_URI, use_indexes=True)
        self._interp.add_value_index("person")
        self._interp.add_value_index("income")
        self._answers: dict[str, str] = {}

    def answer(self, text: str) -> str:
        """The serialized reference result of query ``text``."""
        cached = self._answers.get(text)
        if cached is None:
            interp = self._interp
            cached = interp.serialize(interp.execute(desugar_module(parse_query(text))))
            self._answers[text] = cached
        return cached
