"""Per-execution transient arenas: constructed nodes never touch the base.

Every query execution builds its constructed nodes in an overlay arena
owned by its ``QueryResult``.  These tests pin the steady state (the
shared document arena, its navigation indices and its string-value
cache stay unchanged under a repeated constructor workload), the
batching bound (one overlay index build per constructor operator at
most), and the semantics of constructed nodes against the baseline
interpreter — axes, identity, order, node functions, copies of copies,
results outliving later queries and catalog growth, and concurrency.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro
from repro import PathfinderEngine
from repro.relational import algebra as alg
from repro.xmark import XMARK_QUERIES, generate_document
from tests.conftest import SMALL_XML, run_baseline, run_pf


def _base_shape(arena) -> tuple[int, int, int]:
    return arena.num_nodes, arena.num_attrs, len(arena.frag_base)


@pytest.fixture(scope="module")
def xmark_xml() -> str:
    return generate_document(0.0005)


def _xmark_session(xml: str):
    session = repro.connect()
    session.database.load_document("auction.xml", xml)
    return session


class TestSteadyState:
    def test_repeated_q10_leaves_the_base_arena_unchanged(self, xmark_xml):
        session = _xmark_session(xmark_xml)
        arena = session.database.arena
        q10 = session.prepare(XMARK_QUERIES["Q10"])
        expected = q10.execute().serialize()
        shape = _base_shape(arena)
        builds = arena.index_builds
        for i in range(1000):
            output = q10.execute().serialize()
            assert _base_shape(arena) == shape, f"base arena grew on run {i + 2}"
            assert arena.index_builds == builds, f"base re-indexed on run {i + 2}"
        assert output == expected

    def test_one_overlay_index_build_per_constructor_operator(self, xmark_xml):
        session = _xmark_session(xmark_xml)
        q10 = session.prepare(XMARK_QUERIES["Q10"])
        constructors = sum(
            isinstance(op, (alg.ElemConstr, alg.TextConstr, alg.AttrConstr))
            for op in alg.walk(q10.plan)
        )
        assert constructors > 0
        result = q10.execute()
        result.serialize()
        assert 0 < result.arena.overlay.index_builds <= constructors

    def test_string_value_cache_holds_no_constructed_nodes(self):
        session = repro.connect()
        session.database.load_document("doc.xml", SMALL_XML)
        arena = session.database.arena
        queries = [
            "string(<a>x<b>y</b></a>)",
            "for $a in /site/a return string(<w>{$a}<v>{$a/text()}</v></w>)",
            "<w>{data(<a>1<b>2</b></a>)}</w>",
        ]
        for query in queries:
            session.prepare(query).execute().serialize()
        cached = len(arena._strvalue_cache)
        for _ in range(20):
            for query in queries:
                session.prepare(query).execute().serialize()
        assert len(arena._strvalue_cache) == cached

    def test_constructor_queries_do_not_take_the_mutation_lock(self):
        session = repro.connect()
        session.database.load_document("doc.xml", SMALL_XML)
        prepared = session.prepare("<w>{/site/a, text {'t'}, attribute k {'v'}}</w>")
        expected = prepared.execute().serialize()  # builds the base indices
        outputs: list[str] = []
        worker = threading.Thread(
            target=lambda: outputs.append(prepared.execute().serialize()),
            daemon=True,
        )
        with session.database.arena.mutation_lock:
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive(), "construction waited on the base lock"
        assert outputs == [expected] == ['<w k="v"><a i="z">1</a><a>2</a>t</w>']


#: constructed-node semantics, each checked against the baseline
#: interpreter over the same document
SEMANTICS = [
    # every axis from constructed nodes
    'let $e := <e a="1" b="2"><f c="3"/></e> return $e/@*',
    'let $e := <e a="1"><f c="3"><g d="4"/></f></e> return $e//@*',
    "let $e := <e><f/><g/></e> return $e/f/..",
    "let $e := <e><f><g/></f></e> return for $x in $e//g/ancestor::* return name($x)",
    "let $e := <e><f><g/></f></e> return for $x in $e//g/ancestor-or-self::* return name($x)",
    "let $e := <e><f/><g/><h/></e> return $e/f/following-sibling::*",
    "let $e := <e><f/><g/><h/></e> return $e/h/preceding-sibling::*",
    "let $e := <e><f><x/></f><g/><h>t</h></e> return $e//x/following::node()",
    "let $e := <e><f><x/></f><g/><h>t</h></e> return $e/h/preceding::*",
    "let $e := <e><f>1<x/>2</f></e> return $e/descendant::node()",
    "let $e := <e><f/></e> return $e/descendant-or-self::*",
    "let $e := <e><f/></e> return $e/self::e",
    "let $e := <e><f>1</f><g>2</g></e> return $e/child::g/text()",
    # identity, document order and document-order dedup across sides
    "let $e := <e/> return ($e is $e, $e << /site/a[1], /site/a[1] << $e)",
    "let $e := <e><f/><g/></e> return ($e/f << $e/g, $e/g >> $e/f, $e/f is $e/g)",
    "let $e := <e><f/></e> return ($e/f | /site/a | $e/f)",
    "let $e := <e><f/></e> return (/site/b, $e/f, /site/a[1]) / .",
    # steps whose iterations mix base and constructed context nodes
    "for $x in (<e><f/><g/></e>, /site/nest) return $x/*[2]",
    "for $x in (/site/nest, <e><f/><g/></e>, <h><i/></h>) return ($x/*)[last()]",
    "for $x in (<e a='1'/>, /site/a[1], <h b='2'/>) return string($x/@*)",
    # node functions on constructed elements
    "let $e := <e><f/></e> return name(root($e/f))",
    "let $e := <e><f/></e> return root($e/f)",
    "for $x in <e><f/><g/></e>/* return name($x)",
    "name(<abc/>)",
    "string(<a>x<b>y</b></a>)",
    'deep-equal(<a b="1">x</a>, <a b="1">x</a>)',
    'deep-equal(<a i="z">1</a>, /site/a[1])',
    "deep-equal(<a>1</a>, <a>2</a>)",
    "(<a>x</a>, <b/>)[1] = 'x'",
    # constructors copying nodes built by an earlier operator
    'let $e := <e a="1"><f>t</f></e> return <w>{$e, $e/f, $e/@a}</w>',
    '<w>{text {"hi"}, attribute k {"v"}}</w>',
    'let $a := attribute k {"v"} return (<w>{$a}</w>, <v>{$a}</v>)',
    "<o>{for $i in (1, 2) return <i n='{$i}'>{$i, 'a', <j>{$i}</j>}</i>}</o>",
    "let $x := <x><y z='1'>t</y></x> return <w>{$x/y, <v>{$x}</v>}</w>",
    "<w>{/site/nest, <k>{/site/b/@f}</k>}</w>",
]


@pytest.mark.parametrize("staircase", [True, False], ids=["staircase", "naive"])
@pytest.mark.parametrize("query", SEMANTICS)
def test_constructed_nodes_match_baseline(query, staircase):
    engine = PathfinderEngine(use_staircase=staircase)
    engine.load_document("doc.xml", SMALL_XML)
    assert run_pf(engine, query) == run_baseline(engine, query)


class TestResultLifetime:
    def test_result_survives_overlay_reuse_and_base_growth(self):
        session = repro.connect()
        session.database.load_document("doc.xml", SMALL_XML)
        first = session.prepare("<x><y a='1'>one</y></x>").execute()
        handles = first.values()
        second = session.prepare("<z><w q='2'>two</w></z>").execute()
        # both executions numbered their constructed root the same
        assert int(first.table.item("item").data[0]) == int(
            second.table.item("item").data[0]
        )
        session.database.load_document("more.xml", "<m><n>" + "k" * 50 + "</n></m>")
        # the new document's rows now sit at the ids the results used
        assert session.database.arena.num_nodes > first.arena.node_base
        assert first.serialize() == '<x><y a="1">one</y></x>'
        assert second.serialize() == '<z><w q="2">two</w></z>'
        assert handles[0].serialize() == '<x><y a="1">one</y></x>'
        assert handles[0].string_value() == "one"
        attr = session.prepare("<x><y a='1'/></x>/y/@a").execute().values()[0]
        assert attr.is_attribute and attr.serialize() == 'a="1"'
        assert attr.string_value() == "1"
        more = session.prepare('doc("more.xml")/m/n/text()').execute()
        assert more.serialize() == "k" * 50

    def test_legacy_engine_result_serializes_its_own_nodes(self):
        engine = PathfinderEngine()
        engine.load_document("doc.xml", SMALL_XML)
        result = engine.execute("<w>{/site/b}</w>")
        engine.execute("<v>other</v>")
        assert result.serialize() == '<w><b f="q">x</b></w>'
        assert result.values()[0].serialize() == '<w><b f="q">x</b></w>'


def test_concurrent_constructor_queries_are_byte_identical(xmark_xml):
    session = _xmark_session(xmark_xml)
    database = session.database
    queries = [XMARK_QUERIES[name] for name in ("Q2", "Q3", "Q10", "Q13", "Q20")]
    queries.append("for $p in /site/people/person return <p>{$p/@id, $p/name}</p>")
    expected = [session.prepare(q).execute().serialize() for q in queries]
    shape = _base_shape(database.arena)
    mismatches: list[tuple[int, int]] = []
    errors: list[Exception] = []

    def worker(index: int) -> None:
        own = database.connect()
        try:
            for round_ in range(3):
                for j, query in enumerate(queries):
                    k = (j + index + round_) % len(queries)
                    if own.prepare(queries[k]).execute().serialize() != expected[k]:
                        mismatches.append((index, k))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads as finely as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert mismatches == []
    assert _base_shape(database.arena) == shape
