"""Shared fixtures.

Each fixture builds one of the paper's worked scenarios:

* ``vehicle_db`` — Example 1 (physical part hierarchy, independent
  exclusive references);
* ``document_db`` — Example 2 (logical part hierarchy with shared and
  dependent references);
* ``figure5_db`` — the Figure 5 topology (two composite roots sharing a
  component), used by authorization and locking tests;
* ``figure9_db`` — the Figure 9 class graph for the locking protocol.

``owns_nothing`` is the first brick of the ownership oracle (ROADMAP 3),
for the wire test modules that name it in ``pytestmark``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import AttributeSpec, Database, SetOf


@pytest.fixture
def db():
    """An empty database."""
    return Database()


@pytest.fixture
def vehicle_db():
    """Example 1: the Vehicle composite hierarchy."""
    database = Database()
    from repro.workloads.parts import build_vehicle

    handle = build_vehicle(database)
    return database, handle


@pytest.fixture
def document_db():
    """Example 2 schema plus two documents sharing a section."""
    database = Database()
    from repro.workloads.documents import define_document_schema

    define_document_schema(database)
    p1 = database.make("Paragraph", values={"Text": "shared paragraph"})
    p2 = database.make("Paragraph", values={"Text": "private paragraph"})
    shared_section = database.make(
        "Section", values={"Heading": "Shared", "Content": [p1]}
    )
    private_section = database.make(
        "Section", values={"Heading": "Private", "Content": [p2]}
    )
    image = database.make("Image", values={"File": "/figures/a.png"})
    note = database.make("Paragraph", values={"Text": "annotation"})
    doc_a = database.make(
        "Document",
        values={
            "Title": "A",
            "Sections": [shared_section, private_section],
            "Figures": [image],
            "Annotations": [note],
        },
    )
    doc_b = database.make(
        "Document", values={"Title": "B", "Sections": [shared_section]}
    )
    handles = {
        "doc_a": doc_a,
        "doc_b": doc_b,
        "shared_section": shared_section,
        "private_section": private_section,
        "p_shared": p1,
        "p_private": p2,
        "image": image,
        "note": note,
    }
    return database, handles


@pytest.fixture
def figure5_db():
    """Figure 5: roots j and k sharing component o'; p under j, q under k."""
    database = Database()
    database.make_class("Thing")
    database.make_class(
        "Root",
        attributes=[
            AttributeSpec(
                "kids",
                domain=SetOf("Thing"),
                composite=True,
                exclusive=False,
                dependent=False,
            )
        ],
    )
    o_prime = database.make("Thing")
    p = database.make("Thing")
    q = database.make("Thing")
    j = database.make("Root", values={"kids": [o_prime, p]})
    k = database.make("Root", values={"kids": [o_prime, q]})
    return database, {"j": j, "k": k, "o_prime": o_prime, "p": p, "q": q}


@pytest.fixture
def figure9_db():
    """Figure 9 class graph: I -excl-> C -excl-> W; K -shared-> C."""
    database = Database()
    database.make_class("W")
    database.make_class(
        "C",
        attributes=[
            AttributeSpec(
                "w", domain="W", composite=True, exclusive=True, dependent=True
            )
        ],
    )
    database.make_class(
        "I",
        attributes=[
            AttributeSpec(
                "c", domain="C", composite=True, exclusive=True, dependent=True
            )
        ],
    )
    database.make_class(
        "K",
        attributes=[
            AttributeSpec(
                "cs",
                domain=SetOf("C"),
                composite=True,
                exclusive=False,
                dependent=False,
            )
        ],
    )
    w1 = database.make("W")
    c1 = database.make("C", values={"w": w1})
    i1 = database.make("I", values={"c": c1})
    w2 = database.make("W")
    c2 = database.make("C", values={"w": w2})
    k1 = database.make("K", values={"cs": [c2]})
    k2 = database.make("K", values={"cs": [c2]})
    return database, {"i1": i1, "k1": k1, "k2": k2, "c1": c1, "c2": c2,
                      "w1": w1, "w2": w2}


@pytest.fixture
def owns_nothing(monkeypatch):
    """Every ``ReproServer`` the test builds must end owning nothing, and
    no event loop may log an exception.

    At teardown -- after the test's own fixtures closed their sessions,
    and after ``ServerThread.stop``, which closes every session -- each
    server's lock table holds no granted lock, queued request or
    coverage entry, and its lock-order recorder no open trace.  Any
    context an event loop (the test's, or a server thread's) passes to
    its exception handler, which asyncio would only log, fails the
    test."""
    from repro.server.server import ReproServer

    servers = []
    logged = []
    build = ReproServer.__init__
    report = asyncio.BaseEventLoop.call_exception_handler

    def init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        servers.append(self)

    def handler(loop, context):
        logged.append(context)
        report(loop, context)

    monkeypatch.setattr(ReproServer, "__init__", init)
    monkeypatch.setattr(asyncio.BaseEventLoop, "call_exception_handler",
                        handler)
    yield
    assert not logged, f"an event loop logged: {logged}"
    for server in servers:
        table = server.tm.table
        assert not table._granted, table._granted
        assert not table._held, table._held
        assert not table._waiting, table._waiting
        assert not table._covered, table._covered
        if server.lockdep is not None:
            assert server.lockdep.stats_row()["open_traces"] == 0
