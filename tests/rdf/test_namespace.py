"""Unit tests for namespaces and the prefix manager."""

import pytest

from repro.rdf import (
    AKT,
    KISTI,
    Namespace,
    NamespaceManager,
    RDF,
    URIRef,
)


class TestNamespace:
    def test_attribute_access(self):
        ns = Namespace("http://example.org/vocab#")
        assert ns.Person == URIRef("http://example.org/vocab#Person")

    def test_item_access_with_hyphen(self):
        assert AKT["has-author"] == URIRef("http://www.aktors.org/ontology/portal#has-author")

    def test_contains(self):
        assert AKT["has-author"] in AKT
        assert KISTI.hasCreator not in AKT

    def test_equality(self):
        assert Namespace("http://a/") == Namespace("http://a/")
        assert Namespace("http://a/") != Namespace("http://b/")

    def test_private_attribute_raises(self):
        with pytest.raises(AttributeError):
            AKT._missing  # noqa: B018


class TestNamespaceManager:
    def test_default_bindings_installed(self):
        manager = NamespaceManager()
        assert manager.namespace("rdf") == str(RDF)
        assert manager.namespace("akt") == str(AKT)

    def test_empty_manager(self):
        manager = NamespaceManager(install_defaults=False)
        assert len(manager) == 0
        assert manager.namespace("rdf") is None

    def test_bind(self):
        manager = NamespaceManager(install_defaults=False)
        manager.bind("ex", "http://example.org/")
        assert manager.namespace("ex") == "http://example.org/"
        assert manager.compact(URIRef("http://example.org/thing")) == "ex:thing"

    def test_compact_prefers_longest_namespace(self):
        manager = NamespaceManager(install_defaults=False)
        manager.bind("a", "http://example.org/")
        manager.bind("b", "http://example.org/deeper/")
        assert manager.compact(URIRef("http://example.org/deeper/x")) == "b:x"

    def test_compact_rejects_slashy_local_names(self):
        manager = NamespaceManager(install_defaults=False)
        manager.bind("a", "http://example.org/")
        assert manager.compact(URIRef("http://example.org/a/b")) is None

    def test_compact_unknown_namespace(self):
        manager = NamespaceManager(install_defaults=False)
        assert manager.compact(URIRef("http://unknown.org/x")) is None

    def test_bind_no_replace(self):
        manager = NamespaceManager(install_defaults=False)
        manager.bind("ex", "http://one.org/")
        manager.bind("ex", "http://two.org/", replace=False)
        assert manager.namespace("ex") == "http://one.org/"

    def test_rebind_updates_reverse_mapping(self):
        manager = NamespaceManager(install_defaults=False)
        manager.bind("ex", "http://one.org/")
        manager.bind("ex", "http://two.org/")
        assert manager.namespace("ex") == "http://two.org/"
        assert manager.prefix("http://two.org/") == "ex"

    def test_copy_is_independent(self):
        manager = NamespaceManager(install_defaults=False)
        manager.bind("ex", "http://one.org/")
        clone = manager.copy()
        clone.bind("other", "http://two.org/")
        assert "other" in clone
        assert "other" not in manager

    def test_namespaces_iteration_sorted(self):
        manager = NamespaceManager(install_defaults=False)
        manager.bind("z", "http://z.org/")
        manager.bind("a", "http://a.org/")
        assert [prefix for prefix, _ in manager.namespaces()] == ["a", "z"]
