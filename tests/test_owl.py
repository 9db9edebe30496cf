"""Unit tests for OWL export/import of ontologies."""

from __future__ import annotations

import pytest

from repro.errors import SerializationError
from repro.scenarioml.ontology import Ontology, Parameter
from repro.scenarioml.owl import parse_owl_xml, to_owl_xml


def roundtrip(ontology: Ontology) -> Ontology:
    return parse_owl_xml(to_owl_xml(ontology))


class TestRoundtrip:
    def test_small_ontology(self, small_ontology: Ontology):
        back = roundtrip(small_ontology)
        assert {t.name for t in back.terms} == {
            t.name for t in small_ontology.terms
        }
        assert {c.name for c in back.instance_types} == {
            c.name for c in small_ontology.instance_types
        }
        assert {i.name for i in back.instances} == {
            i.name for i in small_ontology.instances
        }
        assert {e.name for e in back.event_types} == {
            e.name for e in small_ontology.event_types
        }

    def test_subsumption_preserved(self, small_ontology: Ontology):
        back = roundtrip(small_ontology)
        assert back.instance_type("Human").super_name == "Actor"
        assert back.event_type("create").super_name == "act"
        assert back.is_event_subtype_of("destroy", "act")

    def test_event_type_details_preserved(self, small_ontology: Ontology):
        back = roundtrip(small_ontology)
        create = back.event_type("create")
        assert create.actor == "System"
        assert create.text == "The system creates the [subject]"
        assert create.parameters == (Parameter("subject"),)
        assert back.event_type("act").abstract

    def test_typed_parameter_becomes_object_property(
        self, small_ontology: Ontology
    ):
        document = to_owl_xml(small_ontology)
        assert "ObjectProperty" in document  # notify's Actor-typed param
        assert "DatatypeProperty" in document  # untyped params
        back = parse_owl_xml(document)
        (who,) = back.event_type("notify").parameters
        assert who.type_name == "Actor"

    def test_descriptions_survive(self):
        ontology = Ontology("docs", description="the whole domain")
        ontology.define_term("gizmo", "A described thing.")
        ontology.define_instance_type("Kind", description="a class")
        ontology.define_instance("one", "Kind", description="an individual")
        back = roundtrip(ontology)
        assert back.description == "the whole domain"
        assert back.term("gizmo").definition == "A described thing."
        assert back.instance_type("Kind").description == "a class"
        assert back.instance("one").description == "an individual"

    def test_names_with_spaces(self):
        ontology = Ontology("spacey")
        ontology.define_instance_type("Command And Control")
        ontology.define_instance(
            "Police Department Center", "Command And Control"
        )
        back = roundtrip(ontology)
        assert back.has_instance_type("Command And Control")
        assert (
            back.instance("Police Department Center").type_name
            == "Command And Control"
        )

    def test_pims_ontology_reasoning_preserved(self, pims):
        back = roundtrip(pims.ontology)
        assert back.is_event_subtype_of("createPortfolio", "managePortfolio")
        assert set(back.event_type_descendants("manageInvestment")) == set(
            pims.ontology.event_type_descendants("manageInvestment")
        )

    def test_crash_ontology_classification_preserved(self, crash):
        back = roundtrip(crash.ontology)
        police = "Police Department Command and Control"
        assert back.is_subclass_of(
            back.instance(police).type_name, "Entity"
        )
        assert len(back.instances_of("Entity")) == len(
            crash.ontology.instances_of("Entity")
        )


class TestExportErrors:
    @pytest.mark.parametrize("name", ["EventType", "Term"])
    def test_reserved_root_class_names_rejected(self, name):
        ontology = Ontology("o")
        ontology.define_instance_type("thing")
        ontology.define_event_type(
            name, text="does [x]", parameters=[Parameter("x", "thing")]
        )
        with pytest.raises(SerializationError, match="reserved"):
            to_owl_xml(ontology)


class TestParsingErrors:
    def test_malformed_xml(self):
        with pytest.raises(SerializationError):
            parse_owl_xml("<rdf:RDF")

    def test_wrong_root(self):
        with pytest.raises(SerializationError):
            parse_owl_xml("<notRdf/>")

    def test_individual_without_type_rejected(self):
        document = (
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
            ' xmlns:owl="http://www.w3.org/2002/07/owl#">'
            '<owl:NamedIndividual rdf:about="urn:repro:scenarioml#x"/>'
            "</rdf:RDF>"
        )
        with pytest.raises(SerializationError):
            parse_owl_xml(document)

    def test_unexpected_property_name_rejected(self):
        document = (
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
            ' xmlns:owl="http://www.w3.org/2002/07/owl#">'
            '<owl:DatatypeProperty rdf:about="urn:repro:scenarioml#oddball"/>'
            "</rdf:RDF>"
        )
        with pytest.raises(SerializationError):
            parse_owl_xml(document)
