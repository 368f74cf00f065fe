import json
from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cover_lattice import (
    Cover,
    FeatureUniverse,
    PlanningProblem,
    SchemaError,
    SensorMap,
    Stipulation,
    ValidationError,
    belief_text,
    cover_text,
    export_dot,
    hasse_edges,
    parse_document,
    partition_slice,
    refines,
    serialize_document,
)
from cover_lattice.formats import json_text

from util import C

GPS_DOC = '{"universe":["1","2","3"],"cover":[["1","2"],["1","2","3"],["2","3"]]}'


class TestParse:
    def test_gps_cover(self, u3):
        cover = parse_document(GPS_DOC)
        assert isinstance(cover, Cover)
        assert cover == C(u3, "12", "123", "23")

    def test_empty_preimage_is_semantic_error(self):
        with pytest.raises(ValidationError, match="empty pre-image"):
            parse_document('{"universe":["1"],"cover":[[]]}')

    def test_uncovered_feature_is_semantic_error(self):
        with pytest.raises(ValidationError, match="uncovered"):
            parse_document('{"universe":["1","2"],"cover":[["1"]]}')

    def test_invalid_json(self):
        with pytest.raises(SchemaError, match=r"\$: invalid JSON"):
            parse_document("{not json")

    def test_nesting_too_deep(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_document("[" * 100_000 + "]" * 100_000)
        assert excinfo.value.path == "$"

    def test_schema_violation_carries_path(self):
        with pytest.raises(SchemaError, match=r"\$\.cover\[0\]\[1\]"):
            parse_document('{"universe":["1"],"cover":[["1",2]]}')

    @pytest.mark.parametrize(
        "covers,error,message",
        [
            (
                '[[["1"],["2"]],[["1"],["2",3]]]',
                SchemaError,
                "$.covers[1][1][1]: expected a string",
            ),
            # A string must not match the subset ["1","2"], though tuple("12") would.
            ('[[["1","2"]],["12"]]', SchemaError, "$.covers[1][0]: expected an array"),
            ('[[["1","2"]],[["1",["2"]]]]', SchemaError, "$.covers[1][0][1]: expected a string"),
            ('[[["1","2"]],[["1","9"]]]', ValidationError, "unknown feature label: '9'"),
        ],
    )
    def test_cover_list_diagnostics_after_a_known_subset(self, covers, error, message):
        with pytest.raises(error) as excinfo:
            parse_document('{"universe":["1","2"],"covers":%s}' % covers)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message

    def test_non_object_document(self):
        with pytest.raises(SchemaError):
            parse_document("[1,2,3]")

    def test_unrecognized_layout(self):
        with pytest.raises(SchemaError, match="unrecognized"):
            parse_document('{"weird": 1}')

    def test_ambiguous_layout(self):
        with pytest.raises(SchemaError, match="ambiguous document layout") as excinfo:
            parse_document('{"states":["a"],"sensitive":["a"]}')
        assert "sensitive, states" in str(excinfo.value)
        assert excinfo.value.path == "$"

    @pytest.mark.parametrize(
        "doc",
        [
            '{"universe":["1","2"],"cover":[["1","2"]],"bogus":1}',
            '{"universe":["1","2"],"cover":[["1","2"]],"label":["x"]}',
            '{"universe":["1"],"covers":[[["1"]]],"labels":["x"]}',
            '{"universe":["1"],"readings":{"r":["1"]},"bogus":1}',
            '{"sensitive":["1"],"max_resolution":1,"bogus":1}',
            '{"states":["1"],"actions":["a"],"transition":{"1":{"a":["1"]}},'
            '"initial":["1"],"goal":["1"],"bogus":1}',
            '{"universe":["1"],"bogus":1}',
        ],
    )
    def test_unknown_key(self, doc):
        with pytest.raises(SchemaError, match="unknown key") as excinfo:
            parse_document(doc)
        key = next(k for k in json.loads(doc) if k in ("bogus", "label", "labels"))
        assert excinfo.value.path == f"$.{key}"

    def test_universe_document(self):
        u = parse_document('{"universe":["a","b"]}')
        assert isinstance(u, FeatureUniverse)
        assert u.labels == ("a", "b")

    def test_sensor_map_document(self, u3):
        doc = '{"universe":["1","2","3"],"readings":{"x":["1","2"],"y":["2","3"]}}'
        m = parse_document(doc)
        assert isinstance(m, SensorMap)
        assert m.readings == {"x": 3, "y": 6}

    def test_problem_document(self, u3):
        doc = json.dumps(
            {
                "states": ["1", "2", "3"],
                "actions": ["right"],
                "transition": {
                    "1": {"right": ["2"]},
                    "2": {"right": ["3"]},
                    "3": {"right": ["3"]},
                },
                "initial": ["1", "2", "3"],
                "goal": ["3"],
            }
        )
        p = parse_document(doc)
        assert isinstance(p, PlanningProblem)
        assert p.transitions == ((2, 4, 4),)

    def test_problem_unknown_state_in_transition(self):
        doc = json.dumps(
            {
                "states": ["1"],
                "actions": ["a"],
                "transition": {"9": {"a": ["1"]}},
                "initial": ["1"],
                "goal": ["1"],
            }
        )
        with pytest.raises(SchemaError, match=r"\$\.transition\.9"):
            parse_document(doc)

    def test_stipulation_document(self):
        s = parse_document('{"sensitive":["1","3"],"max_resolution":2}')
        assert s == Stipulation(frozenset({"1", "3"}), 2)
        s2 = parse_document('{"sensitive":["1"]}')
        assert s2.max_resolution is None

    def test_stipulation_bad_resolution(self):
        with pytest.raises(SchemaError, match=r"\$\.max_resolution"):
            parse_document('{"sensitive":["1"],"max_resolution":true}')

    def test_covers_document(self, u2):
        doc = '{"universe":["1","2"],"covers":[[["1","2"]],[["1"],["2"]]]}'
        covers = parse_document(doc)
        assert covers == (C(u2, "12"), C(u2, "1", "2"))


class TestRoundTrip:
    def test_cover_round_trip_identity(self, covers3):
        for c in covers3[::7]:
            text = serialize_document(c)
            again = parse_document(text)
            assert again == c
            assert serialize_document(again) == text

    def test_labels_survive_round_trip(self, u3):
        from cover_lattice import invert_sensor_map

        m = SensorMap(u3, {"1": ["1", "2"], "2": ["1", "2", "3"], "3": ["2", "3"]})
        cover = invert_sensor_map(m)
        again = parse_document(serialize_document(cover))
        assert [again.labels.get(m) for m in again.masks] == [
            cover.labels.get(m) for m in cover.masks
        ]

    def test_problem_round_trip(self, junction):
        text = serialize_document(junction)
        assert parse_document(text) == junction
        assert serialize_document(parse_document(text)) == text

    def test_stipulation_round_trip(self):
        for s in (Stipulation(frozenset({"1"})), Stipulation(frozenset({"2", "1"}), 1)):
            text = serialize_document(s)
            assert parse_document(text) == s
            assert serialize_document(parse_document(text)) == text

    def test_sensor_map_round_trip(self, u3):
        m = SensorMap(u3, {"b": ["2", "3"], "a": ["1", "2"]})
        text = serialize_document(m)
        again = parse_document(text)
        assert again.readings == m.readings
        assert serialize_document(again) == text

    def test_covers_round_trip(self, u2):
        from cover_lattice import all_covers

        seq = all_covers(u2)
        text = serialize_document(seq)
        assert parse_document(text) == tuple(seq)
        assert serialize_document(list(parse_document(text))) == text

    def test_class_documents_read_back_as_universe(self, u3):
        from cover_lattice import all_classes, class_compliance_report, star_class
        from cover_lattice.formats import class_doc, class_report_doc, classes_doc

        cover = C(u3, "12", "123")
        report = class_compliance_report(cover, Stipulation(frozenset({"1", "2"}), 2))
        docs = [
            class_doc(star_class(cover)),
            classes_doc(u3, all_classes(u3)),
            class_report_doc(u3, report),
        ]
        for doc in docs:
            assert parse_document(json_text(doc)) == u3


class Level(IntEnum):
    LOW = 1


class Text(str):
    pass


_TEXT = st.text(st.sampled_from('ab1"\\/\n\t\x00\x1f\x7fé€😀\ud800'), max_size=4)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | _TEXT
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


@st.composite
def _documents(draw):
    # One tuple of labels at three depths: a memo keyed without the depth
    # would indent the deeper copies wrong.
    labels = draw(st.lists(_TEXT, max_size=3).map(tuple))
    return {"labels": labels, "body": draw(_VALUES), "deeper": [[labels], labels]}


class TestJsonText:
    @given(_documents() | _VALUES)
    @example({"ints": (1,), "bools": (True,), "floats": (1.0,), "label": ("1",)})
    @example([("1", "2"), [("1", "2")], "12", [[("1", "2")]]])
    @example({"keys": {1: "a", None: [1, {"x": ()}], True: 2.5}, "empty": [{}, [], ()]})
    @example([{"sub": [Text("a\n"), Level.LOW, OrderedDict(k=[1, [2]]), ()]}, (Text("t"),)])
    @example({"big": [2**200, -(2**200)], "odd": [float("nan"), float("-inf"), -0.0]})
    def test_equals_json_dumps(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2) + "\n"

    def test_unserializable_value_raises_as_json_does(self):
        with pytest.raises(TypeError):
            json_text({"a": [object()]})


class TestText:
    def test_cover_text(self, u3):
        assert cover_text(C(u3, "12", "23")) == "{1,2}|{2,3}"

    def test_belief_text_orders_by_universe(self, u3):
        assert belief_text(u3, frozenset(["3", "1"])) == "{1,3}"
        assert belief_text(u3, 5) == "{1,3}"


class TestDot:
    def test_chain_golden(self, u3):
        top = C(u3, "123")
        mid = C(u3, "1", "123")
        bot = C(u3, "1", "2", "123")
        nodes = [bot, top, mid]
        edges = hasse_edges(nodes, "subsumption")
        expected = (
            "digraph covers {\n"
            "  rankdir=TB;\n"
            '  "{1,2,3}";\n'
            '  "{1}|{1,2,3}";\n'
            '  "{1}|{2}|{1,2,3}";\n'
            '  "{1,2,3}" -> "{1}|{1,2,3}";\n'
            '  "{1}|{1,2,3}" -> "{1}|{2}|{1,2,3}";\n'
            "}\n"
        )
        assert export_dot(nodes, edges) == expected

    def test_edge_ends_outside_nodes_render_in_key_order(self, u3):
        top, mid, bot = C(u3, "123"), C(u3, "1", "123"), C(u3, "1", "2", "123")
        out = export_dot([mid], [(mid, bot), (top, mid)])
        assert out == (
            "digraph covers {\n"
            "  rankdir=TB;\n"
            '  "{1}|{1,2,3}";\n'
            '  "{1,2,3}" -> "{1}|{1,2,3}";\n'
            '  "{1}|{1,2,3}" -> "{1}|{2}|{1,2,3}";\n'
            "}\n"
        )

    def test_single_node_no_edges(self, u2):
        out = export_dot([C(u2, "12")], [])
        assert out.count("->") == 0
        assert '"{1,2}"' in out

    def test_partition_slice_matches_refinement_oracle(self, u3):
        diagram = partition_slice(u3)
        # independent reduction straight from the refinement relation
        parts = diagram.nodes
        strict = {(a, b) for a in parts for b in parts if a != b and refines(a, b)}
        reduced = {
            (a, b)
            for (a, b) in strict
            if not any((a, c) in strict and (c, b) in strict for c in parts)
        }
        assert export_dot(diagram.nodes, diagram.edges) == export_dot(parts, reduced)

    def test_escaping(self):
        u = FeatureUniverse(['a"b'])
        out = export_dot([Cover(u, [1])], [])
        assert '\\"' in out
