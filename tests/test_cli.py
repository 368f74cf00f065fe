import errno
import io
import json
import os
import sys
from itertools import islice
from pathlib import Path

import pytest

from cover_lattice import (
    iter_antichain_covers,
    make_cover,
    make_universe,
    maximal_solvable_covers,
    run_cli,
    serialize_document,
    solvable,
    star_closure,
)
from cover_lattice.cli import _sorted_covers
from cover_lattice.formats import covers_doc, cover_text, json_text

from util import (
    class_walk_maximal_solvable_covers,
    cover_count_formula,
    random_problem,
    sparse_problem,
)


def invoke(capsys, *argv):
    status = run_cli(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.fixture()
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return write


@pytest.fixture()
def gps_map(files):
    return files(
        "gps.json",
        {
            "universe": ["1", "2", "3"],
            "readings": {"1": ["1", "2"], "2": ["1", "2", "3"], "3": ["2", "3"]},
        },
    )


@pytest.fixture()
def junction_doc(files):
    return files(
        "junction.json",
        {
            "states": ["1", "2", "3", "4"],
            "actions": ["left", "right"],
            "transition": {
                "1": {"left": ["2"], "right": ["4"]},
                "2": {"left": ["2"], "right": ["2"]},
                "3": {"left": ["4"], "right": ["2"]},
                "4": {"left": ["4"], "right": ["4"]},
            },
            "initial": ["1", "3"],
            "goal": ["2"],
        },
    )


def cover_doc(universe, *sets):
    return {"universe": list(universe), "cover": [list(s) for s in sets]}


class TestBasics:
    def test_no_arguments_is_usage_error(self, capsys):
        status, _, _ = invoke(capsys)
        assert status == 2

    def test_unknown_subcommand(self, capsys):
        status, _, _ = invoke(capsys, "frobnicate")
        assert status == 2

    def test_help_exits_zero(self, capsys):
        status, _, _ = invoke(capsys, "--help")
        assert status == 0

    def test_missing_file(self, capsys):
        status, _, err = invoke(capsys, "star", "--input", "/nonexistent.json")
        assert status == 2
        assert "error:" in err

    def test_out_flag_writes_file(self, capsys, files, tmp_path):
        cov = files("c.json", cover_doc("123", "123"))
        out = tmp_path / "result.txt"
        status, stdout, _ = invoke(capsys, "star", "--input", cov, "--out", str(out))
        assert status == 0
        assert stdout == ""
        assert out.read_text(encoding="utf-8") == "{1}|{2}|{3}|{1,2}|{1,3}|{2,3}|{1,2,3}\n"


def run_module(*argv, timeout=None, **env):
    """Run ``python -m cover_lattice`` in a child process; returns (status, stdout, stderr) bytes."""
    import subprocess

    import cover_lattice

    src = os.path.dirname(os.path.dirname(cover_lattice.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cover_lattice", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path, **env},
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


SURROGATE_COVER = {"universe": ["\ud800", "2"], "cover": [["\ud800", "2"]]}


class TestEncoding:
    """Input that is not UTF-8 and output the destination cannot encode exit 2."""

    def test_input_not_utf8_is_unreadable(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"universe": ["a\xff"]}')
        status, out, err = invoke(capsys, "validate", "--input", str(bad))
        assert status == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}: ")

    def test_surrogate_label_to_stdout(self, files):
        cov = files("c.json", SURROGATE_COVER)
        status, out, err = run_module("star", "--input", cov)
        assert status == 2
        assert out == b""
        assert err.startswith(b"error: ") and b"Traceback" not in err

    def test_surrogate_label_to_out_file(self, capsys, files, tmp_path):
        cov = files("c.json", SURROGATE_COVER)
        dest = tmp_path / "result.txt"
        status, out, err = invoke(capsys, "star", "--input", cov, "--out", str(dest))
        assert status == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not dest.exists()

    def test_surrogate_label_in_json_is_escaped(self, capsys, files):
        cov = files("c.json", SURROGATE_COVER)
        status, out, _ = invoke(capsys, "star", "--input", cov, "--format", "json")
        assert status == 0
        assert json.loads(out)["cover"] == [["\ud800"], ["2"], ["\ud800", "2"]]

    def test_non_ascii_label_under_ascii_stdout(self, files):
        cov = files("c.json", cover_doc(["é", "2"], ["é", "2"]))
        status, out, err = run_module("star", "--input", cov, PYTHONIOENCODING="ascii")
        assert status == 2
        assert out == b""
        assert err.startswith(b"error: ") and b"Traceback" not in err
        status, out, _ = run_module("star", "--input", cov, PYTHONIOENCODING="utf-8")
        assert status == 0
        assert out == "{é}|{2}|{é,2}\n".encode("utf-8")


class FailingStdout(io.StringIO):
    """A stdout whose ``write`` or ``flush`` fails like a full disk or a closed pipe."""

    def __init__(self, method, err):
        super().__init__()
        self.method = method
        self.err = err

    def write(self, text):
        if self.method == "write":
            raise OSError(self.err, os.strerror(self.err))
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise OSError(self.err, os.strerror(self.err))


class TestWriteFailure:
    """A stdout that cannot be written exits 2 with one error line, never a traceback."""

    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("err", [errno.ENOSPC, errno.EPIPE])
    @pytest.mark.parametrize(
        "argv",
        [["enumerate", "--max-n", "2"], ["classes", "--max-n", "3", "--format", "json"]],
    )
    def test_exit_two(self, capsys, monkeypatch, method, err, argv):
        # OSError(EPIPE, ...) is a BrokenPipeError, what a closed pipe raises.
        monkeypatch.setattr(sys, "stdout", FailingStdout(method, err))
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error: cannot write output: [Errno {err}] {os.strerror(err)}\n"


class TestValidate:
    def test_kinds_reported(self, capsys, files, gps_map):
        cov = files("c.json", cover_doc("12", "12"))
        stip = files("s.json", {"sensitive": ["1"]})
        status, out, _ = invoke(capsys, "validate", "--input", cov, "--input", stip, "--input", gps_map)
        assert status == 0
        assert out == "ok: cover\nok: stipulation\nok: sensor-map\n"

    def test_invalid_document_fails(self, capsys, files):
        bad = files("bad.json", {"universe": ["1", "2"], "cover": [["1"]]})
        status, _, err = invoke(capsys, "validate", "--input", bad)
        assert status == 1
        assert "uncovered" in err

    def test_malformed_json_is_usage_class(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        status, _, _ = invoke(capsys, "validate", "--input", str(path))
        assert status == 2

    def test_deeply_nested_json_is_usage_class(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"a":' * 100_000 + "1" + "}" * 100_000, encoding="utf-8")
        status, out, err = invoke(capsys, "validate", "--input", str(path))
        assert status == 2
        assert out == ""
        assert err.startswith("error: $:")
        assert "Traceback" not in err

    def test_ambiguous_layout_is_usage_class(self, capsys, tmp_path):
        path = tmp_path / "both.json"
        path.write_text('{"states":["a"],"sensitive":["a"]}', encoding="utf-8")
        status, out, err = invoke(capsys, "validate", "--input", str(path))
        assert status == 2
        assert out == ""
        assert err.startswith("error: $: ambiguous document layout")
        assert "Traceback" not in err

    def test_unknown_key_is_usage_class(self, capsys, files):
        path = files("extra.json", {"universe": ["1", "2"], "cover": [["1", "2"]], "bogus": 1})
        status, out, err = invoke(capsys, "validate", "--input", path)
        assert status == 2
        assert out == ""
        assert err == "error: $.bogus: unknown key\n"

    def test_problem_without_actions_is_domain_error(self, capsys, files):
        doc = {"states": ["1", "2"], "actions": [], "transition": {}, "initial": ["1"], "goal": ["2"]}
        status, out, err = invoke(capsys, "validate", "--input", files("idle.json", doc))
        assert status == 1
        assert out == ""
        assert err == "error: at least one action required\n"

    def test_written_documents_validate(self, capsys, files, tmp_path, junction_doc, gps_map):
        # Every JSON document the CLI writes that names a layout reads back.
        cov = files("c.json", cover_doc("123", "12", "23"))
        stip = files("s.json", {"sensitive": ["1"], "max_resolution": 1})
        u3 = files("u.json", {"universe": ["1", "2", "3"]})
        runs = [
            ("invert", gps_map),
            ("star", cov),
            ("meet", cov, "--input", cov),
            ("join", cov, "--input", cov),
            ("class", cov),
            ("members", cov),
            ("enumerate", u3),
            ("classes", u3),
            ("partitions", u3),
            ("search-sensors", junction_doc),
            ("class-report", cov, "--input", stip),
        ]
        for i, (command, first, *rest) in enumerate(runs):
            out = tmp_path / f"out{i}.json"
            argv = [command, "--input", first, *rest, "--format", "json", "--out", str(out)]
            assert invoke(capsys, *argv)[0] == 0, command
            status, text, err = invoke(capsys, "validate", "--input", str(out))
            assert status == 0 and text.startswith("ok: "), (command, err)


class TestCoverOps:
    def test_invert_gps(self, capsys, gps_map):
        status, out, _ = invoke(capsys, "invert", "--input", gps_map)
        assert status == 0
        assert out == "{1,2}|{2,3}|{1,2,3}\n"

    def test_compare(self, capsys, files):
        a = files("a.json", cover_doc("123", "123"))
        b = files("b.json", cover_doc("123", "1", "123"))
        status, out, _ = invoke(capsys, "compare", "--input", a, "--input", b)
        assert status == 0
        assert out == "first-subsumes-second\n"

    def test_meet_json(self, capsys, files):
        a = files("a.json", cover_doc("123", "1", "123"))
        b = files("b.json", cover_doc("123", "13", "123"))
        status, out, _ = invoke(capsys, "meet", "--input", a, "--input", b, "--format", "json")
        assert status == 0
        assert json.loads(out)["cover"] == [["1"], ["1", "3"], ["1", "2", "3"]]

    def test_join_absent_exits_zero(self, capsys, files):
        a = files("a.json", cover_doc("123", "1", "2", "3"))
        b = files("b.json", cover_doc("123", "12", "23"))
        status, out, _ = invoke(capsys, "join", "--input", a, "--input", b)
        assert status == 0
        assert out == "absent\n"
        status, out, _ = invoke(capsys, "join", "--input", a, "--input", b, "--format", "json")
        assert status == 0
        assert json.loads(out) == {"join": None}

    def test_join_present(self, capsys, files):
        a = files("a.json", cover_doc("123", "12", "123"))
        b = files("b.json", cover_doc("123", "23", "123"))
        status, out, _ = invoke(capsys, "join", "--input", a, "--input", b)
        assert status == 0
        assert out == "{1,2,3}\n"

    def test_universe_mismatch_is_domain_error(self, capsys, files):
        a = files("a.json", cover_doc("12", "12"))
        b = files("b.json", cover_doc("123", "123"))
        status, _, err = invoke(capsys, "meet", "--input", a, "--input", b)
        assert status == 1
        assert "universe" in err

    def test_star_json(self, capsys, files, gps_map):
        cov = files("c.json", cover_doc("12", "12"))
        status, out, _ = invoke(capsys, "star", "--input", cov, "--format", "json")
        assert status == 0
        assert json.loads(out)["cover"] == [["1"], ["2"], ["1", "2"]]

    def test_star_of_gps_cover(self, capsys, files):
        cov = files("gpscover.json", cover_doc("123", "12", "123", "23"))
        status, out, _ = invoke(capsys, "star", "--input", cov, "--format", "json")
        assert status == 0
        doc = json.loads(out)
        assert doc["cover"] == [
            ["1"], ["2"], ["3"], ["1", "2"], ["1", "3"], ["2", "3"], ["1", "2", "3"],
        ]

    def test_proceeds(self, capsys, files):
        a = files("a.json", cover_doc("123", "1", "23"))
        b = files("b.json", cover_doc("123", "12", "23"))
        status, out, _ = invoke(capsys, "proceeds", "--input", a, "--input", b)
        assert status == 0 and out == "true\n"
        status, out, _ = invoke(capsys, "proceeds", "--input", b, "--input", a)
        assert status == 0 and out == "false\n"

    def test_class_and_members(self, capsys, files):
        cov = files("c.json", cover_doc("12", "12"))
        status, out, _ = invoke(capsys, "class", "--input", cov)
        assert status == 0
        assert out == "representative: {1,2}\nclosure: {1}|{2}|{1,2}\n"
        status, out, _ = invoke(capsys, "members", "--input", cov)
        assert status == 0
        assert out.splitlines() == ["{1,2}", "{1}|{1,2}", "{2}|{1,2}", "{1}|{2}|{1,2}"]


def labelled_doc(universe, sets, labels):
    return {**cover_doc(universe, *sets), "labels": labels}


class TestLabelPropagation:
    """Reading labels survive every command that builds a new cover."""

    def run_json(self, capsys, *argv):
        status, out, err = invoke(capsys, *argv, "--format", "json")
        assert status == 0, err
        return json.loads(out)

    def test_meet_keeps_first_covers_label(self, capsys, files):
        a = files("a.json", labelled_doc("123", ["12", "3"], ["x", "z"]))
        b = files("b.json", labelled_doc("123", ["12", "23", "1"], ["y", "w", None]))
        doc = self.run_json(capsys, "meet", "--input", a, "--input", b)
        assert doc["cover"] == [["1"], ["3"], ["1", "2"], ["2", "3"]]
        assert doc["labels"] == [None, "z", "x", "w"]
        doc = self.run_json(capsys, "meet", "--input", b, "--input", a)
        assert doc["labels"] == [None, "z", "y", "w"]

    def test_join_keeps_first_covers_label(self, capsys, files):
        a = files("a.json", labelled_doc("123", ["12", "3", "23"], ["x", None, "q"]))
        b = files("b.json", labelled_doc("123", ["12", "3", "1"], ["y", "z", "v"]))
        doc = self.run_json(capsys, "join", "--input", a, "--input", b)
        assert doc["cover"] == [["3"], ["1", "2"]]
        assert doc["labels"] == ["z", "x"]
        doc = self.run_json(capsys, "join", "--input", b, "--input", a)
        assert doc["labels"] == ["z", "y"]

    def test_join_drops_labels_of_dropped_preimages(self, capsys, files):
        a = files("a.json", labelled_doc("123", ["123", "1"], [None, "x"]))
        b = files("b.json", labelled_doc("123", ["123", "2"], [None, "y"]))
        doc = self.run_json(capsys, "join", "--input", a, "--input", b)
        assert doc == {"universe": ["1", "2", "3"], "cover": [["1", "2", "3"]]}

    def test_star_labels_only_original_preimages(self, capsys, files):
        cov = files("c.json", labelled_doc("123", ["12", "23"], ["a", "b"]))
        doc = self.run_json(capsys, "star", "--input", cov)
        assert doc["cover"] == [["1"], ["2"], ["3"], ["1", "2"], ["2", "3"]]
        assert doc["labels"] == [None, None, None, "a", "b"]

    def test_star_keeps_label_of_nested_preimage(self, capsys, files):
        cov = files("c.json", labelled_doc("12", ["12", "1"], [None, "low"]))
        doc = self.run_json(capsys, "star", "--input", cov)
        assert doc["cover"] == [["1"], ["2"], ["1", "2"]]
        assert doc["labels"] == ["low", None, None]

    def test_invert_labels_readings(self, capsys, gps_map, files):
        doc = self.run_json(capsys, "invert", "--input", gps_map)
        assert doc["cover"] == [["1", "2"], ["2", "3"], ["1", "2", "3"]]
        assert doc["labels"] == ["1", "3", "2"]
        twins = files("twins.json", {
            "universe": ["1", "2", "3"],
            "readings": {"q": ["1", "2"], "p": ["1", "2"], "r": ["3"]},
        })
        doc = self.run_json(capsys, "invert", "--input", twins)
        assert doc["cover"] == [["3"], ["1", "2"]]
        assert doc["labels"] == ["r", "p+q"]

    def test_duplicate_subset_takes_first_non_null_label(self, capsys, files):
        cov = files("c.json", labelled_doc("12", ["12", "12", "12"], [None, "a", "b"]))
        doc = self.run_json(capsys, "meet", "--input", cov, "--input", cov)
        assert doc["labels"] == ["a"]

    def test_all_null_labels_are_not_written(self, capsys, files):
        cov = files("c.json", labelled_doc("12", ["1", "2"], [None, None]))
        doc = self.run_json(capsys, "star", "--input", cov)
        assert "labels" not in doc


class TestEnumeration:
    def test_enumerate_text_count(self, capsys):
        status, out, _ = invoke(capsys, "enumerate", "--max-n", "3", "--format", "text")
        assert status == 0
        assert out == "109\n"

    def test_enumerate_with_universe_input(self, capsys, files):
        upath = files("u.json", {"universe": ["a", "b"]})
        status, out, _ = invoke(capsys, "enumerate", "--input", upath, "--format", "json")
        assert status == 0
        doc = json.loads(out)
        assert doc["count"] == 5 and len(doc["covers"]) == 5

    def test_enumerate_without_size_is_usage_error(self, capsys):
        status, _, _ = invoke(capsys, "enumerate")
        assert status == 2

    def test_enumerate_text_counts_without_listing(self, capsys):
        status, out, _ = invoke(capsys, "enumerate", "--max-n", "5")
        assert status == 0 and out == "2147321017\n"
        status, out, _ = invoke(capsys, "enumerate", "--max-n", "13")
        assert status == 0 and out == f"{cover_count_formula(13)}\n"

    def test_enumerate_unprintable_count_is_domain_error(self, capsys):
        status, out, err = invoke(capsys, "enumerate", "--max-n", "14")
        assert status == 1 and out == ""
        assert err.startswith("error: cover count limited to 13 features")

    def test_enumerate_bound_exceeded_is_domain_error(self, capsys, files):
        upath = files("u.json", {"universe": [str(i) for i in range(5)]})
        status, _, err = invoke(capsys, "enumerate", "--input", upath, "--format", "json")
        assert status == 1
        assert err == "error: cover enumeration limited to 4 features (got 5)\n"
        upath = files("u14.json", {"universe": [str(i) for i in range(14)]})
        status, _, err = invoke(capsys, "enumerate", "--input", upath)
        assert status == 1
        assert err == "error: cover count limited to 13 features (got 14)\n"

    def test_classes(self, capsys):
        status, out, _ = invoke(capsys, "classes", "--max-n", "3")
        assert status == 0 and out == "9\n"
        status, out, _ = invoke(capsys, "classes", "--max-n", "4")
        assert status == 0 and out == "114\n"
        status, out, _ = invoke(capsys, "classes", "--max-n", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["count"] == 2
        assert {"representative": [["1", "2"]], "closure": [["1"], ["2"], ["1", "2"]]} in doc["classes"]

    def test_partitions(self, capsys):
        status, out, _ = invoke(capsys, "partitions", "--max-n", "3")
        assert status == 0 and out == "5\n"
        status, out, _ = invoke(capsys, "partitions", "--max-n", "4", "--format", "json")
        assert json.loads(out)["count"] == 15

    def test_partitions_dot(self, capsys):
        status, out, _ = invoke(capsys, "partitions", "--max-n", "3", "--format", "dot")
        assert status == 0
        assert out.startswith("digraph partitions {")
        assert out.count("->") == 6


class TestHasse:
    def test_from_enumerate_json(self, capsys, files):
        covers = [[["1", "2", "3"]], [["1"], ["1", "2", "3"]], [["1"], ["2"], ["1", "2", "3"]]]
        path = files("covers.json", {"universe": ["1", "2", "3"], "covers": covers})
        status, out, _ = invoke(capsys, "hasse", "--input", path)
        assert status == 0
        assert out == "{1,2,3} -> {1}|{1,2,3}\n{1}|{1,2,3} -> {1}|{2}|{1,2,3}\n"

    def test_dot_format(self, capsys, files):
        path = files(
            "covers.json",
            {"universe": ["1", "2"], "covers": [[["1", "2"]], [["1"], ["1", "2"]]]},
        )
        status, out, _ = invoke(capsys, "hasse", "--input", path, "--format", "dot")
        assert status == 0
        assert '"{1,2}" -> "{1}|{1,2}"' in out

    def test_proceeds_cycle_is_domain_error(self, capsys, files):
        path = files(
            "covers.json",
            {"universe": ["1", "2"], "covers": [[["1", "2"], ["1"]], [["1", "2"], ["2"]]]},
        )
        status, _, err = invoke(capsys, "hasse", "--input", path, "--order", "proceeds")
        assert status == 1
        assert "antisymmetric" in err

    def test_needs_covers(self, capsys):
        status, _, _ = invoke(capsys, "hasse")
        assert status == 2

    def test_json_lists_a_repeated_cover_once(self, capsys, files):
        doc = {"universe": ["1", "2"], "covers": [[["1", "2"]], [["1"], ["1", "2"]], [["1", "2"]]]}
        status, out, _ = invoke(capsys, "hasse", "--input", files("covers.json", doc), "--format", "json")
        assert status == 0
        assert json.loads(out) == {
            "order": "subsumption",
            "nodes": ["{1,2}", "{1}|{1,2}"],
            "edges": [["{1,2}", "{1}|{1,2}"]],
        }

    @pytest.mark.parametrize("order", ["subsumption", "star"])
    def test_formats_share_one_order(self, capsys, files, order):
        u3 = make_universe(["1", "2", "3"])
        covers = list(iter_antichain_covers(u3))[::-1]
        path = files("covers.json", covers_doc(u3, covers))
        outs = {
            fmt: invoke(capsys, "hasse", "--input", path, "--order", order, "--format", fmt)[1]
            for fmt in ("text", "json", "dot")
        }
        text_edges = [line.split(" -> ") for line in outs["text"].splitlines()]
        dot_edges = [
            [end.strip('"') for end in line.strip().rstrip(";").split(" -> ")]
            for line in outs["dot"].splitlines() if " -> " in line
        ]
        doc = json.loads(outs["json"])
        assert len(text_edges) > 1
        assert text_edges == doc["edges"] == dot_edges
        dot_nodes = [line.strip()[1:-2] for line in outs["dot"].splitlines()[2:-1] if " -> " not in line]
        assert doc["nodes"] == dot_nodes == [cover_text(c) for c in _sorted_covers(covers)]


class TestPlanningCommands:
    def test_solve_unsolvable(self, capsys, files, junction_doc):
        blind = files("blind.json", cover_doc("1234", "1234"))
        status, out, _ = invoke(capsys, "solve", "--input", junction_doc, "--input", blind)
        assert status == 1
        assert out == "unsolvable\n"

    def test_solve_solvable_json(self, capsys, files, junction_doc):
        cov = files("pairs.json", cover_doc("1234", "14", "23"))
        status, out, _ = invoke(
            capsys, "solve", "--input", junction_doc, "--input", cov, "--format", "json"
        )
        assert status == 0
        assert json.loads(out) == {"solvable": True}

    def test_policy_text(self, capsys, files, junction_doc):
        cov = files("pairs.json", cover_doc("1234", "14", "23"))
        status, out, _ = invoke(capsys, "policy", "--input", junction_doc, "--input", cov)
        assert status == 0
        assert out == "{1} -> left\n{3} -> right\n"

    def test_policy_unsolvable_is_domain_error(self, capsys, files, junction_doc):
        blind = files("blind.json", cover_doc("1234", "1234"))
        status, _, err = invoke(capsys, "policy", "--input", junction_doc, "--input", blind)
        assert status == 1
        assert "no guaranteed plan" in err

    def test_policy_json_has_ranks(self, capsys, files, junction_doc):
        cov = files("pairs.json", cover_doc("1234", "14", "23"))
        status, out, _ = invoke(
            capsys, "policy", "--input", junction_doc, "--input", cov, "--format", "json"
        )
        doc = json.loads(out)
        assert doc["actions"] == {"{1}": "left", "{3}": "right"}
        assert doc["ranks"]["{1,3}"] == 1

    @pytest.mark.parametrize(
        "states,actions,ranks",
        [
            (
                [str(i) for i in range(1, 12)],
                [f"{{{i}}}" for i in range(1, 12)],
                [f"{{{i}}}" for i in range(2, 12)] + ["{1,2,3,4,5,6,7,8,9,10,11}"],
            ),
            (["b", "a"], ["{b}", "{a}"], ["{a}", "{b,a}"]),
        ],
    )
    def test_policy_beliefs_in_feature_order(self, capsys, files, states, actions, ranks):
        # A corridor started everywhere whose goal is its last state: beliefs
        # come out by cardinality, then feature index, whatever the labels.
        last = len(states) - 1
        problem = files(
            "corridor.json",
            {
                "states": states,
                "actions": ["left", "right"],
                "transition": {
                    s: {"left": [states[max(i - 1, 0)]], "right": [states[min(i + 1, last)]]}
                    for i, s in enumerate(states)
                },
                "initial": states,
                "goal": [states[last]],
            },
        )
        cov = files("singletons.json", {"universe": states, "cover": [[s] for s in states]})
        status, out, _ = invoke(
            capsys, "policy", "--input", problem, "--input", cov, "--format", "json"
        )
        assert status == 0
        doc = json.loads(out)
        assert list(doc["actions"]) == actions
        assert list(doc["ranks"]) == ranks
        status, out, _ = invoke(capsys, "policy", "--input", problem, "--input", cov)
        assert out == "".join(f"{b} -> right\n" for b in actions)

    def test_search_sensors_right_march(self, capsys, files):
        problem = files(
            "march.json",
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
            },
        )
        status, out, _ = invoke(capsys, "search-sensors", "--input", problem)
        assert status == 0
        assert out == "{1}|{2}|{3}|{1,2}|{1,3}|{2,3}|{1,2,3}\n"


class TestSearchSensors:
    @pytest.mark.parametrize(
        "n, make, seed",
        [(n, random_problem, seed) for n in (2, 3, 4, 5) for seed in (0, 2)]
        + [(n, sparse_problem, seed) for n in (4, 5) for seed in (0, 1)],
    )
    def test_output_matches_class_walk(self, capsys, files, n, make, seed):
        problem = make(make_universe([str(i + 1) for i in range(n)]), seed)
        path = files("p.json", json.loads(serialize_document(problem)))
        self.check_against_class_walk(capsys, problem, path)

    @pytest.mark.parametrize("n, make, seed", [(6, random_problem, 2), (9, sparse_problem, 0)])
    def test_runs_past_the_class_walk_without_a_flag(self, capsys, files, n, make, seed):
        problem = make(make_universe([str(i + 1) for i in range(n)]), seed)
        path = files("p.json", json.loads(serialize_document(problem)))
        expected = _sorted_covers(maximal_solvable_covers(problem))
        assert len(expected) > 1  # 3 and 4 maximal complexes
        text = "".join(cover_text(c) + "\n" for c in expected)
        assert invoke(capsys, "search-sensors", "--input", path) == (0, text, "")

    def test_six_features_need_max_n(self, capsys, files):
        # Six features once needed --max-n 6 to lift the search bound.  They
        # now run under the fixed bound of 9, and --max-n is no option here.
        u = make_universe([str(i + 1) for i in range(6)])
        problem = random_problem(u, 2)
        path = files("p6.json", json.loads(serialize_document(problem)))
        status, out, err = invoke(capsys, "search-sensors", "--input", path)
        assert (status, err) == (0, "")
        found = [make_cover(u, [s.strip("{}").split(",") for s in line.split("|")])
                 for line in out.splitlines()]
        assert len(found) == 3
        assert found == _sorted_covers(found)
        for c in found:
            assert star_closure(c) == c
            assert solvable(problem, c)

        status, out, err = invoke(capsys, "search-sensors", "--input", path, "--max-n", "6")
        assert (status, out) == (2, "")
        assert "unrecognized arguments: --max-n 6" in err

    def test_junction_output_matches_class_walk(self, capsys, junction, junction_doc):
        self.check_against_class_walk(capsys, junction, junction_doc)

    @staticmethod
    def check_against_class_walk(capsys, problem, path):
        expected = _sorted_covers(class_walk_maximal_solvable_covers(problem))
        text = "".join(cover_text(c) + "\n" for c in expected)
        assert invoke(capsys, "search-sensors", "--input", path) == (0, text, "")
        doc = json_text(covers_doc(problem.universe, expected))
        assert invoke(capsys, "search-sensors", "--input", path, "--format", "json") == (0, doc, "")


class TestStipulationCommands:
    def test_compliant(self, capsys, files):
        cov = files("c.json", cover_doc("123", "12", "23"))
        stip = files("s.json", {"sensitive": ["1"]})
        status, out, _ = invoke(capsys, "stipulation", "--input", cov, "--input", stip)
        assert status == 0 and out == "compliant\n"

    def test_non_compliant_exits_one(self, capsys, files):
        cov = files("c.json", cover_doc("123", "1", "23"))
        stip = files("s.json", {"sensitive": ["1"]})
        status, out, _ = invoke(capsys, "stipulation", "--input", cov, "--input", stip)
        assert status == 1 and out == "non-compliant\n"

    def test_class_report_witness(self, capsys, files):
        cov = files("c.json", cover_doc("123", "12", "23"))
        stip = files("s.json", {"sensitive": ["1"]})
        status, out, _ = invoke(capsys, "class-report", "--input", cov, "--input", stip)
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "compliant: 4"
        assert lines[1] == "non-compliant: 4"
        assert lines[2] == "witness compliant: {1,2}|{2,3}"
        assert lines[3].startswith("witness non-compliant: ")

    def test_class_report_json(self, capsys, files):
        cov = files("c.json", cover_doc("123", "12", "23"))
        stip = files("s.json", {"sensitive": ["1"]})
        status, out, _ = invoke(
            capsys, "class-report", "--input", cov, "--input", stip, "--format", "json"
        )
        doc = json.loads(out)
        assert doc["witness"]["compliant"] == [["1", "2"], ["2", "3"]]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "--max-n", "3", "--format", "json"),
            ("classes", "--max-n", "3", "--format", "json"),
            ("partitions", "--max-n", "3", "--format", "dot"),
        ],
    )
    def test_repeated_runs_byte_identical(self, capsys, argv):
        status1, out1, _ = invoke(capsys, *argv)
        status2, out2, _ = invoke(capsys, *argv)
        assert status1 == status2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [
            *[("enumerate", "--max-n", str(n)) for n in range(1, 5)],
            *[("classes", "--max-n", str(n)) for n in range(1, 5)],
            *[("partitions", "--max-n", str(n)) for n in range(1, 6)],
            ("members", "@big"),
            ("class-report", "@big", "@stipulation"),
            ("class", "@big"),
            ("star", "@cover"),
            ("meet", "@labelled", "@cover"),
            ("join", "@labelled", "@singletons"),
            ("compare", "@cover", "@singletons"),
            ("proceeds", "@cover", "@singletons"),
            ("invert", "@gps"),
            ("solve", "@junction", "@pairs"),
            ("policy", "@junction", "@pairs"),
            ("stipulation", "@cover", "@stipulation"),
            ("search-sensors", "@junction"),
            ("hasse", "@covers"),
            ("validate", "@cover", "@junction", "@stipulation", "@gps", "@covers"),
        ],
        ids=lambda argv: "-".join(a.lstrip("@-") for a in argv),
    )
    def test_json_layout_is_json_dumps(self, capsys, files, gps_map, junction_doc, argv):
        # Repeated runs can agree on a drifted layout; json.dumps is the reference.
        inputs = {
            "big": files("big.json", cover_doc("1234", "12", "34", "13", "24")),
            "cover": files("c.json", cover_doc("123", "12", "23")),
            "labelled": files("l.json", labelled_doc("123", ["12", "3"], ["xé", None])),
            "singletons": files("s.json", cover_doc("123", "1", "2", "3")),
            "stipulation": files("st.json", {"sensitive": ["1"], "max_resolution": 1}),
            "pairs": files("p.json", cover_doc("1234", "14", "23")),
            "covers": files(
                "cs.json", {"universe": ["1", "2"], "covers": [[["1", "2"]], [["1"], ["2"]]]}
            ),
            "gps": gps_map,
            "junction": junction_doc,
        }
        full = []
        for arg in argv:
            full += ["--input", inputs[arg[1:]]] if arg.startswith("@") else [arg]
        status, out, err = invoke(capsys, *full, "--format", "json")
        assert status in (0, 1) and err == "", err
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_solve_repeated(self, capsys, files, junction_doc):
        cov = files("pairs.json", cover_doc("1234", "14", "23"))
        runs = {invoke(capsys, "solve", "--input", junction_doc, "--input", cov) for _ in range(3)}
        assert len(runs) == 1


class TestEntryPoints:
    def test_seed_flag_rejected(self, capsys):
        status, out, _ = invoke(capsys, "enumerate", "--max-n", "2", "--seed", "7")
        assert status == 2 and out == ""

    def test_module_invocation(self, tmp_path):
        import os
        import subprocess
        import sys

        import cover_lattice

        # The child imports the package from where this test imported it.
        src = os.path.dirname(os.path.dirname(cover_lattice.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cover_lattice", "enumerate", "--max-n", "3"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout == "109\n"

    def test_console_script_target(self):
        import re
        import subprocess

        import cover_lattice

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = re.search(
            r'^cover-lattice = "([\w.]+):(\w+)"$', pyproject.read_text("utf-8"), re.MULTILINE
        )
        assert target is not None
        module, function = target.groups()
        # What the installed script does: import the target and call it.
        script = (
            f"import sys; from {module} import {function}; "
            f"sys.argv = ['cover-lattice', 'partitions', '--max-n', '4']; {function}()"
        )
        src = os.path.dirname(os.path.dirname(cover_lattice.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "15\n"


# Each guarded CLI path at its bound + 1, with the guard's message.
REFUSALS = {
    "enumerate --max-n 5 --format json": "cover enumeration limited to 4 features (got 5)",
    "classes --max-n 6 --format json": "class enumeration limited to 5 features (got 6)",
    "enumerate --max-n 14": "cover count limited to 13 features (got 14)",
    "classes --max-n 7": "class count limited to 6 features (got 7)",
    "partitions --max-n 11": "partition enumeration limited to 10 features (got 11)",
    "partitions --max-n 11 --format json": "partition enumeration limited to 10 features (got 11)",
    "partitions --max-n 11 --format dot": "partition enumeration limited to 10 features (got 11)",
    "search-sensors": "cover search limited to 9 features (got 10)",
    "hasse --order star": "hasse diagram limited to 32768 distinct covers (got 32769)",
}


class TestBoundPlumbing:
    @pytest.mark.parametrize("command", REFUSALS)
    def test_refused_past_the_bound(self, files, command):
        # Past each bound the run cannot finish in interactive time.  A child
        # with a timeout fails the test instead of hanging the suite.
        argv = tuple(command.split())
        if command == "search-sensors":
            states = [str(i + 1) for i in range(10)]
            problem = files(
                "p10.json",
                {
                    "states": states,
                    "actions": ["a"],
                    "transition": {s: {"a": [s]} for s in states},
                    "initial": ["1"],
                    "goal": ["1"],
                },
            )
            argv = (*argv, "--input", problem)
        elif command.startswith("hasse"):
            # 6-feature class representatives: no two have equal closures.
            u6 = make_universe([str(i + 1) for i in range(6)])
            reps = list(islice(iter_antichain_covers(u6), 32769))
            argv = (*argv, "--input", files("reps.json", covers_doc(u6, reps)))
        status, out, err = run_module(*argv, timeout=10)
        assert (status, out) == (1, b"")
        assert err == f"error: {REFUSALS[command]}\n".encode()

    def test_search_sensors_bound(self, capsys, files):
        # The table refuses a 10-state problem; 9 states is the bound itself
        # and runs.  Initial is goal, so every nonempty subset is one face.
        states = [str(i + 1) for i in range(9)]
        problem = files(
            "p9.json",
            {
                "states": states,
                "actions": ["a"],
                "transition": {s: {"a": [s]} for s in states},
                "initial": ["1"],
                "goal": ["1"],
            },
        )
        status, out, err = invoke(capsys, "search-sensors", "--input", problem)
        assert (status, err) == (0, "")
        assert out.count("\n") == 1
        assert out.count("|") == 2**9 - 2

    def test_huge_max_n_builds_no_universe(self):
        # Five million labels would take seconds and hundreds of MB; the guard
        # runs on N before any label is built.
        status, out, err = run_module("enumerate", "--max-n", "5000000", timeout=2)
        assert (status, out) == (1, b"")
        assert err == b"error: cover count limited to 13 features (got 5000000)\n"

    @pytest.mark.parametrize("name", ["enumerate", "classes", "partitions"])
    def test_max_n_with_universe_input_is_usage_error(self, capsys, files, name):
        upath = files("u.json", {"universe": ["a", "b"]})
        status, out, err = invoke(capsys, name, "--input", upath, "--max-n", "2")
        assert (status, out) == (2, "")
        assert err == "error: give a universe input or --max-n N, not both\n"

    def test_partitions_dot_max_n_flows_through(self, capsys, files):
        # --max-n sizes the universe of the drawing, as a universe input does
        status, by_size, _ = invoke(capsys, "partitions", "--max-n", "6", "--format", "dot")
        assert status == 0
        assert by_size.count(";") == 1 + 203 + 856  # rankdir, Bell(6) nodes, reduction edges
        upath = files("u6.json", {"universe": [str(i + 1) for i in range(6)]})
        assert invoke(capsys, "partitions", "--input", upath, "--format", "dot") == (0, by_size, "")

    def test_classes_default_bound_is_five(self, capsys, files):
        upath = files("u5.json", {"universe": [str(i) for i in range(5)]})
        status, out, _ = invoke(capsys, "classes", "--input", upath)
        assert status == 0 and out == "6894\n"


COMMAND_NAMES = [
    "validate", "invert", "compare", "meet", "join", "star", "class",
    "members", "proceeds", "enumerate", "classes", "partitions",
    "hasse", "solve", "policy", "search-sensors", "stipulation",
    "class-report",
]

# The flags beyond --input, --format text|json and --out that some subcommands
# read, and the subcommands that read each.
EXTRA_FLAGS = {
    "order": (["--order", "star"], {"hasse"}),
    "max-n": (["--max-n", "4"], {"enumerate", "classes", "partitions"}),
    "dot": (["--format", "dot"], {"hasse", "partitions"}),
}


@pytest.fixture()
def valid_argv(files, gps_map, junction_doc):
    """An invocation of each subcommand that exits 0."""
    cov = files("c.json", cover_doc("1234", "14", "23"))
    other = files("o.json", cover_doc("1234", "1234", "14"))
    universe = files("u.json", {"universe": ["1", "2", "3"]})
    chain = files(
        "chain.json", {"universe": ["1", "2"], "covers": [[["1", "2"]], [["1"], ["1", "2"]]]}
    )
    stip = files("s.json", {"sensitive": ["1"]})
    inputs = {
        "validate": [cov], "invert": [gps_map], "compare": [cov, other], "meet": [cov, other],
        "join": [cov, other], "star": [cov], "class": [cov], "members": [cov],
        "proceeds": [cov, other], "enumerate": [universe], "classes": [universe],
        "partitions": [universe], "hasse": [chain], "solve": [junction_doc, cov],
        "policy": [junction_doc, cov], "search-sensors": [junction_doc],
        "stipulation": [other, stip], "class-report": [cov, stip],
    }
    return {
        name: [name, *(arg for path in paths for arg in ("--input", path))]
        for name, paths in inputs.items()
    }


class TestFlags:
    """A subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize(
        "name, flag",
        [(n, f) for n in COMMAND_NAMES for f, (_, reads) in EXTRA_FLAGS.items() if n not in reads],
    )
    def test_unread_flag_is_usage_error(self, capsys, valid_argv, name, flag):
        argv = valid_argv[name]
        assert invoke(capsys, *argv)[0] == 0
        status, out, err = invoke(capsys, *argv, *EXTRA_FLAGS[flag][0])
        assert status == 2 and out == ""
        assert err.startswith("usage: cover-lattice")

    def test_order_choices(self):
        from cover_lattice.cli import FLAGS
        from cover_lattice.enumeration import ORDERS

        assert FLAGS["--order"]["choices"] == sorted(ORDERS)


class TestHelpWiring:
    @pytest.mark.parametrize("name", COMMAND_NAMES)
    def test_subcommand_help(self, capsys, name):
        status, out, _ = invoke(capsys, name, "--help")
        assert status == 0
        assert "--input" in out and "--format" in out
