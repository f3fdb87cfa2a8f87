"""CLI and artifact-bundle tests."""

import json
import os

import pytest

from repro.artifacts import load_artifacts, save_artifacts
from repro.cli import main
from repro.compiler import compile_p4r
from repro.errors import CompileError
from repro.switch.asic import STANDARD_METADATA_P4

P4R_SOURCE = STANDARD_METADATA_P4 + """
header_type h_t { fields { f : 32; } }
header h_t hdr;
register r { width : 32; instance_count : 4; }
malleable value knob { width : 16; init : 3; }
action bump() { add_to_field(hdr.f, ${knob}); }
table t { actions { bump; } default_action : bump(); }
control ingress { apply(t); }
reaction tune(reg r[0:3]) {
    ${knob} = r[0];
}
"""


@pytest.fixture
def p4r_file(tmp_path):
    path = tmp_path / "prog.p4r"
    path.write_text(P4R_SOURCE)
    return str(path)


class TestArtifacts:
    def test_save_and_load_roundtrip(self, tmp_path):
        artifacts = compile_p4r(P4R_SOURCE)
        paths = save_artifacts(
            artifacts, str(tmp_path), "prog", p4r_source=P4R_SOURCE
        )
        assert os.path.exists(paths["p4"])
        assert os.path.exists(paths["spec"])
        with open(paths["spec"]) as handle:
            spec_json = json.load(handle)
        assert "init_tables" in spec_json
        reloaded = load_artifacts(str(tmp_path), "prog")
        assert reloaded.p4_source == artifacts.p4_source

    def test_load_without_p4r_fails(self, tmp_path):
        artifacts = compile_p4r(P4R_SOURCE)
        save_artifacts(artifacts, str(tmp_path), "prog")
        with pytest.raises(CompileError):
            load_artifacts(str(tmp_path), "prog")

    def test_load_detects_stale_p4(self, tmp_path):
        artifacts = compile_p4r(P4R_SOURCE)
        paths = save_artifacts(
            artifacts, str(tmp_path), "prog", p4r_source=P4R_SOURCE
        )
        with open(paths["p4"], "a") as handle:
            handle.write("// tampered\n")
        with pytest.raises(CompileError):
            load_artifacts(str(tmp_path), "prog")


class TestCli:
    def test_compile_command(self, p4r_file, tmp_path, capsys):
        out_dir = str(tmp_path / "build")
        code = main(["compile", p4r_file, "-o", out_dir, "--name", "demo"])
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "demo.p4"))
        assert os.path.exists(os.path.join(out_dir, "demo.spec.json"))
        assert "wrote" in capsys.readouterr().out

    def test_inspect_command(self, p4r_file, capsys):
        code = main(["inspect", p4r_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "value knob" in out
        assert "p4r_init_" in out
        assert "mirror r" in out
        assert "tune(" in out
        assert "stages=" in out

    def test_run_command(self, p4r_file, capsys):
        code = main(["run", p4r_file, "--duration", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dialogue iterations" in out
        assert "avg reaction time" in out
        assert "phase split" in out
        assert "poll=" in out

    def test_run_fabric_command(self, tmp_path, capsys):
        path = tmp_path / "fabric.json"
        code = main(["run-fabric", "--duration", "300", "--json", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["rerouted"]
        assert "rerouted          : s0 @" in capsys.readouterr().out

    def test_error_reporting(self, tmp_path, capsys):
        bad = tmp_path / "bad.p4r"
        bad.write_text("gizmo !")
        code = main(["inspect", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = main(["compile", "/nonexistent.p4r"])
        assert code == 1

    def test_load_field_option(self, tmp_path, capsys):
        source = STANDARD_METADATA_P4 + """
header_type h_t { fields { a : 16; b : 16; c : 16; } }
header h_t hdr;
malleable field m { width : 16; init : hdr.a; alts { hdr.a, hdr.b } }
action use() { modify_field(hdr.c, ${m}); }
table t { actions { use; } default_action : use(); }
control ingress { apply(t); }
"""
        path = tmp_path / "lf.p4r"
        path.write_text(source)
        code = main(["inspect", str(path), "--load-field", "m"])
        assert code == 0
        assert "strategy=load" in capsys.readouterr().out
