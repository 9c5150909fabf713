import pytest

import sparsebn.builder
import sparsebn.cli
from sparsebn import RandomDagSpec, random_dag
from sparsebn.cli import main, model_text, parse_model_text

from conftest import arc_names, make_dag, with_forward_arc

COMMON_CAUSE_MODEL = """\
# process temperature with two sensors
node T
node T1
node T2
arc T T1
arc T T2
"""

FULL_EXPERT = """\
hypothesis T
evidence T1
evidence T2
cause T T1
cause T T2
"""


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(COMMON_CAUSE_MODEL)
    return str(path)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------- model files


def test_model_file_round_trip():
    dag = parse_model_text(COMMON_CAUSE_MODEL)
    assert parse_model_text(model_text(dag)) == dag


def test_model_round_trip_for_generated_networks():
    dag = make_dag("A B C D", [("A", "C"), ("B", "C"), ("C", "D")])
    assert parse_model_text(model_text(dag)) == dag


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("node A\nnode A\n", ":2"),
        ("node A\narc A B\n", ":2"),
        ("node A\nnode B\narc A B\narc B A\n", ":4"),
        ("nodes A\n", ":1"),
        ("node A-b\n", ":1"),
    ],
)
def test_model_file_errors_name_line(text, fragment):
    with pytest.raises(ValueError) as exc:
        parse_model_text(text, source="m.txt")
    assert f"m.txt{fragment}" in str(exc.value)


# ------------------------------------------------------------------- build


def test_build_command_writes_network_and_reports(tmp_path, model_path, capsys):
    expert = _write(tmp_path, "expert.txt", FULL_EXPERT)
    out = str(tmp_path / "built.txt")
    assert main(["build", model_path, expert, out]) == 0
    report = capsys.readouterr().out
    assert "insertion order: T, T1, T2" in report
    assert "oracle calls:" in report
    assert "warnings: none" in report
    built = parse_model_text(open(out).read())
    assert arc_names(built) == {("T", "T1"), ("T", "T2")}


def test_build_command_contradiction_exits_1(tmp_path, model_path, capsys):
    expert = _write(tmp_path, "expert.txt", "cause T T1\ncause T1 T\n")
    out = str(tmp_path / "built.txt")
    assert main(["build", model_path, expert, out]) == 1
    assert "cause_cycle" in capsys.readouterr().out


def test_build_command_missing_model_exits_2(tmp_path, capsys):
    expert = _write(tmp_path, "expert.txt", "")
    code = main(["build", str(tmp_path / "nope.txt"), expert, str(tmp_path / "o")])
    assert code == 2


def test_build_command_expert_parse_error_exits_2(tmp_path, model_path, capsys):
    expert = _write(tmp_path, "expert.txt", "cause T\n")
    assert main(["build", model_path, expert, str(tmp_path / "o")]) == 2
    assert "expert.txt:1" in capsys.readouterr().err


def test_build_command_warning_listed(tmp_path, model_path, capsys):
    expert = _write(tmp_path, "expert.txt", "cause T1 T2\n")
    out = str(tmp_path / "built.txt")
    assert main(["build", model_path, expert, out]) == 0
    report = capsys.readouterr().out
    assert "missing_declared_cause" in report


# -------------------------------------------------------------------- dsep


def test_dsep_command_separated(model_path, capsys):
    assert main(["dsep", model_path, "T1", "T2", "--given", "T"]) == 0
    assert capsys.readouterr().out.strip() == "d-separated"


def test_dsep_command_connected(model_path, capsys):
    assert main(["dsep", model_path, "T1", "T2"]) == 0
    assert capsys.readouterr().out.strip() == "not d-separated"


def test_dsep_command_overlap_exits_2(model_path, capsys):
    assert main(["dsep", model_path, "T1", "T1"]) == 2
    assert "error" in capsys.readouterr().err


def test_dsep_command_unknown_name_exits_2(model_path, capsys):
    assert main(["dsep", model_path, "T1", "T9"]) == 2


# -------------------------------------------------------------- experiment


def test_experiment_command_on_model_file(tmp_path, model_path, capsys):
    out = str(tmp_path / "run.csv")
    assert main(["experiment", model_path, "--trials", "1", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("trial,expert_arcs")
    assert len(lines) == 1 + 3  # header + levels 2,1,0
    summary = capsys.readouterr().out
    assert "endpoint-identity=ok" in summary


def test_experiment_command_random_spec(tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    code = main(
        ["experiment", "--random", "8,9,3", "--trials", "2", "--seed", "5", "--out", out]
    )
    assert code == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 1 + 2 * 10


def test_experiment_command_infeasible_random_exits_2(tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    assert main(["experiment", "--random", "4,7,1", "--out", out]) == 2


def test_experiment_command_needs_exactly_one_source(tmp_path, model_path):
    out = str(tmp_path / "run.csv")
    assert main(["experiment", "--out", out]) == 2
    assert main(["experiment", model_path, "--random", "3,2,1", "--out", out]) == 2


# ------------------------------------------------------------------ verify


def test_verify_minimal_imap_exits_0(tmp_path, model_path, capsys):
    # the fully connected reversed-order network is still a minimal I-map
    candidate = _write(
        tmp_path,
        "candidate.txt",
        "node T\nnode T1\nnode T2\narc T2 T1\narc T2 T\narc T1 T\n",
    )
    assert main(["verify", model_path, candidate]) == 0
    out = capsys.readouterr().out
    assert "I-map: yes" in out
    assert "minimal I-map: yes" in out


def test_verify_non_minimal_exits_1(tmp_path, model_path, capsys):
    candidate = _write(
        tmp_path,
        "candidate.txt",
        COMMON_CAUSE_MODEL + "arc T1 T2\n",
    )
    assert main(["verify", model_path, candidate]) == 1
    out = capsys.readouterr().out
    assert "I-map: yes" in out
    assert "minimal I-map: no" in out


def test_verify_checks_imap_once(monkeypatch, tmp_path, model_path, capsys):
    real, calls = sparsebn.builder.is_imap, []

    def counted(network, model):
        calls.append(network)
        return real(network, model)

    monkeypatch.setattr(sparsebn.builder, "is_imap", counted)
    monkeypatch.setattr(sparsebn.cli, "is_imap", counted)
    assert main(["verify", model_path, model_path]) == 0
    assert capsys.readouterr().out == "I-map: yes\nminimal I-map: yes\n"
    # is_minimal_imap checks the I-map half itself; a yes needs no is_imap
    assert len(calls) == 0

    # a no does: an I-map with one spurious arc is told apart from a non-I-map
    padded = with_forward_arc(parse_model_text(COMMON_CAUSE_MODEL))
    candidate = _write(tmp_path, "padded.txt", model_text(padded))
    assert main(["verify", model_path, candidate]) == 1
    assert capsys.readouterr().out == "I-map: yes\nminimal I-map: no\n"
    assert len(calls) == 1


def test_verify_node_set_mismatch_exits_2(tmp_path, model_path, capsys):
    candidate = _write(tmp_path, "candidate.txt", "node T\nnode T1\n")
    assert main(["verify", model_path, candidate]) == 2


def test_verify_at_paper_scale(tmp_path, capsys):
    truth = random_dag(RandomDagSpec(26, 36, seed=9000))
    model = _write(tmp_path, "model.txt", model_text(truth))
    assert main(["verify", model, model]) == 0
    assert "minimal I-map: yes" in capsys.readouterr().out

    # one spurious arc along a topological order keeps an I-map, not a minimal one
    candidate = _write(tmp_path, "padded.txt", model_text(with_forward_arc(truth)))
    assert main(["verify", model, candidate]) == 1
    out = capsys.readouterr().out
    assert "I-map: yes" in out
    assert "minimal I-map: no" in out


def test_verify_aligns_candidate_declared_in_different_order(tmp_path, model_path):
    candidate = _write(
        tmp_path,
        "candidate.txt",
        "node T2\nnode T\nnode T1\narc T T1\narc T T2\n",
    )
    assert main(["verify", model_path, candidate]) == 0


# ---------------------------------------------------------------- flag paths


def test_build_command_flags(tmp_path, model_path, capsys):
    expert = _write(tmp_path, "expert.txt", "cause T1 T\n")
    out = str(tmp_path / "built.txt")
    code = main(
        ["build", model_path, expert, out, "--trust-expert", "--no-cache",
         "--max-parents", "2"]
    )
    assert code == 0
    report = capsys.readouterr().out
    # trusting the bogus cause forces the arc T1 -> T into the network
    built = parse_model_text(open(out).read())
    assert ("T1", "T") in arc_names(built)
    assert "insertion order:" in report


def test_build_command_rejects_bad_max_parents(tmp_path, model_path, capsys):
    expert = _write(tmp_path, "expert.txt", "")
    out = str(tmp_path / "built.txt")
    assert main(["build", model_path, expert, out, "--max-parents", "0"]) == 2


def test_build_command_indep_statement_conflict_warns(tmp_path, model_path, capsys):
    # declaring the sensors independent of the cause contradicts the model;
    # the build completes and the report carries the conflict
    expert = _write(tmp_path, "expert.txt", "indep T1 | | T\n")
    out = str(tmp_path / "built.txt")
    assert main(["build", model_path, expert, out]) == 0
    report = capsys.readouterr().out
    assert "overlay_conflict" in report


def test_build_command_malformed_indep_exits_2(tmp_path, model_path, capsys):
    expert = _write(tmp_path, "expert.txt", "indep T1 | T1 | T2\n")
    out = tmp_path / "built.txt"
    assert main(["build", model_path, expert, str(out)]) == 2
    assert "pairwise disjoint" in capsys.readouterr().err
    assert not out.exists()


def test_single_node_model_builds(tmp_path, capsys):
    model = _write(tmp_path, "one.txt", "node X\n")
    expert = _write(tmp_path, "expert.txt", "")
    out = str(tmp_path / "built.txt")
    assert main(["build", model, expert, out]) == 0
    report = capsys.readouterr().out
    assert "oracle calls: 0" in report
    assert parse_model_text(open(out).read()).node_count == 1


# ------------------------------------------------------------- determinism


def test_reports_identical_across_hash_seeds(tmp_path):
    # everything observable must be independent of set/dict iteration order
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sparsebn

    # the children import the same sparsebn as this process, wherever it lives
    import_root = str(Path(sparsebn.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = import_root + (os.pathsep + inherited if inherited else "")

    model = _write(
        tmp_path,
        "model.txt",
        "node A\nnode B\nnode C\nnode D\nnode E\n"
        "arc A B\narc A C\narc B D\narc C D\narc D E\n",
    )
    expert = _write(tmp_path, "expert.txt", "hypothesis A\nevidence E\ncause B D\n")

    outputs = []
    for hash_seed in ("0", "1", "413"):
        out = tmp_path / f"net_{hash_seed}.txt"
        csv = tmp_path / f"run_{hash_seed}.csv"
        build_proc = subprocess.run(
            [sys.executable, "-m", "sparsebn.cli", "build", model, expert, str(out)],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": hash_seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": pythonpath,
            },
        )
        assert build_proc.returncode == 0, build_proc.stderr
        exp_proc = subprocess.run(
            [
                sys.executable, "-m", "sparsebn.cli", "experiment", model,
                "--trials", "2", "--seed", "5", "--out", str(csv),
            ],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": hash_seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": pythonpath,
            },
        )
        assert exp_proc.returncode == 0, exp_proc.stderr
        csv_rows = [
            ",".join(line.split(",")[:5])  # elapsed_ms varies, drop it
            for line in csv.read_text().splitlines()
        ]
        outputs.append((build_proc.stdout, out.read_text(), csv_rows))
    assert outputs[0] == outputs[1] == outputs[2]
