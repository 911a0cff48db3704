"""Command-line interface."""

import pytest

from repro.circuit import bench_io, generators
from repro.cli import main


def test_suite_listing(capsys):
    assert main(["suite", "--scale", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "c17" in out
    assert "r6288" in out


def test_suite_subset_and_unknown(capsys):
    assert main(["suite", "--circuits", "c17"]) == 0
    out = capsys.readouterr().out
    assert "r432" not in out
    with pytest.raises(SystemExit):
        main(["suite", "--circuits", "nope"])


def test_inject_and_diagnose_roundtrip(tmp_path, capsys):
    spec_path = tmp_path / "spec.bench"
    impl_path = tmp_path / "impl.bench"
    bench_io.dump(generators.c17(), spec_path)
    assert main(["inject", str(spec_path), str(impl_path),
                 "--faults", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "injected sa" in out
    assert impl_path.exists()
    rc = main(["diagnose", str(spec_path), str(impl_path),
               "--mode", "stuck-at", "--vectors", "512",
               "--max-errors", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "correction set" in out


def test_inject_errors_mode(tmp_path, capsys):
    spec_path = tmp_path / "spec.bench"
    impl_path = tmp_path / "impl.bench"
    bench_io.dump(generators.alu(4), spec_path)
    assert main(["inject", str(spec_path), str(impl_path),
                 "--errors", "2", "--seed", "1"]) == 0
    rc = main(["diagnose", str(spec_path), str(impl_path),
               "--mode", "design-error", "--vectors", "512",
               "--max-errors", "3", "--time-budget", "60"])
    assert rc in (0, 1)  # found or honestly reported not-found


def test_table1_tiny(capsys):
    assert main(["table1", "--circuits", "c17", "--faults", "1",
                 "--trials", "1", "--vectors", "128",
                 "--time-budget", "15"]) == 0
    out = capsys.readouterr().out
    assert "Stuck-At" in out


def test_table2_tiny(capsys):
    assert main(["table2", "--circuits", "c17", "--errors", "1",
                 "--trials", "1", "--vectors", "128",
                 "--time-budget", "15"]) == 0
    out = capsys.readouterr().out
    assert "Design Errors" in out


def test_ablation_tiny(capsys):
    assert main(["ablation", "--circuits", "c17", "--num-errors", "1",
                 "--trials", "1", "--vectors", "128",
                 "--time-budget", "10"]) == 0
    out = capsys.readouterr().out
    assert "variant" in out


def test_convert_roundtrip(tmp_path, capsys):
    bench_path = tmp_path / "rca.bench"
    v_path = tmp_path / "rca.v"
    back_path = tmp_path / "back.bench"
    bench_io.dump(generators.ripple_carry_adder(3), bench_path)
    assert main(["convert", str(bench_path), str(v_path)]) == 0
    assert main(["convert", str(v_path), str(back_path)]) == 0
    from repro.sim import PatternSet, equivalent, output_rows, simulate
    a = bench_io.load(bench_path)
    b = bench_io.load(back_path)
    patterns = PatternSet.exhaustive(7)
    assert equivalent(output_rows(a, simulate(a, patterns)),
                      output_rows(b, simulate(b, patterns)),
                      patterns.nbits)


def test_vcd_command(tmp_path, capsys):
    bench_path = tmp_path / "c17.bench"
    vcd_path = tmp_path / "c17.vcd"
    bench_io.dump(generators.c17(), bench_path)
    assert main(["vcd", str(bench_path), str(vcd_path),
                 "--vectors", "16"]) == 0
    assert "$enddefinitions" in vcd_path.read_text()


def test_lint_clean_circuit(tmp_path, capsys):
    path = tmp_path / "c17.bench"
    bench_io.dump(generators.c17(), path)
    assert main(["lint", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_lint_warnings_and_strict(tmp_path, capsys):
    path = tmp_path / "dead.bench"
    path.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
                    "y = NAND(a, b)\nd1 = NOT(a)\nd2 = AND(d1, b)\n")
    assert main(["lint", str(path)]) == 0
    out = capsys.readouterr().out
    assert "dead-gate" in out and "fanout-free" in out
    assert main(["lint", "--strict", str(path)]) == 1
    assert main(["lint", "--strict", "--suppress",
                 "dead-gate,fanout-free", str(path)]) == 0


def test_lint_unparsable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.bench"
    path.write_text("INPUT(x)\nOUTPUT(p)\np = AND(x, q)\nq = NOT(p)\n")
    assert main(["lint", str(path)]) == 2
    assert "cycle" in capsys.readouterr().err


def test_lint_json_format(tmp_path, capsys):
    import json as json_mod
    path = tmp_path / "c17.bench"
    bench_io.dump(generators.c17(), path)
    assert main(["lint", "--format", "json", str(path)]) == 0
    data = json_mod.loads(capsys.readouterr().out)
    assert data[0]["netlist"] == "c17"
    assert data[0]["counts"]["error"] == 0


PLANTED_BENCH = ("INPUT(a)\nINPUT(b)\nOUTPUT(o1)\nOUTPUT(o2)\n"
                 "na = NOT(a)\nk = AND(a, na)\n"
                 "g1 = AND(a, b)\ng2 = AND(b, a)\n"
                 "o1 = OR(k, g1)\no2 = XOR(g2, na)\n")


def test_lint_deep_flags_planted_defects(tmp_path, capsys):
    path = tmp_path / "planted.bench"
    path.write_text(PLANTED_BENCH)
    assert main(["lint", str(path)]) == 0
    shallow = capsys.readouterr().out
    assert "const-line" not in shallow and "duplicate-logic" not in shallow
    assert main(["lint", "--deep", str(path)]) == 0
    out = capsys.readouterr().out
    assert "const-line" in out and "duplicate-logic" in out


def test_lint_json_deterministic(tmp_path, capsys):
    path = tmp_path / "planted.bench"
    path.write_text(PLANTED_BENCH)
    runs = []
    for _ in range(2):
        assert main(["lint", "--deep", "--format", "json",
                     str(path)]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    import json as json_mod
    data = json_mod.loads(runs[0])
    assert data[0]["netlist"] == "planted"
    rules = [d["rule"] for d in data[0]["diagnostics"]]
    assert rules == sorted(rules)
    assert all("severity" in d for d in data[0]["diagnostics"])


def test_facts_command_text_and_json(tmp_path, capsys):
    import json as json_mod
    path = tmp_path / "planted.bench"
    path.write_text(PLANTED_BENCH)
    assert main(["facts", str(path)]) == 0
    text = capsys.readouterr().out
    assert "implied constants" in text and "k=0" in text
    assert "duplicate logic" in text
    assert main(["facts", "--format", "json", str(path)]) == 0
    data = json_mod.loads(capsys.readouterr().out)
    assert data[0]["netlist"] == "planted"
    assert data[0]["implied_constants"] == {"k": 0}
    assert any({"g1", "g2"} <= set(group)
               for group in data[0]["duplicate_groups"])
    assert "implications" in data[0]


def test_facts_no_deep_and_bad_file(tmp_path, capsys):
    import json as json_mod
    good = tmp_path / "planted.bench"
    good.write_text(PLANTED_BENCH)
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(x)\nOUTPUT(p)\np = AND(x, q)\n")
    assert main(["facts", "--no-deep", "--format", "json",
                 str(good)]) == 0
    data = json_mod.loads(capsys.readouterr().out)
    assert "implications" not in data[0]
    assert data[0]["implied_constants"] == {}
    assert main(["facts", str(bad), str(good)]) == 2
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert "planted" in captured.out  # good files still reported


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "comb-loop" in out and "unobservable-line" in out


def test_diagnose_with_invariant_checks(tmp_path, capsys):
    spec_path = tmp_path / "spec.bench"
    impl_path = tmp_path / "impl.bench"
    bench_io.dump(generators.c17(), spec_path)
    assert main(["inject", str(spec_path), str(impl_path),
                 "--faults", "1", "--seed", "3"]) == 0
    capsys.readouterr()
    rc = main(["diagnose", str(spec_path), str(impl_path),
               "--vectors", "256", "--max-errors", "1",
               "--check-invariants"])
    assert rc == 0


def _dump_twin_netlists(tmp_path):
    """AND(a,b) in two shapes plus an OR imposter, on disk."""
    from repro.circuit import GateType, Netlist
    plain = Netlist("plain")
    a = plain.add_input("a")
    b = plain.add_input("b")
    o = plain.add_gate("o", GateType.AND, [a, b])
    plain.set_outputs([o])
    morgan = Netlist("morgan")
    a2 = morgan.add_input("a")
    b2 = morgan.add_input("b")
    na = morgan.add_gate("na", GateType.NOT, [a2])
    nb = morgan.add_gate("nb", GateType.NOT, [b2])
    o2 = morgan.add_gate("o", GateType.NOR, [na, nb])
    morgan.set_outputs([o2])
    imposter = Netlist("imposter")
    a3 = imposter.add_input("a")
    b3 = imposter.add_input("b")
    o3 = imposter.add_gate("o", GateType.OR, [a3, b3])
    imposter.set_outputs([o3])
    paths = []
    for nl in (plain, morgan, imposter):
        path = tmp_path / f"{nl.name}.bench"
        bench_io.dump(nl, path)
        paths.append(str(path))
    return paths


def test_prove_equivalent_exits_zero(tmp_path, capsys):
    plain, morgan, _ = _dump_twin_netlists(tmp_path)
    assert main(["prove", plain, morgan]) == 0
    assert "proven equivalent" in capsys.readouterr().out


def test_prove_different_prints_vector(tmp_path, capsys):
    plain, _, imposter = _dump_twin_netlists(tmp_path)
    assert main(["prove", plain, imposter]) == 1
    out = capsys.readouterr().out
    assert "distinguishing vector" in out
    assert "a=" in out and "b=" in out


def test_prove_unreadable_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(broken\n")
    plain, _, _ = _dump_twin_netlists(tmp_path)
    assert main(["prove", plain, str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_prove_applied_correction_roundtrip(tmp_path, capsys):
    """The before/after-correction use case from the issue: a netlist
    and a copy with a correction applied at an equivalent point."""
    from repro.circuit import GateType, Netlist
    n = Netlist("plant")
    x = n.add_input("x")
    y = n.add_input("y")
    n1 = n.add_gate("n1", GateType.AND, [x, y])
    n2 = n.add_gate("n2", GateType.BUF, [n1])
    n.set_outputs([n2])
    stem = n.copy("stem_fix")
    stem.tie_stem_to_constant(stem.index_of("n1"), 0)
    branch = n.copy("branch_fix")
    branch.tie_stem_to_constant(branch.index_of("n2"), 0)
    p1 = tmp_path / "stem.bench"
    p2 = tmp_path / "branch.bench"
    bench_io.dump(stem, p1)
    bench_io.dump(branch, p2)
    assert main(["prove", str(p1), str(p2)]) == 0
    capsys.readouterr()


def test_lint_prove_json_carries_stats(tmp_path, capsys):
    import json as _json
    from repro.circuit import GateType, Netlist
    n = Netlist("dup")
    a = n.add_input("a")
    b = n.add_input("b")
    x = n.add_gate("x", GateType.XOR, [a, b])
    na = n.add_gate("na", GateType.NOT, [a])
    nb = n.add_gate("nb", GateType.NOT, [b])
    t1 = n.add_gate("t1", GateType.AND, [a, nb])
    t2 = n.add_gate("t2", GateType.AND, [na, b])
    y = n.add_gate("y", GateType.OR, [t1, t2])
    n.set_outputs([x, y])
    path = tmp_path / "dup.bench"
    bench_io.dump(n, path)
    assert main(["lint", "--prove", "--format", "json",
                 str(path)]) == 0
    payload = _json.loads(capsys.readouterr().out)
    report = payload[0]
    stats = report["prove_stats"]
    assert stats["proven"] >= 1
    assert "solver" in stats
    rules = {d["rule"] for d in report["diagnostics"]}
    assert "proven-duplicate-logic" in rules


def test_lint_list_rules_includes_prove_group(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "proven-const-line" in out
    assert "proven-duplicate-logic" in out
    assert "proven-redundant-fanin" in out


def test_diagnose_prove_dedup_flag(tmp_path, capsys):
    spec_path = tmp_path / "spec.bench"
    impl_path = tmp_path / "impl.bench"
    bench_io.dump(generators.c17(), spec_path)
    assert main(["inject", str(spec_path), str(impl_path),
                 "--faults", "1", "--seed", "3"]) == 0
    capsys.readouterr()
    rc = main(["diagnose", str(spec_path), str(impl_path),
               "--mode", "stuck-at", "--vectors", "64",
               "--max-errors", "1", "--prove-dedup"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "correction set" in out


def test_facts_stats_counters(tmp_path, capsys):
    import json as _json
    path = tmp_path / "c.bench"
    bench_io.dump(generators.c17(), path)
    assert main(["facts", "--stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "facts cache:" in out
    assert "recomputed" in out
    assert main(["facts", "--stats", "--format", "json",
                 str(path)]) == 0
    payload = _json.loads(capsys.readouterr().out)
    cache = payload["facts_cache"]
    assert cache["facts_recomputed"] >= 1
    assert set(cache) == {"facts_reused", "facts_recomputed",
                          "delta_edits"}
    # without --stats the JSON shape stays the plain digest list
    assert main(["facts", "--format", "json", str(path)]) == 0
    assert isinstance(_json.loads(capsys.readouterr().out), list)


def test_diagnose_json_reports_search_counters(tmp_path, capsys):
    import json as _json
    spec_path = tmp_path / "spec.bench"
    impl_path = tmp_path / "impl.bench"
    bench_io.dump(generators.ripple_carry_adder(4), spec_path)
    assert main(["inject", str(spec_path), str(impl_path),
                 "--faults", "2", "--seed", "3"]) == 0
    capsys.readouterr()
    rc = main(["diagnose", str(spec_path), str(impl_path),
               "--mode", "stuck-at", "--vectors", "512",
               "--max-errors", "2", "--format", "json"])
    payload = _json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["found"]
    stats = payload["stats"]
    assert stats["nodes"] > 0
    assert not {"facts_reused", "facts_recomputed",
                "delta_edits"} & set(stats)
    assert payload["solutions"][0]["corrections"]
    # the combinational search has no facts-warming switch
    with pytest.raises(SystemExit):
        main(["diagnose", str(spec_path), str(impl_path),
              "--no-incremental-facts"])


