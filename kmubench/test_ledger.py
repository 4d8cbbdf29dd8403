"""Self-tests of the benchmark's span recorder, parsers and oracles.

    python3 -m unittest discover -s kmubench -p 'test_*.py'
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import ledger  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_span_minus_child_coverage(self):
        spans = [
            ["core.run", -1, 0, 100],
            ["sim.kernel", 0, 10, 40],
            ["sim.kernel", 0, 30, 60],   # overlaps the first child
            ["mem.x", 0, 90, 130],       # runs past its parent's end
            ["sim.inner", 1, 15, 20],
        ]
        got = dict(enumerate(ns for _, ns in ledger.self_times(spans)))
        self.assertEqual(got[0], 100 - (60 - 10) - (100 - 90))
        self.assertEqual(got[1], 30 - 5)
        self.assertEqual(got[2], 30)
        self.assertEqual(got[4], 5)

    def test_layer_totals(self):
        spans = [["core.run", -1, 0, 2_000_000],
                 ["sim.kernel", 0, 0, 1_500_000]]
        self.assertEqual(ledger.layer_self_ms(spans),
                         {"core": 0.5, "sim": 1.5})

    def test_recorder_nests_and_merges(self):
        rec = ledger.Recorder(on=True)
        with rec.span("bench.pass"):
            with rec.span("core.build"):
                pass
            rec.extend([["core.run", -1, 5, 9], ["sim.kernel", 0, 5, 7]])
        names = [s[0] for s in rec.spans]
        parents = [s[1] for s in rec.spans]
        self.assertEqual(names, ["bench.pass", "core.build", "core.run",
                                 "sim.kernel"])
        self.assertEqual(parents, [-1, 0, 0, 2])

    def test_recorder_off_records_nothing(self):
        rec = ledger.Recorder(on=False)
        with rec.span("core.run"):
            pass
        self.assertEqual(rec.spans, [])


class NameTest(unittest.TestCase):
    def test_benchmark_json_names(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(ledger.valid_name(name), name)

    def test_rejects_bad_names(self):
        for bad in ["", ".x", "a b", "a/b", "x" * 65, "é"]:
            self.assertFalse(ledger.valid_name(bad), bad)


class OracleTest(unittest.TestCase):
    ROWS = ["fig03 iterations=1 work_ipc=0.5",
            "open_loop iterations=2 serve_p99_ns=3"]

    def write(self, text):
        f = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False)
        f.write(text)
        f.close()
        self.addCleanup(Path(f.name).unlink)
        return f.name

    def test_matching_rows_pass(self):
        expected = ledger.load_rows(self.write("\n".join(self.ROWS) + "\n"))
        self.assertEqual(ledger.check_rows([self.ROWS], expected), (2, 0))

    def test_changed_digit_fails(self):
        expected = ledger.load_rows(self.write("\n".join(self.ROWS) + "\n"))
        rows = ["fig03 iterations=1 work_ipc=0.50000001", self.ROWS[1]]
        self.assertEqual(ledger.check_rows([rows], expected), (2, 1))

    def test_corrupted_expected_file_fails_every_row(self):
        for text in ["fig03 garbage\n", "\x00\x01\x02", ""]:
            expected = ledger.load_rows(self.write(text))
            attempted, failed = ledger.check_rows([self.ROWS], expected)
            self.assertEqual((attempted, failed), (2, 2), repr(text))

    def test_missing_expected_file_fails(self):
        expected = ledger.load_rows("/nonexistent/expected.txt")
        self.assertIsNone(expected)
        self.assertEqual(ledger.check_rows([self.ROWS], expected), (2, 2))

    def test_seeded_rows_must_repeat(self):
        expected = ledger.load_rows(self.write(self.ROWS[0] + "\n"))
        other = ["fig03 iterations=1 work_ipc=0.5",
                 "open_loop iterations=9 serve_p99_ns=3"]
        self.assertEqual(
            ledger.check_rows([self.ROWS, self.ROWS], expected, "open_loop"),
            (4, 0))
        self.assertEqual(
            ledger.check_rows([self.ROWS, other], expected, "open_loop"),
            (4, 1))
        # A single pass cannot show that a seeded row repeats.
        self.assertEqual(
            ledger.check_rows([self.ROWS], expected, "open_loop"), (2, 1))

    def test_same_bytes(self):
        a, b = self.write("x,y\n1,2\n"), self.write("x,y\n1,3\n")
        self.assertTrue(ledger.same_bytes(a, a))
        self.assertFalse(ledger.same_bytes(a, b))
        self.assertFalse(ledger.same_bytes(a, "/nonexistent.csv"))

    def test_paper_err_by_hand(self):
        # EXPERIMENTS.md: chip-queue peak 14, 1.97 GB/s useful, MLP-4
        # peak 0.39 against the paper's 14 / 2 / 0.35.
        want = 100 * (0 + 0.03 / 2 + 0.04 / 0.35) / 3
        self.assertAlmostEqual(ledger.paper_err_pct(14, 1.97, 0.39), want)

    def test_row_fields(self):
        self.assertEqual(ledger.row_fields("p a=1.5 h=00ff"),
                         {"a": 1.5, "h": "00ff"})


if __name__ == "__main__":
    unittest.main()
