"""Tests of perfbench/compare.py: results recorded under different host facts
are refused.

    python3 -m unittest discover -s perfbench -p '*_test.py'
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

RESULT = {
    "workload": "single-cold",
    "trace": 0,
    "facts": {
        "cores": 4,
        "cpu_model": "Example CPU @ 2.00GHz",
        "compiler": "GNU 13.2.0",
        "build_type": "RelWithDebInfo",
        "source_path_hash": "00112233deadbeef",
    },
    "metrics": {
        "fuzz_execs_per_s": {"value": 40000.0, "unit": "1/s"},
        "setup_s": {"value": 0.002, "unit": "s"},
    },
}


class RefusalTest(unittest.TestCase):
    def test_same_facts_are_comparable(self):
        new = copy.deepcopy(RESULT)
        new["metrics"]["fuzz_execs_per_s"]["value"] = 44000.0
        self.assertEqual(compare.refusal_reasons(RESULT, new), [])
        lines = compare.comparison_lines(RESULT, new)
        self.assertTrue(any("fuzz_execs_per_s" in l and "+10.00%" in l
                            for l in lines))

    def test_each_differing_fact_is_refused_and_named(self):
        for key, value in (("cores", 1), ("cpu_model", "Other CPU"),
                           ("compiler", "Clang 17.0.0"),
                           ("build_type", "Debug"),
                           ("source_path_hash", "ffffffffffffffff")):
            new = copy.deepcopy(RESULT)
            new["facts"][key] = value
            reasons = compare.refusal_reasons(RESULT, new)
            self.assertEqual(len(reasons), 1, key)
            self.assertIn(key, reasons[0])

    def test_missing_fact_is_refused(self):
        new = copy.deepcopy(RESULT)
        del new["facts"]["source_path_hash"]
        reasons = compare.refusal_reasons(RESULT, new)
        self.assertEqual(reasons, ["host fact source_path_hash is missing"])

    def test_different_workload_or_mode_is_refused(self):
        new = copy.deepcopy(RESULT)
        new["workload"] = "workers"
        new["trace"] = 1
        self.assertEqual(len(compare.refusal_reasons(RESULT, new)), 2)

    def test_command_exits_2_on_refusal(self):
        new = copy.deepcopy(RESULT)
        new["facts"]["cores"] = 8
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, record in enumerate((RESULT, new)):
                paths.append(os.path.join(tmp, "r%d.json" % i))
                with open(paths[-1], "w") as f:
                    json.dump(record, f)
            script = os.path.join(os.path.dirname(__file__), "compare.py")
            refused = subprocess.run([sys.executable, script] + paths,
                                     capture_output=True, text=True)
            self.assertEqual(refused.returncode, 2)
            self.assertIn("cores", refused.stderr)
            accepted = subprocess.run([sys.executable, script, paths[0],
                                       paths[0]], capture_output=True,
                                      text=True)
            self.assertEqual(accepted.returncode, 0)


if __name__ == "__main__":
    unittest.main()
