"""The benchmark's own test: its tiny-scale self-test must pass.

    python3 -m unittest discover -s lotusbench/tests
"""

import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")


class SelfTest(unittest.TestCase):
    def test_self_test_passes(self):
        proc = subprocess.run([sys.executable, RUN, "--self-test"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        self.assertEqual(proc.stdout.strip().splitlines()[-1], '{"self_test": "ok"}')


if __name__ == "__main__":
    unittest.main()
