"""Replay the recorded oracle goldens in-process: answers and witnesses.

covbench/golden/sigma.json holds one digest per module of the sigma sweep,
and covbench/golden/phi.json one per (module, puncture) pair of the
punctured coset-cover oracle.  Each digest covers the oracle's answer and
its witness, so any change in a witness's masks or generators shows here.
The items run through covbench/workloads.py, which also checks every
answer against the closed form and every witness elementwise.  Past the
goldens, every puncture of each phi golden module of up to 32 elements
must give one answer.
"""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COVBENCH = os.path.join(ROOT, "covbench")


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "covbench_workloads", os.path.join(COVBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


wl = _workloads()
cc = wl.load_program()


def _golden(name):
    with open(os.path.join(wl.GOLDEN, f"{name}.json")) as f:
        return json.load(f)["items"]


def test_sigma_golden():
    items = _golden("sigma")
    assert len(items) == 1010
    wrong = []
    for entry in items:
        _, seen, problems = wl.sigma_item(cc, entry)
        if problems or seen != entry["digest"]:
            wrong.append((entry["spec"], problems))
    assert not wrong


def test_phi_golden():
    pairs = [(entry, int(p)) for entry in _golden("phi")
             for p in entry["digests"]]
    assert len(pairs) == 899
    wrong = []
    for entry, puncture in pairs:
        _, seen, problems = wl.phi_item(cc, entry, puncture)
        if problems or seen != entry["digests"][str(puncture)]:
            wrong.append((entry["spec"], puncture, problems))
    assert not wrong


def test_phi_does_not_depend_on_the_puncture():
    # translation by -p maps the cosets that avoid p onto those that avoid
    # 0, so every puncture of a module must give one size: a check of the
    # search's optimality proof from outside it
    searches, split = 0, []
    for entry in _golden("phi"):
        if entry["size"] > 32:
            continue
        mod = cc.oracle.materialize(cc.parser.parse_spec(entry["spec"])[1])
        sizes = {cc.oracle.min_coset_cover_punctured(mod, p)[0]
                 for p in range(mod.size)}
        searches += mod.size
        if len(sizes) != 1:
            split.append((entry["spec"], sizes))
    assert searches == 4839
    assert not split
