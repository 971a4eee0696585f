"""The reachability run as a guard: each function of `src/soundscan` that
the pipeline's commands never enter is on a recorded list, so that new
library code no command runs fails here. A function leaves the list when a
command reaches it or when it is deleted; none may join it."""

import json
import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent

UNREACHED = {
    "soundscan.autodiff.set_checked",
    "soundscan.autodiff.sqrt",
    "soundscan.autodiff._released",
    "soundscan.autodiff.Tensor.ndim",
    "soundscan.autodiff.Tensor.__repr__",
    "soundscan.autodiff.Tensor.zero_grad",
    "soundscan.autodiff.Tensor.__rsub__",
    "soundscan.autodiff.Tensor.__truediv__",
    "soundscan.autodiff.Tensor.sqrt",
    "soundscan.data.scan_dcase_layout",
    "soundscan.data._parse_name",
    "soundscan.dsp.AudioClip.duration",
    "soundscan.metrics._first_five",
    "soundscan.network.MultiScaleBranch.forward",
    "soundscan.nn.Module.parameter_count",
    "soundscan.scanning.coverage_map",
    "soundscan.scoring.PrototypeSet.count",
    "soundscan.scoring.PrototypeStore.load",
}


def test_every_unreached_function_is_on_the_list():
    path = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(TESTS / "reachability.py")],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                         text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    unreached = set(json.loads(run.stdout)["unreached"])
    assert unreached <= UNREACHED, sorted(unreached - UNREACHED)
