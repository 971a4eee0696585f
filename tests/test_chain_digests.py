"""The fixed-seed micro chain writes the recorded bytes (chain_digests.py)."""

import json
import sys

import pytest

from chain_digests import RECORD, fingerprint, read_scores, run_chain


@pytest.mark.parametrize("threads", [1, 2])
def test_fixed_seed_chain_writes_the_recorded_bytes(tmp_path, capsys, monkeypatch, threads):
    """synth -> train -> score --store -> eval --out gives the recorded sha256
    of each file for this environment, with 1 and with 2 workers. On an
    environment the record does not hold, the scores must agree within the
    recorded tolerance, and the digests are printed to be recorded."""
    from soundscan import workers

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    # no threadpoolctl; the environment holds BLAS to one thread
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    record = json.loads(RECORD.read_text())
    digests = run_chain(tmp_path, threads)
    expected = record["environments"].get(fingerprint())
    if expected is not None:
        assert digests == expected
        return
    with capsys.disabled():
        print(f"\nchain digests to record for {fingerprint()!r}:\n{json.dumps(digests, indent=1)}")
    scores = read_scores(tmp_path / "scores.csv")
    assert scores.keys() == record["scores"].keys()
    for name, value in record["scores"].items():
        assert abs(scores[name] - value) <= record["score_tolerance"], name
