"""Every file ``run`` writes matches its sha256 in ``golden.json``."""

import pytest

import golden


@pytest.mark.parametrize("case", golden.CASES,
                         ids=[golden.case_key(*c) for c in golden.CASES])
def test_run_writes_the_golden_bytes(case, tmp_path):
    want = golden.load()[golden.case_key(*case)]
    bad = golden.differing(want, golden.run_hashes(*case, str(tmp_path)))
    assert not bad, f"differs from tests/golden.json: {', '.join(bad)}"
