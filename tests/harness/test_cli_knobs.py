"""Bad numeric knobs fail at the command line, with the flag named — not as
a crash verdict per scenario or an error deep inside the first run."""

import pytest

from repro.chaos.__main__ import main as chaos_main
from repro.harness.__main__ import main as harness_main
from repro.harness.config import Profile
from repro.obs.__main__ import main as obs_main


@pytest.mark.parametrize("main, argv, named", [
    (chaos_main, ["--seed", "-1", "--list"], "argument --seed: must be >= 0"),
    (chaos_main, ["--jobs", "0", "--list"], "argument --jobs: must be >= 1"),
    (chaos_main, ["--seed", "x", "--list"], "invalid int value: 'x'"),
    (harness_main, ["fig5", "--seed", "-1"], "argument --seed: must be >= 0"),
    (harness_main, ["fig5", "--jobs", "-4"], "argument --jobs: must be >= 1"),
    (obs_main, ["record", "--n-procs", "0"], "--n-procs: must be >= 1"),
    (obs_main, ["record", "--procs-per-node", "0"],
     "--procs-per-node: must be >= 1"),
    (obs_main, ["record", "--seed", "-3"], "argument --seed: must be >= 0"),
    (obs_main, ["record", "--bench", "nosuch"],
     "argument --bench: invalid choice: 'nosuch'"),
])
def test_cli_refuses_a_bad_knob_naming_the_flag(main, argv, named, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert named in capsys.readouterr().err


def test_profile_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        Profile(name="smoke", time_scale=0.05, seed=-1)
