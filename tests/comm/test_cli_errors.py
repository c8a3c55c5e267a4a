"""Bad sizes and host counts on the ``bench`` and ``service`` command
lines, and a run the switch cannot hold: one ``error: ...`` line on
stderr and exit status 2, never a traceback."""

import pytest

from repro.__main__ import main


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(["bench", "ring", "--size", "0"],
                     "nbytes must be positive", id="bench-size-0"),
        pytest.param(["bench", "ring", "--size", "12QB"],
                     "cannot parse size '12QB'", id="bench-size-12QB"),
        pytest.param(["bench", "ring", "--hosts", "0"],
                     "n_hosts must be >= 1", id="bench-hosts-0"),
        pytest.param(["bench", "ring", "--size", "0", "--tenants", "2"],
                     "nbytes must be positive", id="tenants-size-0"),
        pytest.param(["bench", "ring", "--size", "12QB", "--tenants", "2"],
                     "cannot parse size", id="tenants-size-12QB"),
        pytest.param(["bench", "ring", "--hosts", "0", "--tenants", "2"],
                     "n_hosts >= 1", id="tenants-hosts-0"),
        pytest.param(["service", "--hosts", "0"], "n_hosts >= 1",
                     id="service-hosts-0"),
        pytest.param(["bench", "flare_switch_sparse", "--sparse", "--density",
                      "0.1", "--hosts", "8", "--size", "1MiB"],
                     "the switch cannot hold this allreduce",
                     id="bench-sparse-infeasible"),
    ],
)
def test_bad_request_exits_2_with_one_error_line(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
