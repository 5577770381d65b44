"""The checks behind ``repro``, ``compare`` and ``wavefn``'s state lookup, called
without argparse, print what the commands print."""

import pytest

from toruseig import checks, oracles
from toruseig.cli import main, render_json


def stdout_of(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("table", checks.TABLE_IDS)
def test_reproduce_table_renders_the_repro_output(capsys, table):
    report = checks.reproduce_table(table)
    code, text = stdout_of(capsys, "repro", "--table", str(table))
    assert report.render_text() == text
    assert code == (0 if report.passed else 1)
    _, text = stdout_of(capsys, "repro", "--table", str(table), "--format", "json")
    assert render_json(report.payload()) == text


def test_reproduce_table_takes_the_rk_step_count(capsys):
    report = checks.reproduce_table(4, rk_steps=1024)
    _, text = stdout_of(capsys, "repro", "--table", "4", "--rk-steps", "1024",
                        "--format", "json")
    assert render_json(report.payload()) == text
    assert report.payload() != checks.reproduce_table(4).payload()


def test_compare_state_renders_the_compare_output(capsys):
    payload = checks.compare_state(0.5, 1, "odd", 2, order=10, beta_max=25.0,
                                   methods=["fourier", "rk", "fd"], rk_steps=1024,
                                   fd_grid=256)
    code, text = stdout_of(capsys, "compare", "--m", "1", "--parity", "odd",
                           "--state", "2", "--methods", "fourier,rk,fd",
                           "--rk-steps", "1024", "--fd-grid", "256")
    assert render_json(payload) == text
    assert sorted(payload["pairwise"]) == ["fd-fourier", "fd-rk", "fourier-rk"]
    assert code == 0 and payload["pass"] is True


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("m", [0, 1, 3])
@pytest.mark.parametrize("alpha", [0.9, 0.95, 0.99])
def test_compare_state_eigenfunction_passes_at_high_alpha(alpha, m, parity):
    # the RK samples must not ride past the outer equator into the barrier
    # at 3pi/2, where the growing solution swamps the eigenfunction
    betas = [p.beta for p in oracles.fd_spectrum(alpha, m, grid_size=512, k_lowest=4,
                                                 parity=parity)]
    beta_max = betas[3 if (m, parity) == (0, "even") else 2] + 0.5
    for state in (1, 2, 3):
        payload = checks.compare_state(alpha, m, parity, state, order=80,
                                       beta_max=beta_max, methods=["fourier", "rk"],
                                       rk_steps=4096, fd_grid=1024)
        assert payload["eigenfunction"]["pass"], (state, payload["eigenfunction"])


class TestFindState:
    def test_returns_the_sector_and_the_position_of_the_state(self):
        states, index = checks.find_state(0.5, 0, "even", 2, order=10, beta_max=5.0)
        assert states[0].trivial and index == 2
        states, index = checks.find_state(0.5, 0, "even", "trivial", order=10,
                                          beta_max=5.0)
        assert index == 0

    @pytest.mark.parametrize("m,lam,beta_max,message", [
        (1, 9, 25.0, "no state 9 for m=1 parity=even within beta_max=25.0; "
                     "available: 1, 2, 3, 4, 5"),
        (1, "trivial", 25.0, "no state trivial for m=1 parity=even within "
                             "beta_max=25.0; available: 1, 2, 3, 4, 5"),
        (0, 40, 5.0, "no state 40 for m=0 parity=even within beta_max=5.0; "
                     "available: 1, 2 plus 'trivial'"),
    ])
    def test_absent_state_raises_lookup_error_listing_the_states(self, m, lam,
                                                                 beta_max, message):
        with pytest.raises(LookupError) as exc:
            checks.find_state(0.5, m, "even", lam, order=10, beta_max=beta_max)
        assert str(exc.value) == message

    def test_golden_tables_keep_their_cli_name(self):
        from toruseig import cli

        assert cli.golden_tables is checks.golden_tables


class TestFailedRowsRender:
    """A failed lookup or oracle call is a FAIL row with its reason, and
    ``repro`` exits 1."""

    def test_shooting_failure_fails_its_de_row(self, capsys, monkeypatch):
        def no_root(*args):
            raise checks.oracles.OracleError("no sign change in the bracket")

        monkeypatch.setattr(checks.oracles, "rk_find_eigenvalue", no_root)
        code, text = stdout_of(capsys, "repro", "--table", "2")
        de_rows = [line for line in text.splitlines() if "/DE " in line]
        assert code == 1 and text.endswith("RESULT: FAIL\n")
        assert de_rows and all(line.endswith("FAIL  (no sign change in the bracket)")
                               for line in de_rows)

    @pytest.mark.parametrize("table", (4, 5))
    def test_missing_state_fails_its_row(self, capsys, monkeypatch, table):
        def not_found(*args):
            raise LookupError("no such state")

        monkeypatch.setattr(checks, "find_state", not_found)
        # table 4 samples one state; table 5 has one row per state
        labels = (["state"] if table == 4 else
                  [row["label"] for row in checks.golden_tables()["table5"]["rows"]])
        report = checks.reproduce_table(table)
        assert [(r.label, r.computed, r.passed, r.note) for r in report.rows] == \
            [(label, None, False, "state not found") for label in labels]
        code, text = stdout_of(capsys, "repro", "--table", str(table))
        assert code == 1 and text == report.render_text()
        assert text.count("FAIL  (state not found)") == len(labels)
