from pytest import mark, raises

from fracfront.verify import SuiteName, SuiteReport, run_suite

SINGLE_SUITES = [s for s in SuiteName if s is not SuiteName.ALL]


@mark.parametrize("suite", SINGLE_SUITES, ids=[s.value for s in SINGLE_SUITES])
def test_suite_passes(suite):
    report = run_suite(suite)
    assert report.cases_run > 0
    assert report.passed, report.worst_case_inputs
    assert report.cases_passed == report.cases_run


def test_accepts_string_names():
    report = run_suite("wright-identities")
    assert report.suite_name == "wright-identities"
    assert report.passed


def test_deterministic():
    first = run_suite(SuiteName.WRIGHT_IDENTITIES)
    second = run_suite(SuiteName.WRIGHT_IDENTITIES)
    assert first == second


def test_unknown_suite_rejected():
    with raises(ValueError):
        run_suite("no-such-suite")


def test_passed_property():
    good = SuiteReport("x", 3, 3, 0.0, "")
    bad = SuiteReport("x", 3, 2, 1.0, "case")
    assert good.passed and not bad.passed


def test_tol_override_can_force_failure(monkeypatch):
    # An impossible tolerance must be reported as failures, not raised.
    import fracfront.verify as verify

    fn, _ = verify._SUITES[SuiteName.WRIGHT_IDENTITIES]
    monkeypatch.setitem(verify._SUITES, SuiteName.WRIGHT_IDENTITIES, (fn, 1e-300))
    report = run_suite(SuiteName.WRIGHT_IDENTITIES)
    assert not report.passed
    assert report.cases_passed < report.cases_run
