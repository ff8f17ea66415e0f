"""One way to test a refusal: ``refused`` checks the error's type and its whole
message, and ``test_refused = refusal_test(REFUSALS)`` makes a module's table
``{id: (error, message, call)}`` one test with a case per row."""
import pytest


def refused(error, message, call):
    with pytest.raises(error) as err:
        call()
    assert (type(err.value), str(err.value)) == (error, message)


def refusal_test(table):
    @pytest.mark.parametrize("error, message, call", table.values(), ids=table.keys())
    def test_refused(error, message, call):
        refused(error, message, call)
    return test_refused
