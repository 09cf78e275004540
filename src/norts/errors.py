"""Exception hierarchy shared by all norts modules."""


class NortsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(NortsError):
    """Input data or arguments violate a precondition (CLI exit code 3)."""


class InvalidSpecError(InvalidInputError):
    """A process specification is inadmissible (e.g. non-stationary AR polynomial)."""


class NumericDegeneracyError(NortsError):
    """An estimator broke down numerically on otherwise valid input (CLI exit code 4)."""


def _caught(f, *args, **kwargs):
    """``f(*args, **kwargs)``, or the :class:`NortsError` it raises."""
    try:
        return f(*args, **kwargs)
    except NortsError as exc:
        return exc


def _one_result(results):
    """The one entry of ``results`` (a batch of one series), raised if it is
    a :class:`NortsError`."""
    [res] = results
    if isinstance(res, NortsError):
        raise res
    return res
