"""Exception hierarchy.

Every error carries the exit code the command line returns for it:

* 1, ``InputError`` and its subclasses: bad files, bad parameters, wrong
  dimension (every map acts on d x d matrices with d >= 2);
* 2, the default: numerical failures and maps without a usable logarithm
  (defective matrices, unreachable step tolerances, a singular map or a
  negative real eigenvalue);
* 3, ``NotAChannel`` and ``NotHermiticityPreserving``: the input is not a
  channel at all, for the snapshot and the time-dependent criterion alike.

An eigenvalue above the rounding floor of the zero test is resolved
however small it is (spectral.eigendecompose), never an error.
"""


class MarkovscopeError(Exception):
    """Base class for everything raised on purpose by this package."""

    exit_code = 2


class InputError(MarkovscopeError):
    """Input or validation problem."""

    exit_code = 1


# --- input / validation ---

class DimensionMismatch(InputError):
    pass


class NotASquareOfSquare(InputError):
    """Matrix size is not d*d for an integer d."""


class UnsupportedBasis(InputError):
    pass


class RangeError(InputError):
    """Parameter outside its documented range."""


class NotQubit(InputError):
    pass


class InvalidForm(InputError):
    """Lindblad-form data violates H = H^dag or G >= 0."""


class BranchLengthMismatch(InputError):
    pass


class ParseError(InputError):
    """Channel / generator file could not be parsed."""


# --- numerical failures ---

class DefectiveMatrix(MarkovscopeError):
    """Geometric multiplicity below algebraic: no clean spectral projectors."""


class StepFailure(MarkovscopeError):
    """Adaptive time-ordered integration could not reach its tolerance."""


class ComplexLorentzSpectrum(MarkovscopeError):
    """Eigenvalues of T g T g are genuinely complex (or negative) while
    det T > 0; the qubit divisibility criterion is undefined there."""


class DegenerateSample(MarkovscopeError):
    """Random-channel draw produced an unusable marginal even after retries."""


# --- structural facts about the map ---

class NotAChannel(MarkovscopeError):
    """Input fails the CPTP checks beyond tolerance."""

    exit_code = 3


class SingularChannel(MarkovscopeError):
    """Zero eigenvalue: the channel has no logarithm at all."""


class NegativeRealEigenvalue(MarkovscopeError):
    """A negative real eigenvalue, of any multiplicity.  There is no
    Hermiticity-compatible logarithm when the multiplicity is odd; at even
    multiplicity real logarithms can exist (Culver 1966), and are not yet
    searched."""


class NotHermiticityPreserving(MarkovscopeError):
    exit_code = 3


class NotAGenerator(MarkovscopeError):
    """Matrix fails the Lindblad-generator checks."""
