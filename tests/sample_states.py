"""States that tests in more than one module build."""

from qfractal import Amplitude, SparseState


def fourier(n, missing=()):
    """The n x n discrete Fourier transform as a state on two qudits of
    dimension n, without the strings in ``missing``."""
    amps = [Amplitude(k, ((n, 2),)) for k in range(n)]
    return SparseState(
        n, 2, n, {(a, b): amps[a * b % n] for a in range(n) for b in range(n) if (a, b) not in missing}
    )
