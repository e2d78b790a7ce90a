"""The central scheme's Jacobian band, for the tests that check it."""

from wavefan import profile_bvp


def jacobian_band(problem, profile):
    """The (3, n) band of the residual's Jacobian at profile.u, built by a
    fresh scheme on profile.xi from the slopes its residual leaves there."""
    scheme = profile_bvp._Central(problem, profile.xi)
    scheme.residual(profile.u)
    return scheme.band(profile.u)
