"""Both discretizations side by side through the one seam, `profile_bvp._Central`.

`Conservative` is ROADMAP item 1's conservative form, written as a
subclass that overrides the residual and its band. Set in the class's place,
it runs through `solve_profile`, the Dafermos flow and the margins unchanged.
"""

import numpy as np
import pytest

import wavefan as wf
from wavefan import profile_bvp, verification
from wavefan.flux import divided_difference

CUBIC = wf.polynomial_flux((0.0, 0.0, 0.0, 1.0))
QUARTIC = wf.polynomial_flux((0.0, 0.0, -1.0, 0.0, 1.0))


class Conservative(profile_bvp._Central):
    """With a+- = f[u_i, u_(i+-1)] - xi_(i+-1), by `divided_difference`,

        R_i = eps*D2(u) - (hp*a+*sp + hm*a-*sm)/hs,

    which is eps*D2(u) - (F_(i+1) - F_(i-1))/hs - u_i, F = f(u) - xi*u, so
    sum (hs_i/2)*R_i telescopes. An offset a subtracts a*(u_(i+1) -
    u_(i-1))/hs, the form's change under the translate xi -> xi - a. The
    band is 2*eps/(hp*hs) - c_(i+1)/hs, -2*eps/(hm*hp) - 1 and
    2*eps/(hm*hs) + c_(i-1)/hs, c = f'(u) - xi."""

    def residual(self, u, offset=0.0):
        xi, p = self.xi, self.problem
        sm = (u[1:-1] - u[:-2]) / self.hm
        sp = (u[2:] - u[1:-1]) / self.hp
        a_plus = divided_difference(p.flux.coefficients, u[1:-1], u[2:]) - xi[2:]
        a_minus = divided_difference(p.flux.coefficients, u[1:-1], u[:-2]) - xi[:-2]
        self.c_all = wf.derivative(p.flux, u) - xi
        r = np.empty(len(u))
        r[0], r[-1] = u[0] - p.u_left, u[-1] - p.u_right
        r[1:-1] = (2.0 * p.epsilon * (sp - sm) - self.hp * a_plus * sp - self.hm * a_minus * sm
                   - offset * (u[2:] - u[:-2])) / self.hs
        return r

    def band(self, u):
        hm, hp, hs, c, eps = self.hm, self.hp, self.hs, self.c_all, self.problem.epsilon
        ab = np.zeros((3, len(u)))
        ab[1, [0, -1]] = 1.0
        ab[0, 2:] = 2.0 * eps / (hp * hs) - c[2:] / hs
        ab[1, 1:-1] = -2.0 * eps / (hm * hp) - 1.0
        ab[2, :-2] = 2.0 * eps / (hm * hs) + c[:-2] / hs
        return ab


def mass_defect(profile, problem):
    """D = eps*(sp_last - sm_first) - (F_(n-1) + F_(n-2) - F_1 - F_0)/2
    - sum (hs_i/2)*u_i over the interior nodes, F = f(u) - xi*u: the sum of
    (hs_i/2)*R_i for the conservative R, written out."""
    xi, u = profile.xi, profile.u
    f = wf.evaluate(problem.flux, u) - xi * u
    sp_last = (u[-1] - u[-2]) / (xi[-1] - xi[-2])
    sm_first = (u[1] - u[0]) / (xi[1] - xi[0])
    hs = xi[2:] - xi[:-2]
    return (problem.epsilon * (sp_last - sm_first) - 0.5 * (f[-1] + f[-2] - f[1] - f[0])
            - np.sum(0.5 * hs * u[1:-1]))


@pytest.mark.parametrize("ul", [-1.0, 1.0])
def test_the_conservative_form_solves_the_cubic_with_no_mass_defect(monkeypatch, ul):
    prob = wf.ProfileProblem(CUBIC, ul, -ul, 0.01)
    central, _ = wf.solve_profile(prob)
    monkeypatch.setattr(profile_bvp, "_Central", Conservative)
    profile, report = wf.solve_profile(prob)
    assert report.converged
    assert abs(mass_defect(profile, prob)) <= 1e-12
    assert np.array_equal(profile.xi, central.xi)
    assert np.max(np.abs(profile.u - central.u)) > 1e-4


def test_the_seam_reaches_the_flow(monkeypatch):
    # from a linear ramp across the domain the quartic shock's Newton start
    # stalls, so the flow runs, its shifted steps taken by the class set in
    # the seam
    def ramp(problem, xi):
        return wf.Profile(xi, np.interp(xi, xi[[0, -1]], [problem.u_left, problem.u_right]))

    shifts = []
    real = Conservative.step

    def spy(scheme, u, r, shift=0.0):
        shifts.append(shift)
        return real(scheme, u, r, shift)

    monkeypatch.setattr(Conservative, "step", spy)
    monkeypatch.setattr(profile_bvp, "_Central", Conservative)
    monkeypatch.setattr(profile_bvp, "initial_guess", ramp)
    prob = wf.ProfileProblem(QUARTIC, 1.0, -1.0, 0.01)
    profile, report = wf.solve_profile(prob)
    assert report.converged and report.stages == 2
    assert shifts[0] == 0.0 and 1.0 / profile_bvp._FLOW_DT in shifts
    assert np.max(np.abs(Conservative(prob, profile.xi).residual(profile.u))) <= 1e-10


def test_the_seam_reaches_the_margins(monkeypatch):
    # the sliding margin judges the conservative translate's defect
    prob = wf.ProfileProblem(CUBIC, -1.0, 1.0, 0.01)
    profile, _ = wf.solve_profile(prob)
    lam = 0.1
    central = wf.sliding_supersolution_margin(profile, prob, lam)
    scheme = Conservative(prob, profile.xi)
    defect = -scheme.residual(profile.u, offset=lam)[1:-1]
    noise = scheme.noise(profile.u, lam)
    monkeypatch.setattr(profile_bvp, "_Central", Conservative)
    patched = wf.sliding_supersolution_margin(profile, prob, lam)
    assert patched == verification._judge(defect, noise)
    assert patched != central
