import weakref

import pytest

import admitlab.estimator
from admitlab.estimator import LabFrame, build_forward, build_frame
from admitlab.families import constant_field, scalar_identity_family
from admitlab.geometry import BoundaryPatch, BoxDomain


@pytest.fixture(scope="session")
def unit_box():
    return BoxDomain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def patch(unit_box):
    return BoundaryPatch(unit_box, "z+", (0.2, 0.2), (0.8, 0.8))


@pytest.fixture(scope="session")
def scalar_family():
    return scalar_identity_family(k=0.05, imag=1.0)


@pytest.fixture(scope="session")
def frame16(unit_box, patch, scalar_family) -> LabFrame:
    """Shared 1/16-pitch frame for the scalar family; reused by many tests."""
    return build_frame(unit_box, patch, 0.25, 0.0625, scalar_family)


@pytest.fixture(scope="session")
def forward_a1(frame16):
    return build_forward(frame16, constant_field(1.0))


@pytest.fixture
def probe_calls(monkeypatch):
    """Probe count of every `build_corrected_probe` call the estimators make."""
    calls = []
    real = admitlab.estimator.build_corrected_probe

    def counting(probes, *args, **kwargs):
        calls.append(len(probes))
        return real(probes, *args, **kwargs)

    monkeypatch.setattr(admitlab.estimator, "build_corrected_probe", counting)
    return calls


@pytest.fixture
def assembly_log(monkeypatch):
    """("assemble", a) and ("dtn", a) entries, in call order, for every
    system and DtN the estimators assemble; a DtN is logged with the field
    its system was assembled from."""
    log = []
    fields = weakref.WeakKeyDictionary()
    real_assemble = admitlab.estimator.assemble
    real_dtn = admitlab.estimator.assemble_dtn

    def assemble(mesh, family, a, k, **kwargs):
        log.append(("assemble", a))
        system = real_assemble(mesh, family, a, k, **kwargs)
        fields[system] = a
        return system

    def assemble_dtn(system, *args, **kwargs):
        log.append(("dtn", fields[system]))
        return real_dtn(system, *args, **kwargs)

    monkeypatch.setattr(admitlab.estimator, "assemble", assemble)
    monkeypatch.setattr(admitlab.estimator, "assemble_dtn", assemble_dtn)
    return log


@pytest.fixture
def factor_calls(monkeypatch):
    """Interior size of every sparse LU factorisation `fem` makes."""
    import admitlab.fem

    calls = []
    real = admitlab.fem._factor_interior

    def counting(K_ii):
        calls.append(K_ii.shape[0])
        return real(K_ii)

    monkeypatch.setattr(admitlab.fem, "_factor_interior", counting)
    return calls
