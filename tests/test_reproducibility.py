"""Weights depend only on a constructor's arguments.

``rng=None`` means ``np.random.default_rng(0)`` for every public layer
and model, so a model's weights, and every number computed from them,
do not depend on how many models the process built before it.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import nn
from repro.data.phantom3d import chest_volume
from repro.models.ahnet import AHNet3D
from repro.models.baselines import Classifier2D
from repro.models.ddnet import DDnet
from repro.models.dense_block import DenseBlock, DenseBlock3D
from repro.models.densenet3d import DenseNet3D
from repro.models.unet import UNet2D
from repro.pipeline import ComputeCovid19Plus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUILDERS = {
    "Conv2d": lambda rng=None: nn.Conv2d(2, 3, 3, rng=rng),
    "ConvTranspose2d": lambda rng=None: nn.ConvTranspose2d(2, 3, 3, rng=rng),
    "Linear": lambda rng=None: nn.Linear(4, 3, rng=rng),
    "Conv3d": lambda rng=None: nn.Conv3d(2, 3, 3, rng=rng),
    "DDnet": lambda rng=None: DDnet(base_channels=4, growth=4, num_blocks=2,
                                    layers_per_block=2, rng=rng),
    "DenseBlock": lambda rng=None: DenseBlock(4, growth=4, num_layers=3, rng=rng),
    "DenseBlock3D": lambda rng=None: DenseBlock3D(4, growth=4, num_layers=3, rng=rng),
    "DenseNet3D": lambda rng=None: DenseNet3D(block_layers=(2, 2, 2, 2), growth=4,
                                              init_features=4, rng=rng),
    "Classifier2D": lambda rng=None: Classifier2D(rng=rng),
    "UNet2D": lambda rng=None: UNet2D(base=4, depth=2, rng=rng),
    "AHNet3D": lambda rng=None: AHNet3D(base=2, rng=rng),
}

PROBE = """
import numpy as np
from repro.data.phantom3d import chest_volume
from repro.pipeline import ComputeCovid19Plus
scan = chest_volume(32, 16, covid=True, rng=np.random.default_rng(1))
print(repr(float(ComputeCovid19Plus().diagnose(scan).probability)))
"""


@pytest.mark.parametrize("name", sorted(BUILDERS))
class TestDefaultGenerator:
    def test_rng_none_is_default_rng_0_every_time(self, name):
        first, second = BUILDERS[name]().state_dict(), BUILDERS[name]().state_dict()
        explicit = BUILDERS[name](np.random.default_rng(0)).state_dict()
        assert first.keys() == second.keys() == explicit.keys()
        for k in first:
            np.testing.assert_array_equal(first[k], second[k], err_msg=k)
            np.testing.assert_array_equal(first[k], explicit[k], err_msg=k)

    def test_children_draw_in_turn_from_one_generator(self, name):
        # A child handed a fresh generator of its own would repeat its
        # same-shape siblings' weights.
        drawn = [(k, v) for k, v in BUILDERS[name]().state_dict().items() if v.ndim >= 2]
        for i, (ka, a) in enumerate(drawn):
            for kb, b in drawn[i + 1:]:
                assert a.shape != b.shape or not np.array_equal(a, b), (ka, kb)


def test_framework_probability_does_not_depend_on_process_history():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    fresh = float(subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                                 capture_output=True, text=True).stdout)
    DDnet(), DenseNet3D()
    scan = chest_volume(32, 16, covid=True, rng=np.random.default_rng(1))
    probs = [float(ComputeCovid19Plus().diagnose(scan).probability) for _ in range(2)]
    assert probs == [fresh, fresh]


def test_seeded_benchmark_weights_are_pinned():
    """The weights perfbench's seeded models start from.

    ``DiagnoseLowDose`` and ``TrainEnhance`` build every model from an
    explicit generator; a change to how layers draw their weights shows
    up here.  Re-record the digest only for a change meant to move them.
    """
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    diagnose = workloads.DiagnoseLowDose(1).framework
    models = (diagnose.enhancement.model, diagnose.segmentation.ahnet,
              diagnose.classification.model, workloads.TrainEnhance(1).enhancer.model)
    h = hashlib.sha256()
    for model in models:
        for k, v in sorted(model.state_dict().items()):
            h.update(k.encode() + str(v.dtype).encode() + str(v.shape).encode() + v.tobytes())
    assert h.hexdigest() == "599fdbae5641b463e54c8e27bde17694887a883846df0bb42184bcfc8bf70871"
