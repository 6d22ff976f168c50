"""One NaN or infinite cell anywhere in an array input is a ValueError at every public numeric entry point."""

import zlib

import numpy as np
import pytest

from fedlora import anomaly, federated, iforest, labeling, preprocess
from fedlora import autoencoder as ae
from fedlora.frame import FeatureFrame

_RNG = np.random.default_rng(3)
_MODEL = ae.build_autoencoder(ae.ArchSpec(), seed=0)
_FOREST = iforest.fit_iforest(_RNG.normal(size=(40, 5)), n_trees=5, seed=0)
_LABELS = np.arange(40) % 4 == 0


def _frame(x):
    return FeatureFrame(x, ["Manitou"] * len(x))


# each entry point, called with a (40, 5) array in the argument it checks
ENTRY_POINTS = {
    "train": lambda x: ae.train([_MODEL], [x], ae.TrainConfig(epochs=1)),
    "forward": lambda x: ae.forward(_MODEL, x),
    "loss_and_gradient": lambda x: ae.loss_and_gradient(_MODEL, x),
    "reconstruction_errors": lambda x: anomaly.reconstruction_errors(_MODEL, _frame(x)),
    "initial_threshold": lambda x: anomaly.initial_threshold(x),
    "select_threshold": lambda x: anomaly.select_threshold(x.mean(axis=1), _LABELS),
    "fit_iforest": lambda x: iforest.fit_iforest(x, n_trees=5),
    "iforest_scores": lambda x: iforest.iforest_scores(_FOREST, x),
    "fedavg": lambda x: federated.fedavg([(x.ravel(), 3), (np.zeros(x.size), 2)]),
    "label_by_range": lambda x: labeling.label_by_range(_frame(x)),
    "label_by_iqr": lambda x: labeling.label_by_iqr(_frame(x)),
    "fit_standardizer": lambda x: preprocess.fit_standardizer(_frame(x)),
}


BAD = ("nan", "inf", "-inf")


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_one_non_finite_cell_raises_value_error(entry, bad):
    # seeded by the entry's own name, so adding an entry moves no other case
    rng = np.random.default_rng([zlib.crc32(entry.encode()), BAD.index(bad)])
    ENTRY_POINTS[entry](rng.normal(size=(40, 5)))  # the clean array passes
    for _ in range(5):  # five random positions
        x = rng.normal(size=(40, 5))
        x.flat[rng.integers(x.size)] = float(bad)
        with pytest.raises(ValueError):
            ENTRY_POINTS[entry](x)
