"""Every classifier refuses prediction input of the wrong width.

A fitted model records ``n_features_in_``; ``predict_proba`` on any other
column count raises one ``ValueError`` instead of returning probabilities
for misrouted columns or failing inside NumPy.
"""

import numpy as np
import pytest

from repro.models import (
    DecisionTreeClassifier,
    GaussianNB,
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LogisticRegression,
    OnlineLogisticRegression,
    RandomForestClassifier,
)

MODELS = {
    "tree": lambda: DecisionTreeClassifier(random_state=0),
    "forest": lambda: RandomForestClassifier(n_estimators=3, random_state=0),
    "gbdt": lambda: GradientBoostingClassifier(n_estimators=3),
    "lr": LogisticRegression,
    "knn": lambda: KNeighborsClassifier(3),
    "nb": GaussianNB,
    "online_lr": lambda: OnlineLogisticRegression(random_state=0),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_predict_proba_refuses_other_widths(name):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    model = MODELS[name]().fit(X, y)
    assert model.n_features_in_ == 3
    assert model.predict_proba(X).shape == (40, 2)
    for width in (2, 4):
        message = f"X has {width} features, but the model was fitted on 3"
        with pytest.raises(ValueError, match=message):
            model.predict_proba(rng.normal(size=(5, width)))
