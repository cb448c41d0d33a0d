"""From-scratch machine-learning substrate used by the online-learning framework.

Every model used in the paper (recursive least squares, linear and tree
regression, neural-network policies, support vector regression, k-NN
surfaces) is implemented here on top of ``numpy`` only, so the
resource-management layer has no dependency on external ML frameworks —
mirroring the paper's emphasis on firmware-friendly, low-overhead models.
"""

from repro.ml.base import Regressor, Classifier, OnlineRegressor
from repro.ml.scaling import StandardScaler
from repro.ml.metrics import mean_absolute_percentage_error
from repro.ml.linear import LinearRegressor
from repro.ml.rls import RecursiveLeastSquares
from repro.ml.mlp import MLPRegressor, MLPClassifier
from repro.ml.tree import DecisionTreeRegressor
from repro.ml.svr import SupportVectorRegressor
from repro.ml.knn import KNeighborsRegressor

__all__ = [
    "Regressor",
    "Classifier",
    "OnlineRegressor",
    "StandardScaler",
    "mean_absolute_percentage_error",
    "LinearRegressor",
    "RecursiveLeastSquares",
    "MLPRegressor",
    "MLPClassifier",
    "DecisionTreeRegressor",
    "SupportVectorRegressor",
    "KNeighborsRegressor",
]
