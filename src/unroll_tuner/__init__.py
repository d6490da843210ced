"""Loop-unrolling autotuner for affine, perfectly nested loop nests.

Pipeline: generate random target-class programs and schedules, label each
scheduled program with its best unrolling factor by exhaustive timing over
U = {0, 2, 4, 8, 16, 32, 64}, train an MLP classifier on the labeled corpus,
and predict factors for new programs (with KNN / decision-tree baselines and
a five-kernel benchmark harness for evaluation).
"""

__version__ = "0.1.0"
