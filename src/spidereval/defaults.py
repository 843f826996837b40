"""Option defaults shared by the command line and the analysis modules.

Free of numpy and of the analysis code, so that the option table can
name these values without importing the modules that use them.
"""

DEFAULT_REPS = 100  # ICC bootstrap repetitions per subsample size
MISSING_MODES = ("impute", "complete")  # ICC missing-cell handling
DEFAULT_BOOTSTRAP = 2000  # error-analysis bootstrap replicates
MIN_CELL = 10  # smallest category the error-analysis tests use
ALPHA = 0.05  # FDR significance level
FORMS = ("decay", "rise")  # learning-curve forms
KIND = "ridge_closed_form"  # the one predictor kind
N_TRIALS = 30  # ridge-search trials per (repetition, outer fold)
