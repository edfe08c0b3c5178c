import csv
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import l1svm as L


def test_paper_classifier_values():
    a = L.benchmark_classifier(1000)
    assert a.s == 5
    assert_allclose(a.a[10], 1.0 / np.sqrt(2.59), rtol=1e-12)
    assert_allclose(a.a[140], -1.0 / np.sqrt(2.59), rtol=1e-12)
    assert_allclose(a.a[780], 0.3 / np.sqrt(2.59), rtol=1e-12)
    assert_allclose(np.linalg.norm(a.a), 1.0, atol=1e-12)
    assert_allclose(a.l1_norm, 3.3 / np.sqrt(2.59), rtol=1e-12)
    assert np.count_nonzero(a.a) == 5


@pytest.mark.parametrize("d,s", [(100, 5), (5, 5), (30, 1)])
def test_random_classifier_invariants(d, s):
    a = L.make_random_classifier(d, s, L.RngSeed(11))
    assert a.s == s
    assert np.count_nonzero(a.a) == s
    assert_allclose(np.linalg.norm(a.a), 1.0, atol=1e-12)
    assert np.abs(a.a).sum() <= np.sqrt(s) + 1e-9


def test_random_classifier_deterministic():
    a1 = L.make_random_classifier(50, 4, L.RngSeed(3, 9))
    a2 = L.make_random_classifier(50, 4, L.RngSeed(3, 9))
    assert np.array_equal(a1.a, a2.a)


def test_random_classifier_rejects_bad_sparsity():
    with pytest.raises(ValueError):
        L.make_random_classifier(4, 5, L.RngSeed(0))
    with pytest.raises(ValueError):
        L.make_random_classifier(4, 0, L.RngSeed(0))


def test_training_set_deterministic_and_labels_consistent():
    a = L.make_random_classifier(40, 3, L.RngSeed(1))
    T1 = L.generate_training_set(a, 200, 0.8, L.RngSeed(2, 5))
    T2 = L.generate_training_set(a, 200, 0.8, L.RngSeed(2, 5))
    assert np.array_equal(T1.X, T2.X)
    assert np.array_equal(T1.y, T2.y)
    assert set(np.unique(T1.y)) <= {-1.0, 1.0}
    # labels regenerate exactly from the stored matrix
    assert np.array_equal(np.sign(T1.X @ a.a), T1.y)


def test_training_set_row_norms_concentrate():
    """Mean of ||x_i||^2 / (r^2 d) is 1 up to chi-square fluctuation."""
    a = L.make_random_classifier(50, 5, L.RngSeed(4))
    T = L.generate_training_set(a, 10_000, 2.0, L.RngSeed(4, 1))
    ratio = np.mean((T.X ** 2).sum(axis=1)) / (4.0 * 50)
    assert abs(ratio - 1.0) < 0.05


def test_training_set_max_norm_in_sandwich():
    a = L.make_random_classifier(1000, 5, L.RngSeed(6))
    T = L.generate_training_set(a, 10_000, 1.0, L.RngSeed(6, 1))
    lo, hi = L.gaussian_max_norm_bounds(1000)
    assert lo < np.mean(np.abs(T.X).max(axis=1)) < hi


def test_hinge_objective_zero_vector_is_one():
    a = L.make_random_classifier(20, 2, L.RngSeed(8))
    T = L.generate_training_set(a, 64, 1.0, L.RngSeed(8, 0))
    assert L.hinge_objective(np.zeros(20), T) == 1.0


def test_hinge_objective_vanishes_beyond_margin():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, -1.0])
    T = L.TrainingSet(X=X, y=y)
    assert L.hinge_objective(np.array([2.0, -2.0]), T) == 0.0


def test_hinge_objective_hand_value():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, -1.0])
    T = L.TrainingSet(X=X, y=y)
    assert L.hinge_objective(np.array([0.5, 0.25]), T) == pytest.approx(0.875, abs=1e-15)


def test_hinge_objective_dimension_mismatch():
    a = L.make_random_classifier(10, 2, L.RngSeed(0))
    T = L.generate_training_set(a, 5, 1.0, L.RngSeed(0, 1))
    with pytest.raises(ValueError):
        L.hinge_objective(np.zeros(11), T)


def test_hinge_objective_convex_on_segments():
    rng = np.random.default_rng(0)
    a = L.make_random_classifier(15, 3, L.RngSeed(9))
    T = L.generate_training_set(a, 30, 1.2, L.RngSeed(9, 2))
    for _ in range(25):
        w1 = rng.standard_normal(15)
        w2 = rng.standard_normal(15)
        lam = rng.uniform()
        mid = L.hinge_objective(lam * w1 + (1 - lam) * w2, T)
        chord = lam * L.hinge_objective(w1, T) + (1 - lam) * L.hinge_objective(w2, T)
        assert mid <= chord + 1e-10


def test_hinge_objective_jensen_floor():
    rng = np.random.default_rng(1)
    a = L.make_random_classifier(12, 3, L.RngSeed(10))
    T = L.generate_training_set(a, 40, 0.9, L.RngSeed(10, 3))
    for _ in range(25):
        w = rng.standard_normal(12)
        floor = max(1.0 - np.mean(T.y * (T.X @ w)), 0.0)
        assert L.hinge_objective(w, T) >= floor - 1e-12


def test_hinge_objective_scale_equivalence():
    """Scaling the data by r equals scaling the argument by r."""
    a = L.make_random_classifier(25, 4, L.RngSeed(12))
    base = L.generate_training_set(a, 50, 1.0, L.RngSeed(12, 0))
    scaled = L.TrainingSet(X=3.5 * base.X, y=base.y)
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = rng.standard_normal(25)
        assert L.hinge_objective(w, scaled) == pytest.approx(
            L.hinge_objective(3.5 * w, base), abs=1e-12)


def test_training_set_rejects_no_rows():
    with pytest.raises(ValueError, match="^training set has no rows$"):
        L.TrainingSet(np.zeros((0, 3)), np.zeros(0))


def test_sparse_classifier_rejects_non_unit_vectors():
    with pytest.raises(ValueError):
        L.SparseClassifier(a=np.array([1.0, 1.0]))


@pytest.mark.parametrize("a", [[np.nan, 0.0], [0.6, 0.8, np.nan]])
def test_sparse_classifier_rejects_nan_entries(a):
    with pytest.raises(ValueError, match="unit l2 norm"):
        L.SparseClassifier(np.array(a))


def test_training_set_csv_round_trip(tmp_path):
    a = L.make_random_classifier(8, 3, L.RngSeed(13))
    T = L.generate_training_set(a, 12, 0.7, L.RngSeed(13, 1))
    path = tmp_path / "train.csv"
    L.save_training_set(T, path)
    back = L.load_training_set(path)
    assert np.array_equal(back.X, T.X)
    assert np.array_equal(back.y, T.y)
    header = path.read_text().splitlines()[0]
    assert header == "i,y," + ",".join(f"x_{j}" for j in range(1, 9))


def test_classifier_csv_round_trip(tmp_path):
    a = L.make_random_classifier(20, 4, L.RngSeed(14))
    path = tmp_path / "cls.csv"
    L.save_classifier(a, path)
    assert path.read_text().splitlines()[0] == "j,a_j"
    assert len(path.read_text().splitlines()) == 5  # header + support only
    back = L.load_classifier(path, 20)
    assert np.array_equal(back, a.a)


def test_rng_seed_streams_are_independent():
    g0 = L.RngSeed(42, 0).generator().standard_normal(8)
    g1 = L.RngSeed(42, 1).generator().standard_normal(8)
    assert not np.allclose(g0, g1)


def test_as_generator_takes_a_seed_or_a_generator_only():
    gen = np.random.default_rng(1)
    assert L.as_generator(gen) is gen
    assert L.as_generator(L.RngSeed(3, 2)).random() == L.RngSeed(3, 2).generator().random()
    for bad in (7, np.int64(7), None):
        with pytest.raises(TypeError, match="cannot build a generator"):
            L.as_generator(bad)


@pytest.mark.parametrize("text", ["", "i,y,x_1,x_2\n"])
def test_training_set_csv_empty_rejected(tmp_path, text):
    path = tmp_path / "train.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="empty training CSV"):
        L.load_training_set(path)


@pytest.mark.parametrize("j", [0, -1, 6])
def test_classifier_csv_index_out_of_range(tmp_path, j):
    path = tmp_path / "cls.csv"
    path.write_text(f"j,a_j\n1,0.6\n{j},0.8\n")
    with pytest.raises(ValueError, match=rf"j = {j} .*d = 5"):
        L.load_classifier(path, 5)


@pytest.mark.parametrize("r", [np.inf, np.nan, 0.0, -1.0, 1e308])
def test_generate_rejects_a_non_finite_or_overflowing_scale(r):
    a = L.make_random_classifier(30, 3, L.RngSeed(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is found before numpy would warn of it
        with pytest.raises(ValueError, match=f"^r must be positive, finite and .*, got {re.escape(str(r))}$"):
            L.generate_training_set(a, 20, r, L.RngSeed(1, 1))


def test_generate_accepts_a_huge_scale_that_fits():
    a = L.make_random_classifier(30, 3, L.RngSeed(1))
    T = L.generate_training_set(a, 20, 1e300, L.RngSeed(1, 1))
    assert np.isfinite(T.X).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_training_set_rejects_non_finite(bad):
    X = np.ones((3, 4))
    X[1, 2] = bad
    X[2, 0] = bad  # only the first bad cell, in row-major order, is named
    with pytest.raises(ValueError, match=r"non-finite .* row 2, column x_3$"):
        L.TrainingSet(X=X, y=np.ones(3))


def test_training_set_csv_ragged_rejected(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("i,y,x_1,x_2\n1,1,0.5,0.2\n2,-1,0.1\n")
    with pytest.raises(ValueError, match="data row 2 has 3 columns, expected 4"):
        L.load_training_set(path)


def test_classifier_csv_empty_rejected(tmp_path):
    path = tmp_path / "cls.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty classifier CSV"):
        L.load_classifier(path, 5)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,load,save", [
    ("train_tiny.csv", L.load_training_set, L.save_training_set),
    ("classifier_tiny.csv", lambda p: L.load_classifier(p, 6), L.save_classifier),
], ids=["train", "classifier"])
def test_csv_golden_rewrites_byte_identical(tmp_path, name, load, save):
    path = tmp_path / name
    save(load(GOLDEN / name), path)
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


def test_classifier_csv_ragged_rejected(tmp_path):
    path = tmp_path / "cls.csv"
    path.write_text("j,a_j\n1,0.6\n2\n")
    with pytest.raises(ValueError, match="^classifier CSV data row 2 has 1 columns, expected 2$"):
        L.load_classifier(path, 5)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_classifier_csv_non_finite_rejected(tmp_path, bad):
    path = tmp_path / "cls.csv"
    path.write_text(f"j,a_j\n1,0.6\n3,{bad}\n")
    with pytest.raises(ValueError, match=f"^classifier CSV data row 2 has non-finite a_j = {bad}$"):
        L.load_classifier(path, 5)


def test_classifier_csv_repeated_index_rejected(tmp_path):
    path = tmp_path / "cls.csv"
    path.write_text("j,a_j\n2,0.5\n2,0.7\n")
    with pytest.raises(ValueError, match="^classifier CSV data row 2 repeats index j = 2$"):
        L.load_classifier(path, 5)


def test_classifier_csv_header_only_is_zero(tmp_path):
    path = tmp_path / "cls.csv"
    L.save_classifier(np.zeros(4), path)
    assert path.read_bytes() == b"j,a_j\r\n"
    assert np.array_equal(L.load_classifier(path, 4), np.zeros(4))


HEADER = "i,y,x_1,x_2\r\n"


@pytest.mark.parametrize("rows,X,y", [
    ('1,"1","0.5",-2\r\n"2",-1,0.25,"3e-1"\r\n', [[0.5, -2.0], [0.25, 0.3]], [1.0, -1.0]),
    ("1,1,1_0,2\r\n", [[10.0, 2.0]], [1.0]),
    ("first,1,0.5,2\r\nsecond,-1,1,3\r\n", [[0.5, 2.0], [1.0, 3.0]], [1.0, -1.0]),
], ids=["quoted", "underscore", "text_index"])
def test_training_csv_loader_accepts(tmp_path, rows, X, y):
    path = tmp_path / "train.csv"
    path.write_text(HEADER + rows, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T = L.load_training_set(path)
    assert np.array_equal(T.X, X) and np.array_equal(T.y, y)


@pytest.mark.parametrize("rows,error,message", [
    ("1,1,0.5,2\r\n\r\n2,-1,1,3\r\n", ValueError,
     "training CSV data row 2 has 0 columns, expected 4"),
    ("1,1,0.5,2,7\r\n", ValueError, "training CSV data row 1 has 5 columns, expected 4"),
    ("", ValueError, "empty training CSV"),
    ("1,1,0.5,abc\r\n", ValueError, "could not convert string to float: 'abc'"),
    ("1,1,0.5,2\x1c\r\n", ValueError, "could not convert string to float: '2\\x1c'"),
    ("1,1,0.5," + "0" * 131072 + "1\r\n", csv.Error, "field larger than field limit (131072)"),
], ids=["blank_line", "extra_column", "header_only", "text_coordinate", "separator_padding",
        "oversized_field"])
def test_training_csv_loader_rejects(tmp_path, rows, error, message):
    path = tmp_path / "train.csv"
    path.write_text(HEADER + rows, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            L.load_training_set(path)
    assert str(exc.value) == message


def test_training_csv_round_trip_at_cli_scale(tmp_path):
    gen = L.RngSeed(32).generator()
    T = L.generate_training_set(L.make_random_classifier(1000, 5, gen), 800, 0.94, gen)
    path = tmp_path / "train.csv"
    L.save_training_set(T, path)
    back = L.load_training_set(path)
    assert back.X.shape == T.X.shape
    assert back.X.tobytes() == T.X.tobytes() and back.y.tobytes() == T.y.tobytes()
    assert back.X.flags.c_contiguous and back.y.flags.c_contiguous
