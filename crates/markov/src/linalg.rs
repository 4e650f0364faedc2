//! Minimal dense linear algebra for small systems.
//!
//! The paper's Markov chains have at most a handful of states (5 or 9), so a
//! simple, dependency-free dense implementation with LU decomposition and
//! partial pivoting is both sufficient and easy to audit. Everything is
//! row-major `f64`.

use crate::error::MarkovError;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use drqos_markov::linalg::Matrix;
///
/// let mut a = Matrix::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 4.0;
/// let x = a.solve(&[2.0, 8.0])?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// # Ok::<(), drqos_markov::error::MarkovError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from rows (how the tests write their systems down).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    #[cfg(test)]
    fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have equal length"
        );
        Self {
            rows: rows.len(),
            cols,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Row-vector–matrix product `xᵀ·A` (how stationary equations are
    /// usually written).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] if `x.len() != rows`.
    pub fn vec_mul(&self, x: &[f64]) -> Result<Vec<f64>, MarkovError> {
        if x.len() != self.rows {
            return Err(MarkovError::DimensionMismatch {
                expected: self.rows,
                actual: x.len(),
            });
        }
        Ok((0..self.cols)
            .map(|j| (0..self.rows).map(|i| x[i] * self[(i, j)]).sum::<f64>())
            .collect())
    }

    /// Solves `A·x = b` by LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::DimensionMismatch`] if the matrix is not square or
    ///   `b` has the wrong length.
    /// * [`MarkovError::Singular`] if a pivot is (numerically) zero.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MarkovError> {
        if self.rows != self.cols {
            return Err(MarkovError::DimensionMismatch {
                expected: self.rows,
                actual: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(MarkovError::DimensionMismatch {
                expected: self.rows,
                actual: b.len(),
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        // Scale-aware singularity threshold.
        let scale = a.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1.0);
        let eps = scale * 1e-13;
        for col in 0..n {
            // Partial pivot.
            let pivot_row = (col..n)
                .max_by(|&r1, &r2| a[r1 * n + col].abs().total_cmp(&a[r2 * n + col].abs()))
                .expect("non-empty range");
            if a[pivot_row * n + col].abs() < eps {
                return Err(MarkovError::Singular);
            }
            if pivot_row != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot_row * n + j);
                }
                x.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[row * n + j] -= factor * a[col * n + j];
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            x[col] /= a[col * n + col];
            for row in 0..col {
                x[row] -= a[row * n + col] * x[col];
            }
        }
        Ok(x)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &mut self.data[i * self.cols + j]
    }
}

/// Normalizes `v` to sum to one in place.
///
/// # Errors
///
/// Returns [`MarkovError::Singular`] if the sum is zero or non-finite.
pub(crate) fn normalize_l1(v: &mut [f64]) -> Result<(), MarkovError> {
    let sum: f64 = v.iter().sum();
    if !sum.is_finite() || sum.abs() < f64::MIN_POSITIVE {
        return Err(MarkovError::Singular);
    }
    for x in v.iter_mut() {
        *x /= sum;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows, 2);
        assert_eq!(z.cols, 3);
        assert_eq!(z[(1, 2)], 0.0);
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dims_panic() {
        Matrix::zeros(0, 3);
    }

    #[test]
    fn from_rows_builds() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn vec_mul_works() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.vec_mul(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
    }

    #[test]
    fn mul_dimension_mismatch() {
        let m = Matrix::zeros(2, 3);
        assert!(matches!(
            m.vec_mul(&[1.0]),
            Err(MarkovError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn solve_diagonal() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = 2.0;
        a[(2, 2)] = 4.0;
        let x = a.solve(&[1.0, 2.0, 8.0]).unwrap();
        assert_eq!(x, vec![1.0, 1.0, 2.0]);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert_eq!(x, vec![5.0, 3.0]);
    }

    #[test]
    fn solve_general_3x3() {
        let a = Matrix::from_rows(&[
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        let expected = [2.0, 3.0, -1.0];
        for (got, want) in x.iter().zip(expected) {
            assert!((got - want).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn solve_singular_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(a.solve(&[1.0, 2.0]), Err(MarkovError::Singular));
    }

    #[test]
    fn solve_non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(a.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn solve_wrong_rhs_len_rejected() {
        let a = Matrix::identity(2);
        assert!(a.solve(&[1.0]).is_err());
    }

    #[test]
    fn residual_is_small() {
        // Verify A·x ≈ b on a moderately conditioned random-ish system.
        let a = Matrix::from_rows(&[
            vec![4.0, -2.0, 1.0, 0.5],
            vec![-2.0, 5.0, -1.0, 0.0],
            vec![1.0, -1.0, 6.0, -2.0],
            vec![0.5, 0.0, -2.0, 3.0],
        ]);
        let b = [1.0, -2.0, 3.0, -4.0];
        let x = a.solve(&b).unwrap();
        let ax: Vec<f64> = (0..4)
            .map(|i| (0..4).map(|j| a[(i, j)] * x[j]).sum())
            .collect();
        assert!(ax.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-10));
    }

    #[test]
    fn normalize_l1_scales() {
        let mut v = vec![1.0, 3.0];
        normalize_l1(&mut v).unwrap();
        assert_eq!(v, vec![0.25, 0.75]);
    }

    #[test]
    fn normalize_l1_zero_fails() {
        let mut v = vec![0.0, 0.0];
        assert!(normalize_l1(&mut v).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }
}
