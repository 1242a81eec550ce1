//! Multi-dimensional shape and row-major index arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::TensorError;

/// The shape of a tensor: an ordered list of dimension extents.
///
/// Indexing is row-major (the last axis varies fastest), matching the
/// paper's default *memory view* of the `im2col` matrix on CPUs/MCUs.
///
/// ```
/// use greuse_tensor::Shape;
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of extents; 1 for a scalar shape).
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-index to a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `idx` has the wrong rank and
    /// [`TensorError::IndexOutOfBounds`] if any coordinate exceeds its extent.
    pub fn offset(&self, idx: &[usize]) -> Result<usize, TensorError> {
        if idx.len() != self.dims.len() {
            return Err(TensorError::ShapeMismatch {
                op: "shape offset",
                expected: self.dims.clone(),
                actual: idx.to_vec(),
            });
        }
        // Horner form over the extents: no strides vector per call.
        let mut off = 0usize;
        for (&i, &d) in idx.iter().zip(self.dims.iter()) {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { index: i, bound: d });
            }
            off = off * d + i;
        }
        Ok(off)
    }

    /// Converts a flat row-major offset back to a multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `offset >= self.len()`.
    pub fn unravel(&self, offset: usize) -> Result<Vec<usize>, TensorError> {
        if offset >= self.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: offset,
                bound: self.len(),
            });
        }
        // Peel coordinates off the fastest axis first (inverse Horner).
        let mut rem = offset;
        let mut idx = vec![0usize; self.dims.len()];
        for (i, &d) in idx.iter_mut().zip(self.dims.iter()).rev() {
            *i = rem % d;
            rem /= d;
        }
        Ok(idx)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[4, 5, 6]);
        assert_eq!(s.strides(), vec![30, 6, 1]);
        assert_eq!(s.len(), 120);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.offset(&[]).unwrap(), 0);
    }

    #[test]
    fn offset_unravel_roundtrip() {
        let s = Shape::new(&[3, 4, 2]);
        for flat in 0..s.len() {
            let idx = s.unravel(flat).unwrap();
            assert_eq!(s.offset(&idx).unwrap(), flat);
        }
    }

    #[test]
    fn offset_rejects_bad_rank() {
        let s = Shape::new(&[3, 4]);
        assert!(matches!(
            s.offset(&[1]),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let s = Shape::new(&[3, 4]);
        assert!(matches!(
            s.offset(&[3, 0]),
            Err(TensorError::IndexOutOfBounds { index: 3, bound: 3 })
        ));
    }

    #[test]
    fn offset_matches_stride_dot_product() {
        let s = Shape::new(&[3, 4, 2, 5]);
        let strides = s.strides();
        for flat in 0..s.len() {
            let idx = s.unravel(flat).unwrap();
            let dot: usize = idx.iter().zip(&strides).map(|(i, st)| i * st).sum();
            assert_eq!(s.offset(&idx).unwrap(), dot);
        }
    }

    #[test]
    fn offset_reports_first_out_of_bounds_axis() {
        let s = Shape::new(&[3, 4, 5]);
        assert!(matches!(
            s.offset(&[1, 9, 7]),
            Err(TensorError::IndexOutOfBounds { index: 9, bound: 4 })
        ));
    }

    #[test]
    fn unravel_rejects_out_of_bounds() {
        let s = Shape::new(&[2, 2]);
        assert!(s.unravel(4).is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "(2x3)");
        assert_eq!(Shape::new(&[7]).to_string(), "(7)");
    }

    #[test]
    fn zero_extent_is_empty() {
        let s = Shape::new(&[2, 0, 3]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
