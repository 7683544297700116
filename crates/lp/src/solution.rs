//! Solver output.

use std::fmt;

/// An optimal solution to a [`LinearProgram`](crate::LinearProgram).
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    x: Vec<f64>,
    objective: f64,
}

impl Solution {
    pub(crate) fn new(x: Vec<f64>, objective: f64) -> Self {
        Self { x, objective }
    }

    /// The optimal (minimum) objective value.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of variable `i` at the optimum.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn value(&self, i: usize) -> f64 {
        self.x[i]
    }

    /// All variable values at the optimum.
    pub fn values(&self) -> &[f64] {
        &self.x
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "objective {:.6} at x = {:?}", self.objective, self.x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let s = Solution::new(vec![1.0, 2.0], 3.5);
        assert_eq!(s.objective(), 3.5);
        assert_eq!(s.value(1), 2.0);
        assert_eq!(s.values(), &[1.0, 2.0]);
        assert!(s.to_string().contains("3.5"));
    }
}
