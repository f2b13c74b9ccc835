//! Degree-2 polynomial basis expansion — Equation (1) of the paper.
//!
//! The regression function is `f(w, x) = wᵀ Φ(x)` with
//!
//! ```text
//! Φ(x) = (1, x₁, …, x_n, x₁x₁, x₁x₂, …, x_k x_l, …, x_n x_n)ᵀ,  k ≤ l
//! ```
//!
//! so `w ∈ R^(1 + 2n + C(n,2))`: one bias term, `n` linear terms, `n`
//! squares and `C(n,2)` cross products. The quadratic terms let the linear
//! learner capture dependencies *between* features (§4.2), e.g. "requested
//! time × resource request".

/// Dimension of the expanded representation for `n` input features.
pub(crate) const fn expanded_dim(n: usize) -> usize {
    1 + 2 * n + n * (n - 1) / 2
}

/// Degree-2 polynomial feature map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolynomialBasis {
    n: usize,
}

impl PolynomialBasis {
    /// A basis over `n` raw features.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "basis needs at least one feature");
        Self { n }
    }

    /// Number of raw input features.
    pub fn input_dim(&self) -> usize {
        self.n
    }

    /// Dimension of `Φ(x)`.
    pub fn output_dim(&self) -> usize {
        expanded_dim(self.n)
    }

    /// Writes `Φ(x)` into `out`.
    ///
    /// Layout: `[1 | x₁…x_n | x₁x₁, x₁x₂, …, x₁x_n, x₂x₂, …, x_n x_n]`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim()` or `out.len() != output_dim()`.
    pub fn expand_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n, "input dimension mismatch");
        assert_eq!(out.len(), self.output_dim(), "output dimension mismatch");
        out[0] = 1.0;
        out[1..=self.n].copy_from_slice(x);
        let mut idx = self.n + 1;
        for k in 0..self.n {
            for l in k..self.n {
                out[idx] = x[k] * x[l];
                idx += 1;
            }
        }
        debug_assert_eq!(idx, out.len());
    }
}

/// A linear (degree-1) basis used by the basis-ablation bench: `Φ(x) =
/// (1, x₁, …, x_n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearBasis {
    n: usize,
}

impl LinearBasis {
    /// A linear basis over `n` raw features.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "basis needs at least one feature");
        Self { n }
    }

    /// Number of raw input features.
    pub fn input_dim(&self) -> usize {
        self.n
    }

    /// Dimension of the expansion (`n + 1`).
    pub fn output_dim(&self) -> usize {
        self.n + 1
    }

    /// Writes `(1, x)` into `out`.
    pub fn expand_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n, "input dimension mismatch");
        assert_eq!(out.len(), self.n + 1, "output dimension mismatch");
        out[0] = 1.0;
        out[1..].copy_from_slice(x);
    }
}

/// Either basis, behind one type so the model can be configured at run
/// time without generics leaking into every signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Degree-2 polynomial (the paper's choice).
    Polynomial(PolynomialBasis),
    /// Degree-1 (ablation).
    Linear(LinearBasis),
}

impl Basis {
    /// The paper's degree-2 basis over `n` features.
    pub fn polynomial(n: usize) -> Self {
        Basis::Polynomial(PolynomialBasis::new(n))
    }

    /// The ablation degree-1 basis over `n` features.
    pub fn linear(n: usize) -> Self {
        Basis::Linear(LinearBasis::new(n))
    }

    /// Raw input dimension.
    pub fn input_dim(&self) -> usize {
        match self {
            Basis::Polynomial(b) => b.input_dim(),
            Basis::Linear(b) => b.input_dim(),
        }
    }

    /// Expanded dimension.
    pub fn output_dim(&self) -> usize {
        match self {
            Basis::Polynomial(b) => b.output_dim(),
            Basis::Linear(b) => b.output_dim(),
        }
    }

    /// Writes the expansion of `x` into `out`.
    pub fn expand_into(&self, x: &[f64], out: &mut [f64]) {
        match self {
            Basis::Polynomial(b) => b.expand_into(x, out),
            Basis::Linear(b) => b.expand_into(x, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expand(b: &PolynomialBasis, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; b.output_dim()];
        b.expand_into(x, &mut out);
        out
    }

    #[test]
    fn dimensions_match_the_paper() {
        // w ∈ R^(1+2n+C(n,2)) — §4.2, Equation (1).
        assert_eq!(expanded_dim(1), 3); // 1, x, x²
        assert_eq!(expanded_dim(2), 6); // 1, x1, x2, x1², x1x2, x2²
        assert_eq!(expanded_dim(20), 1 + 40 + 190);
        let b = PolynomialBasis::new(20);
        assert_eq!(b.output_dim(), 231);
    }

    #[test]
    fn expansion_layout() {
        let b = PolynomialBasis::new(2);
        let phi = expand(&b, &[3.0, 5.0]);
        assert_eq!(phi, vec![1.0, 3.0, 5.0, 9.0, 15.0, 25.0]);
    }

    #[test]
    fn three_feature_expansion() {
        let b = PolynomialBasis::new(3);
        let phi = expand(&b, &[1.0, 2.0, 3.0]);
        assert_eq!(
            phi,
            vec![1.0, 1.0, 2.0, 3.0, /* squares+crosses */ 1.0, 2.0, 3.0, 4.0, 6.0, 9.0]
        );
    }

    #[test]
    fn linear_basis() {
        let b = LinearBasis::new(3);
        let mut out = vec![0.0; 4];
        b.expand_into(&[7.0, 8.0, 9.0], &mut out);
        assert_eq!(out, vec![1.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn unified_basis_dispatch() {
        let p = Basis::polynomial(4);
        let l = Basis::linear(4);
        assert_eq!(p.output_dim(), expanded_dim(4));
        assert_eq!(l.output_dim(), 5);
        let mut out = vec![0.0; 5];
        l.expand_into(&[1.0, 2.0, 3.0, 4.0], &mut out);
        assert_eq!(out[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn wrong_input_dim_panics() {
        expand(&PolynomialBasis::new(3), &[1.0]);
    }
}
