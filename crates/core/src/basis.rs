//! The basis expansion Φ of Equation (1).
//!
//! The regression function is `f(w, x) = wᵀ Φ(x)`. The paper's basis is
//! degree 2:
//!
//! ```text
//! Φ(x) = (1, x₁, …, x_n, x₁x₁, x₁x₂, …, x_k x_l, …, x_n x_n)ᵀ,  k ≤ l
//! ```
//!
//! so `w ∈ R^(1 + 2n + C(n,2))`: one bias term, `n` linear terms, `n`
//! squares and `C(n,2)` cross products. The quadratic terms let the linear
//! learner capture dependencies *between* features (§4.2), e.g. "requested
//! time × resource request". The degree-1 basis `(1, x₁, …, x_n)` is the
//! ablation.

/// Which basis Φ the model expands its `n` raw features with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Basis {
    /// Degree-2 polynomial (Equation 1, the paper's choice).
    #[default]
    Polynomial,
    /// Degree-1 (ablation).
    Linear,
}

impl Basis {
    /// Each basis, in declaration order, with its name; an `ml(...)` spec
    /// writes a basis other than the default as a `+<name>` suffix.
    pub(crate) const NAMES: [(Basis, &'static str); 2] = [
        (Basis::Polynomial, "poly-basis"),
        (Basis::Linear, "lin-basis"),
    ];

    /// The basis's name.
    pub(crate) fn name(self) -> &'static str {
        Self::NAMES[self as usize].1
    }

    /// Dimension of `Φ(x)` for `n` raw features.
    pub const fn output_dim(self, n: usize) -> usize {
        match self {
            Basis::Polynomial => 1 + 2 * n + n * n.saturating_sub(1) / 2,
            Basis::Linear => 1 + n,
        }
    }

    /// Writes `Φ(x)` into `out`.
    ///
    /// Layout: `[1 | x₁…x_n | x₁x₁, x₁x₂, …, x₁x_n, x₂x₂, …, x_n x_n]`,
    /// the quadratic block for [`Basis::Polynomial`] only.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `out.len() != self.output_dim(x.len())`.
    pub fn expand_into(self, x: &[f64], out: &mut [f64]) {
        let n = x.len();
        assert!(n >= 1, "basis needs at least one feature");
        assert_eq!(
            out.len(),
            self.output_dim(n),
            "input dimension mismatch: {n} features"
        );
        out[0] = 1.0;
        out[1..=n].copy_from_slice(x);
        if self == Basis::Polynomial {
            let mut idx = n + 1;
            for k in 0..n {
                for l in k..n {
                    out[idx] = x[k] * x[l];
                    idx += 1;
                }
            }
            debug_assert_eq!(idx, out.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expand(b: Basis, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; b.output_dim(x.len())];
        b.expand_into(x, &mut out);
        out
    }

    #[test]
    fn dimensions_match_the_paper() {
        // w ∈ R^(1+2n+C(n,2)) — §4.2, Equation (1).
        let b = Basis::Polynomial;
        assert_eq!(b.output_dim(1), 3); // 1, x, x²
        assert_eq!(b.output_dim(2), 6); // 1, x1, x2, x1², x1x2, x2²
        assert_eq!(b.output_dim(20), 1 + 40 + 190);
        assert_eq!(b.output_dim(20), 231);
    }

    #[test]
    fn expansion_layout() {
        let phi = expand(Basis::Polynomial, &[3.0, 5.0]);
        assert_eq!(phi, vec![1.0, 3.0, 5.0, 9.0, 15.0, 25.0]);
    }

    #[test]
    fn three_feature_expansion() {
        let phi = expand(Basis::Polynomial, &[1.0, 2.0, 3.0]);
        assert_eq!(
            phi,
            vec![1.0, 1.0, 2.0, 3.0, /* squares+crosses */ 1.0, 2.0, 3.0, 4.0, 6.0, 9.0]
        );
    }

    #[test]
    fn linear_basis() {
        let mut out = vec![0.0; 4];
        Basis::Linear.expand_into(&[7.0, 8.0, 9.0], &mut out);
        assert_eq!(out, vec![1.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn unified_basis_dispatch() {
        let p = Basis::Polynomial;
        let l = Basis::Linear;
        assert_eq!(p.output_dim(4), 1 + 8 + 6);
        assert_eq!(l.output_dim(4), 5);
        let mut out = vec![0.0; 5];
        l.expand_into(&[1.0, 2.0, 3.0, 4.0], &mut out);
        assert_eq!(out[0], 1.0);
        for (i, (basis, _)) in Basis::NAMES.into_iter().enumerate() {
            assert_eq!(basis as usize, i, "NAMES follows declaration order");
        }
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn wrong_input_dim_panics() {
        let mut out = vec![0.0; Basis::Polynomial.output_dim(3)];
        Basis::Polynomial.expand_into(&[1.0], &mut out);
    }
}
