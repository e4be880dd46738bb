//! Least-squares fits for the scalability analysis (paper Fig. 19 fits
//! synthesis time to O(n²) with R² ≈ 0.99).

/// Result of a least-squares fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Fitted coefficient `a` in `y ≈ a · g(x)`.
    pub coefficient: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
}

/// Fits `y ≈ a · x^power` through the origin and reports R².
///
/// # Panics
/// Panics if `xs` and `ys` differ in length or are empty.
///
/// ```
/// use tacos_report::fit_power;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x * x).collect();
/// let fit = fit_power(&xs, &ys, 2.0);
/// assert!((fit.coefficient - 2.5).abs() < 1e-9);
/// assert!(fit.r_squared > 0.999);
/// ```
pub fn fit_power(xs: &[f64], ys: &[f64], power: f64) -> Fit {
    assert_eq!(xs.len(), ys.len(), "mismatched sample lengths");
    assert!(!xs.is_empty(), "at least one sample required");
    let gs: Vec<f64> = xs.iter().map(|&x| x.powf(power)).collect();
    let sum_gy: f64 = gs.iter().zip(ys).map(|(g, y)| g * y).sum();
    let sum_gg: f64 = gs.iter().map(|g| g * g).sum();
    let a = if sum_gg == 0.0 { 0.0 } else { sum_gy / sum_gg };
    let mean_y: f64 = ys.iter().sum::<f64>() / ys.len() as f64;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = gs.iter().zip(ys).map(|(g, y)| (y - a * g).powi(2)).sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Fit {
        coefficient: a,
        r_squared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_fit_recovers_coefficient() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.3 * x * x).collect();
        let fit = fit_power(&xs, &ys, 2.0);
        assert!((fit.coefficient - 0.3).abs() < 1e-9);
        assert!(fit.r_squared > 0.9999);
    }

    #[test]
    fn noisy_quadratic_still_high_r2() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 10.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 0.3 * x * x * (1.0 + if i % 2 == 0 { 0.05 } else { -0.05 }))
            .collect();
        let fit = fit_power(&xs, &ys, 2.0);
        assert!(fit.r_squared > 0.99, "r2 = {}", fit.r_squared);
    }

    #[test]
    fn wrong_power_fits_poorly() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.powi(3)).collect();
        let quad = fit_power(&xs, &ys, 2.0);
        let cube = fit_power(&xs, &ys, 3.0);
        assert!(cube.r_squared > quad.r_squared);
    }
}
