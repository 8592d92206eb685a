//! Output checks. They run outside every timed region.

use matraptor_sparse::Csr;

/// Relative tolerance on output values: the accelerator accumulates in a
/// different order than the Gustavson reference, which moves only the
/// last bits; a real fault moves far more.
const REL_TOL: f64 = 1e-9;

/// Whether `got` has the reference product's shape and structure, and
/// every value within [`REL_TOL`] of it.
pub fn same_product(got: &Csr<f64>, want: &Csr<f64>) -> Result<(), String> {
    if (got.rows(), got.cols()) != (want.rows(), want.cols()) {
        return Err(format!(
            "shape {}x{} != reference {}x{}",
            got.rows(),
            got.cols(),
            want.rows(),
            want.cols()
        ));
    }
    if got.row_ptr() != want.row_ptr() || got.col_idx() != want.col_idx() {
        return Err(format!("structure differs ({} vs {} non-zeros)", got.nnz(), want.nnz()));
    }
    for (i, (&g, &w)) in got.values().iter().zip(want.values()).enumerate() {
        if (g - w).abs() > REL_TOL * w.abs().max(1.0) {
            return Err(format!("value {i}: {g} vs reference {w}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use matraptor_sparse::{gen, spgemm};

    #[test]
    fn accepts_reordered_rounding_and_rejects_real_differences() {
        let a = gen::uniform(20, 20, 80, 3);
        let c = spgemm::gustavson(&a, &a);
        assert!(same_product(&c, &c).is_ok());

        let mut vals = c.values().to_vec();
        vals[0] *= 1.0 + 1e-14;
        let nudged =
            Csr::from_parts(20, 20, c.row_ptr().to_vec(), c.col_idx().to_vec(), vals.clone())
                .expect("same structure");
        assert!(same_product(&nudged, &c).is_ok());

        vals[0] *= 1.001;
        let wrong = Csr::from_parts(20, 20, c.row_ptr().to_vec(), c.col_idx().to_vec(), vals)
            .expect("same structure");
        assert!(same_product(&wrong, &c).is_err());

        assert!(same_product(&spgemm::gustavson(&a, &gen::uniform(20, 20, 80, 4)), &c).is_err());
        assert!(same_product(&Csr::zero(20, 21), &c).is_err());
    }
}
