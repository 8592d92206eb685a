//! Technology-node scaling (Section V-C).

/// A CMOS technology node with the parameters the paper's scaling law
/// needs: contacted gate poly pitch (CPP) and nominal supply voltage.
///
/// Dynamic power is `α·f·C·V²`; switching activity is node-independent,
/// capacitance scales with CPP², and the voltage term with Vdd. The CPP /
/// Vdd values below follow the WikiChip pages the paper cites (\[52\]–\[55\]);
/// they are representative foundry numbers, not vendor-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TechNode {
    /// Intel-class 14 nm (the evaluated Xeon CPU).
    N14,
    /// TSMC-class 16 nm (the evaluated Titan Xp GPU).
    N16,
    /// TSMC 28 nm (MatRaptor's synthesis target).
    N28,
    /// 32 nm planar (OuterSPACE's published numbers).
    N32,
}

impl TechNode {
    /// Contacted gate poly pitch in nanometres.
    pub fn cpp_nm(self) -> f64 {
        match self {
            TechNode::N14 => 70.0,
            TechNode::N16 => 90.0,
            TechNode::N28 => 117.0,
            TechNode::N32 => 130.0,
        }
    }

    /// Nominal supply voltage in volts.
    pub fn vdd(self) -> f64 {
        match self {
            TechNode::N14 => 0.80,
            TechNode::N16 => 0.85,
            TechNode::N28 => 0.90,
            TechNode::N32 => 1.00,
        }
    }

    /// Area scaling factor *from* `self` *to* `target`: multiply an area
    /// measured at `self` by this to estimate it at `target` (CPP²).
    pub fn area_factor_to(self, target: TechNode) -> f64 {
        let r = target.cpp_nm() / self.cpp_nm();
        r * r
    }

    /// Dynamic power/energy scaling factor from `self` to `target`:
    /// capacitance term (CPP²) times the voltage term (V²), per
    /// `P ∝ C·V²` at equal frequency and activity.
    pub fn power_factor_to(self, target: TechNode) -> f64 {
        let v = target.vdd() / self.vdd();
        self.area_factor_to(target) * v * v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_to_self_is_identity() {
        for n in [TechNode::N14, TechNode::N16, TechNode::N28, TechNode::N32] {
            assert!((n.area_factor_to(n) - 1.0).abs() < 1e-12);
            assert!((n.power_factor_to(n) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn newer_nodes_shrink_and_save_power() {
        let a = TechNode::N32.area_factor_to(TechNode::N28);
        assert!(a < 1.0, "28nm should be denser than 32nm: {a}");
        let p = TechNode::N32.power_factor_to(TechNode::N28);
        assert!(p < a, "power gains exceed area gains via Vdd: {p} vs {a}");
    }

    #[test]
    fn factors_compose() {
        let via16 = TechNode::N32.area_factor_to(TechNode::N16)
            * TechNode::N16.area_factor_to(TechNode::N28);
        let direct = TechNode::N32.area_factor_to(TechNode::N28);
        assert!((via16 - direct).abs() < 1e-9);
    }

    #[test]
    fn outerspace_scaling_magnitude() {
        // The paper scales OuterSPACE from 32 nm to 28 nm and reports
        // 70.2 mm²; the factor should sit near 87/70.2 ≈ 0.81.
        let f = TechNode::N32.area_factor_to(TechNode::N28);
        assert!(f > 0.7 && f < 0.9, "area factor {f}");
    }
}
