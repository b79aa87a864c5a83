//! Property-based tests for the z-domain mathematics.

use proptest::prelude::*;
use streamshed_zdomain::design::{design_for_integrator, DesignSpec};
use streamshed_zdomain::poly::Poly;
use streamshed_zdomain::roots;
use streamshed_zdomain::tf::TransferFunction;
use streamshed_zdomain::Complex;

fn small_coeff() -> impl Strategy<Value = f64> {
    prop_oneof![(-10.0..10.0f64), (-1.0..1.0f64)]
}

fn poly_strategy(max_deg: usize) -> impl Strategy<Value = Poly> {
    prop::collection::vec(small_coeff(), 1..=max_deg + 1).prop_map(Poly::new)
}

proptest! {
    #[test]
    fn poly_add_commutes(a in poly_strategy(6), b in poly_strategy(6)) {
        let ab = &a + &b;
        let ba = &b + &a;
        prop_assert_eq!(ab.coeffs(), ba.coeffs());
    }

    #[test]
    fn poly_mul_degree_adds(a in poly_strategy(5), b in poly_strategy(5)) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let prod = &a * &b;
        prop_assert_eq!(prod.degree(), a.degree() + b.degree());
    }

    #[test]
    fn poly_eval_is_ring_homomorphism(
        a in poly_strategy(5),
        b in poly_strategy(5),
        x in -3.0..3.0f64,
    ) {
        let sum = &a + &b;
        let prod = &a * &b;
        let scale = a.eval(x).abs().max(b.eval(x).abs()).max(1.0);
        prop_assert!((sum.eval(x) - (a.eval(x) + b.eval(x))).abs() < 1e-9 * scale);
        prop_assert!((prod.eval(x) - a.eval(x) * b.eval(x)).abs() < 1e-6 * scale * scale);
    }

    #[test]
    fn div_rem_reconstructs(a in poly_strategy(6), b in poly_strategy(3)) {
        prop_assume!(b.leading().abs() > 1e-3);
        let (q, r) = a.div_rem(&b);
        let back = &(&q * &b) + &r;
        // An ill-conditioned divisor (tiny leading coefficient) blows the
        // quotient up; the reconstruction error scales with |q|·|b|.
        let max_abs = |p: &Poly| p.coeffs().iter().fold(1.0f64, |m, c| m.max(c.abs()));
        let scale = max_abs(&a).max(max_abs(&q) * max_abs(&b));
        for i in 0..=a.degree() {
            prop_assert!((back.coeff(i) - a.coeff(i)).abs() < 1e-9 * scale);
        }
        prop_assert!(r.degree() < b.degree() || r.is_zero() || b.degree() == 0);
    }

    #[test]
    fn roots_are_actually_roots(roots_in in prop::collection::vec(-0.95..0.95f64, 1..6)) {
        let p = Poly::from_real_roots(&roots_in);
        let found = roots::roots(&p);
        prop_assert_eq!(found.len(), roots_in.len());
        for z in &found {
            prop_assert!(p.eval_complex(*z).abs() < 1e-5, "residual {} at {}", p.eval_complex(*z).abs(), z);
        }
    }

    #[test]
    fn spectral_radius_bounds_real_roots(roots_in in prop::collection::vec(-2.0..2.0f64, 1..5)) {
        let p = Poly::from_real_roots(&roots_in);
        let sr = roots::spectral_radius(&p);
        let max_root = roots_in.iter().fold(0.0f64, |m, r| m.max(r.abs()));
        prop_assert!((sr - max_root).abs() < 1e-4 * max_root.max(1.0));
    }

    #[test]
    fn designed_loop_always_hits_spec_poles(p1 in 0.05..0.95f64, p2 in 0.05..0.95f64, b0 in 0.1..2.0f64) {
        let spec = DesignSpec::from_poles(p1, p2).with_b0(b0);
        let params = design_for_integrator(&spec);
        let cl = params.closed_loop();
        prop_assert!(cl.is_stable());
        prop_assert!((cl.dc_gain() - 1.0).abs() < 1e-6);
        let mut achieved: Vec<f64> = cl.poles().iter().map(|z| z.re).collect();
        achieved.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut want = [p1, p2];
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (got, want) in achieved.iter().zip(want) {
            prop_assert!((got - want).abs() < 1e-5, "{got} vs {want}");
        }
    }

    #[test]
    fn stable_system_step_response_is_bounded(
        pole1 in -0.9..0.9f64,
        pole2 in -0.9..0.9f64,
        gain in 0.01..5.0f64,
    ) {
        let den = Poly::from_real_roots(&[pole1, pole2]);
        let num = Poly::constant(gain);
        let h = TransferFunction::new(num, den).unwrap();
        prop_assert!(h.is_stable());
        let y = h.step_response(500);
        let dc = h.dc_gain();
        prop_assert!((y.last().unwrap() - dc).abs() < 1e-3 * dc.abs().max(1.0));
        prop_assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn freq_response_conjugate_symmetry(
        pole in -0.9..0.9f64,
        omega in 0.0..std::f64::consts::PI,
    ) {
        let h = TransferFunction::new(Poly::constant(1.0), Poly::from_real_roots(&[pole])).unwrap();
        let pos = h.freq_response(omega);
        let neg = h.freq_response(-omega);
        prop_assert!((pos - neg.conj()).abs() < 1e-10);
    }

    #[test]
    fn complex_field_axioms(
        are in -5.0..5.0f64, aim in -5.0..5.0f64,
        bre in -5.0..5.0f64, bim in -5.0..5.0f64,
    ) {
        let a = Complex::new(are, aim);
        let b = Complex::new(bre, bim);
        prop_assert!(((a * b) - (b * a)).abs() < 1e-9);
        prop_assume!(b.abs() > 1e-3);
        prop_assert!(((a / b) * b - a).abs() < 1e-9 * a.abs().max(1.0));
    }
}
