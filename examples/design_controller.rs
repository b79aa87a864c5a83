//! Controller design walkthrough (Appendix A, executable).
//!
//! Re-derives the paper's controller from its specification, verifies the
//! closed-loop poles, damping, and static gain, and compares step
//! responses for alternative pole choices.
//!
//! ```text
//! cargo run --release --example design_controller
//! ```

use streamshed::prelude::*;

/// `(c1, c0)` of the closed-loop characteristic polynomial
/// `(z + a)(z − 1) + (b0·z + b1) = z² + c1·z + c0`.
fn clce(p: &ControllerParams) -> (f64, f64) {
    (p.a - 1.0 + p.b0, p.b1 - p.a)
}

/// Unit-step response of the closed loop `(b0·z + b1)/(z² + c1·z + c0)`,
/// from its recurrence `y(k) = −c1·y(k−1) − c0·y(k−2) + b0·r(k−1) + b1·r(k−2)`.
fn step_response(p: &ControllerParams, steps: usize) -> Vec<f64> {
    let (c1, c0) = clce(p);
    let mut ys: Vec<f64> = Vec::with_capacity(steps);
    let (mut y1, mut y2) = (0.0, 0.0);
    for k in 0..steps {
        let r1 = if k >= 1 { 1.0 } else { 0.0 };
        let r2 = if k >= 2 { 1.0 } else { 0.0 };
        let y = -c1 * y1 - c0 * y2 + p.b0 * r1 + p.b1 * r2;
        ys.push(y);
        (y2, y1) = (y1, y);
    }
    ys
}

/// Closed-loop DC gain `T(1) = (b0 + b1)/(1 + c1 + c0)` (Eq. 19).
fn static_gain(p: &ControllerParams) -> f64 {
    let (c1, c0) = clce(p);
    (p.b0 + p.b1) / (1.0 + c1 + c0)
}

fn main() {
    println!("=== Appendix A, step by step ===\n");

    // 1. Specification: converge in ~3 control periods with damping 1.
    let pole = (-1.0f64 / 3.0).exp();
    println!("convergence in 3 periods → pole magnitude e^(-1/3) ≈ {pole:.4}");
    println!("the paper rounds this to 0.7 and places a double real pole:\n");
    println!("  desired CLCE: (z − 0.7)² = z² − 1.4z + 0.49\n");

    // 2. Match (z + a)(z − 1) + (b0·z + b1) to it (Eq. 18), b0 = 0.4.
    let params = ControllerParams::for_double_pole(0.7);
    println!(
        "solved parameters: b0 = {}, b1 = {}, a = {}",
        params.b0, params.b1, params.a
    );
    println!("(the paper reports b0 = 0.4, b1 = −0.31, a = −0.8)\n");

    // 3. Verify the closed loop: a zero discriminant means a double real
    // pole at −c1/2, i.e. damping 1.
    let (c1, c0) = clce(&params);
    let z = -c1 / 2.0;
    println!("closed-loop CLCE: z² {c1:+.4}z {c0:+.4}");
    println!(
        "discriminant c1² − 4c0 = {:.1e} → double real pole z = {z:.4}, \
         damping = 1, τ = {:.2} periods",
        c1 * c1 - 4.0 * c0,
        -1.0 / z.ln()
    );
    println!("static gain: {:.6} (must be 1)\n", static_gain(&params));

    // 4. Step responses for alternative pole placements.
    let poles = [0.5, 0.7, 0.9];
    let responses: Vec<Vec<f64>> = poles
        .iter()
        .map(|&p| step_response(&ControllerParams::for_double_pole(p), 200))
        .collect();
    println!("step responses (fraction of target reached at period k):");
    println!("  k      p=0.5     p=0.7     p=0.9");
    let rows = responses[0].iter().zip(&responses[1]).zip(&responses[2]);
    for (k, ((a, b), c)) in rows.take(16).enumerate() {
        println!("  {k:2}   {a:7.3}   {b:7.3}   {c:7.3}");
    }
    for (p, r) in poles.iter().zip(&responses) {
        // The final value is the static gain, 1.
        let overshoot = r.iter().fold(1.0f64, |m, &y| m.max(y)) - 1.0;
        let rise = r.iter().position(|&y| y >= 0.63);
        println!(
            "\npole {p}: overshoot {:.1}%, 63% rise at k = {rise:?}",
            overshoot * 100.0
        );
    }
    println!(
        "\nthe controller zero −b1/b0 lies above the pole once p > 1 − b0 = 0.6 \
         and adds the overshoot;\nfaster poles demand more shedding authority \
         per period; 0.7 is the paper's balance."
    );

    // 5. The design's hidden redundancy (documented in DESIGN.md): the
    // static-gain condition holds for ANY b0, so one degree of freedom
    // remains.
    println!("\nredundancy check — static gain for several b0 choices:");
    for b0 in [0.2, 0.4, 0.8] {
        let a = -2.0 * 0.7 + 1.0 - b0;
        let p = ControllerParams {
            a,
            b0,
            b1: 0.7 * 0.7 + a,
        };
        println!(
            "  b0 = {b0}: a = {:+.3}, b1 = {:+.3}, closed-loop gain = {:.6}",
            p.a,
            p.b1,
            static_gain(&p)
        );
    }
}
