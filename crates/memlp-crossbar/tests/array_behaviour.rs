//! Behavioural tests for the crossbar array simulator.

use memlp_crossbar::{Crossbar, CrossbarConfig, CrossbarError, FaultModel, Fidelity, ReadoutMode};
use memlp_linalg::{ops, Matrix};

fn test_matrix() -> Matrix {
    Matrix::from_rows(&[
        &[4.0, 1.0, 0.5, 0.0],
        &[1.0, 3.0, 1.0, 0.2],
        &[0.0, 1.0, 2.0, 1.0],
        &[0.3, 0.0, 1.0, 2.5],
    ])
    .expect("well-formed")
}

#[test]
fn ideal_mvm_matches_exact() {
    let mut xb = Crossbar::new(8, CrossbarConfig::ideal()).unwrap();
    let a = test_matrix();
    xb.program(&a).unwrap();
    let x = [1.0, -0.5, 2.0, 0.25];
    let y = xb.mvm(&x).unwrap();
    let exact = a.matvec(&x);
    for (got, want) in y.iter().zip(&exact) {
        assert!((got - want).abs() < 1e-3, "{got} vs {want}");
    }
}

#[test]
fn ideal_transposed_mvm_matches_exact() {
    // Rectangular on purpose: the transposed read swaps the roles of the
    // word and bit lines, so shapes must follow the realized matrix.
    let mut xb = Crossbar::new(8, CrossbarConfig::ideal()).unwrap();
    let a = Matrix::from_rows(&[
        &[2.0, 0.5, 0.0, 1.0, 0.3],
        &[0.0, 3.0, 1.0, 0.0, 0.7],
        &[1.0, 0.0, 2.5, 0.4, 0.0],
    ])
    .expect("well-formed");
    xb.program(&a).unwrap();
    let y = [1.0, -0.5, 2.0];
    let x = xb.mvm_transposed(&y).unwrap();
    assert_eq!(x.len(), 5);
    let exact = a.matvec_transposed(&y);
    for (got, want) in x.iter().zip(&exact) {
        assert!((got - want).abs() < 1e-3, "{got} vs {want}");
    }
    // Wrong input length (column count instead of row count) is rejected.
    assert!(xb.mvm_transposed(&[1.0; 5]).is_err());
}

#[test]
fn ideal_solve_matches_exact() {
    let mut xb = Crossbar::new(8, CrossbarConfig::ideal()).unwrap();
    let a = test_matrix();
    xb.program(&a).unwrap();
    let b = [1.0, 2.0, 3.0, 4.0];
    let x = xb.solve(&b).unwrap();
    let back = a.matvec(&x);
    for (got, want) in back.iter().zip(&b) {
        assert!((got - want).abs() < 1e-2, "{got} vs {want}");
    }
}

#[test]
fn eight_bit_io_introduces_bounded_error() {
    let mut xb = Crossbar::new(8, CrossbarConfig::paper_default()).unwrap();
    let a = test_matrix();
    xb.program(&a).unwrap();
    let x = [1.0, 0.5, 0.25, 0.125];
    let y = xb.mvm(&x).unwrap();
    let exact = a.matvec(&x);
    let scale = ops::inf_norm(&exact);
    for (got, want) in y.iter().zip(&exact) {
        let rel = (got - want).abs() / scale;
        assert!(rel < 0.02, "8-bit error {rel} too large");
    }
}

#[test]
fn variation_perturbs_results_but_not_wildly() {
    let cfg = CrossbarConfig::paper_default()
        .with_variation(10.0)
        .with_seed(11);
    let mut xb = Crossbar::new(8, cfg).unwrap();
    let a = test_matrix();
    xb.program(&a).unwrap();
    let x = [1.0, 1.0, 1.0, 1.0];
    let y = xb.mvm(&x).unwrap();
    let exact = a.matvec(&x);
    let mut any_different = false;
    for (got, want) in y.iter().zip(&exact) {
        let rel = (got - want).abs() / want.abs().max(1.0);
        assert!(rel < 0.25, "variation error {rel} too large");
        if rel > 1e-6 {
            any_different = true;
        }
    }
    assert!(
        any_different,
        "10% variation should visibly perturb results"
    );
}

#[test]
fn rejects_negative_coefficients() {
    let mut xb = Crossbar::new(8, CrossbarConfig::paper_default()).unwrap();
    let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 1.0]]).unwrap();
    let err = xb.program(&a).unwrap_err();
    assert!(matches!(
        err,
        CrossbarError::NegativeCoefficient { row: 0, col: 1, .. }
    ));
}

#[test]
fn rejects_oversized_matrix() {
    let mut xb = Crossbar::new(2, CrossbarConfig::paper_default()).unwrap();
    let err = xb.program(&Matrix::identity(3)).unwrap_err();
    assert!(matches!(
        err,
        CrossbarError::SizeExceeded {
            requested: 3,
            capacity: 2
        }
    ));
}

#[test]
fn creation_respects_max_size() {
    let cfg = CrossbarConfig {
        max_size: 64,
        ..CrossbarConfig::paper_default()
    };
    assert!(Crossbar::new(64, cfg).is_ok());
    assert!(matches!(
        Crossbar::new(65, cfg),
        Err(CrossbarError::SizeExceeded { .. })
    ));
}

#[test]
fn operations_require_programming() {
    let mut xb = Crossbar::new(4, CrossbarConfig::paper_default()).unwrap();
    assert!(matches!(
        xb.mvm(&[1.0; 4]),
        Err(CrossbarError::NotProgrammed)
    ));
    assert!(matches!(
        xb.solve(&[1.0; 4]),
        Err(CrossbarError::NotProgrammed)
    ));
    assert!(matches!(
        xb.update_cells(&[(0, 0, 1.0)]),
        Err(CrossbarError::NotProgrammed)
    ));
}

#[test]
fn shape_mismatches_rejected() {
    let mut xb = Crossbar::new(8, CrossbarConfig::paper_default()).unwrap();
    xb.program(&test_matrix()).unwrap();
    assert!(matches!(
        xb.mvm(&[1.0; 3]),
        Err(CrossbarError::ShapeMismatch { .. })
    ));
    assert!(matches!(
        xb.solve(&[1.0; 5]),
        Err(CrossbarError::ShapeMismatch { .. })
    ));
    assert!(matches!(
        xb.update_cells(&[(9, 0, 1.0)]),
        Err(CrossbarError::ShapeMismatch { .. })
    ));
}

#[test]
fn solve_requires_square() {
    let mut xb = Crossbar::new(8, CrossbarConfig::paper_default()).unwrap();
    let rect = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
    xb.program(&rect).unwrap();
    assert!(matches!(
        xb.solve(&[1.0, 2.0]),
        Err(CrossbarError::ShapeMismatch { .. })
    ));
    // But MVM works on rectangles.
    assert_eq!(xb.mvm(&[1.0, 0.0, 0.0]).unwrap().len(), 2);
}

#[test]
fn update_cells_moves_target_and_costs_run_phase() {
    let mut xb = Crossbar::new(8, CrossbarConfig::ideal()).unwrap();
    let a = test_matrix();
    xb.program(&a).unwrap();
    let setup_writes = xb.ledger().counts().setup_writes;
    assert_eq!(setup_writes, 16);
    assert_eq!(xb.ledger().counts().update_writes, 0);

    xb.update_cells(&[(0, 0, 2.0), (1, 1, 1.5)]).unwrap();
    assert_eq!(xb.ledger().counts().update_writes, 2);
    assert_eq!(xb.ledger().counts().setup_writes, 16);

    let x = [1.0, 0.0, 0.0, 0.0];
    let y = xb.mvm(&x).unwrap();
    assert!(
        (y[0] - 2.0).abs() < 0.02,
        "updated cell should read back ≈2.0, got {}",
        y[0]
    );
}

#[test]
fn update_cells_rejects_negative() {
    let mut xb = Crossbar::new(8, CrossbarConfig::paper_default()).unwrap();
    xb.program(&test_matrix()).unwrap();
    assert!(matches!(
        xb.update_cells(&[(0, 0, -1.0)]),
        Err(CrossbarError::NegativeCoefficient { .. })
    ));
}

#[test]
fn values_above_full_scale_are_stored_as_written() {
    // The block routine saturates realized values at zero only, as the
    // solvers' blocks always have: the full scale sets the conductance map
    // and the stuck-on value, not a clip on what a write stores.
    let mut xb = Crossbar::new(8, CrossbarConfig::ideal()).unwrap();
    xb.program(&test_matrix()).unwrap(); // full scale = 4.0
    xb.update_cells(&[(0, 1, 100.0)]).unwrap();
    let r = xb.realized().unwrap();
    assert_eq!(r[(0, 1)], 100.0, "exact writes store the target");
}

#[test]
fn ledger_charges_analog_ops() {
    let mut xb = Crossbar::new(8, CrossbarConfig::paper_default()).unwrap();
    xb.program(&test_matrix()).unwrap();
    xb.mvm(&[1.0; 4]).unwrap();
    xb.solve(&[1.0; 4]).unwrap();
    let c = xb.ledger().counts();
    assert_eq!(c.mvm_ops, 1);
    assert_eq!(c.solve_ops, 1);
    assert_eq!(c.adc_samples, 8);
    assert_eq!(c.dac_samples, 8);
    assert!(xb.ledger().run_time_s() > 0.0);
    assert!(xb.ledger().energy_j(&xb.config().cost.clone()) > 0.0);
}

#[test]
fn circuit_fidelity_close_to_functional_when_calibrated() {
    let a = test_matrix();
    let x = [0.8, -0.3, 1.0, 0.5];

    let mut func = Crossbar::new(8, CrossbarConfig::ideal()).unwrap();
    func.program(&a).unwrap();
    let yf = func.mvm(&x).unwrap();

    let cfg = CrossbarConfig {
        fidelity: Fidelity::Circuit,
        ..CrossbarConfig::ideal()
    };
    let mut circ = Crossbar::new(8, cfg).unwrap();
    circ.program(&a).unwrap();
    let yc = circ.mvm(&x).unwrap();

    let scale = ops::inf_norm(&yf).max(1e-9);
    for (f, c) in yf.iter().zip(&yc) {
        assert!(
            (f - c).abs() / scale < 0.02,
            "calibrated circuit MVM {c} vs functional {f}"
        );
    }
}

#[test]
fn circuit_transposed_fidelity_close_to_functional_when_calibrated() {
    let a = test_matrix();
    let y = [0.8, -0.3, 1.0, 0.5];

    let mut func = Crossbar::new(8, CrossbarConfig::ideal()).unwrap();
    func.program(&a).unwrap();
    let xf = func.mvm_transposed(&y).unwrap();

    let cfg = CrossbarConfig {
        fidelity: Fidelity::Circuit,
        ..CrossbarConfig::ideal()
    };
    let mut circ = Crossbar::new(8, cfg).unwrap();
    circ.program(&a).unwrap();
    let xc = circ.mvm_transposed(&y).unwrap();

    let scale = ops::inf_norm(&xf).max(1e-9);
    for (f, c) in xf.iter().zip(&xc) {
        assert!(
            (f - c).abs() / scale < 0.02,
            "calibrated circuit transposed MVM {c} vs functional {f}"
        );
    }
}

#[test]
fn raw_divider_readout_is_less_accurate_than_calibrated() {
    let a = test_matrix();
    let x = [0.8, 0.3, 1.0, 0.5];
    let exact = a.matvec(&x);
    let scale = ops::inf_norm(&exact);

    let base = CrossbarConfig {
        fidelity: Fidelity::Circuit,
        ..CrossbarConfig::ideal()
    };
    let mut cal = Crossbar::new(8, base).unwrap();
    cal.program(&a).unwrap();
    let ycal = cal.mvm(&x).unwrap();

    let raw_cfg = CrossbarConfig {
        readout: ReadoutMode::RawDivider,
        ..base
    };
    let mut raw = Crossbar::new(8, raw_cfg).unwrap();
    raw.program(&a).unwrap();
    let yraw = raw.mvm(&x).unwrap();

    let err_cal: f64 = ycal
        .iter()
        .zip(&exact)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / scale;
    let err_raw: f64 = yraw
        .iter()
        .zip(&exact)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / scale;
    assert!(
        err_raw > err_cal,
        "raw {err_raw} should exceed calibrated {err_cal}"
    );
}

#[test]
fn circuit_solve_recovers_solution() {
    let cfg = CrossbarConfig {
        fidelity: Fidelity::Circuit,
        ..CrossbarConfig::ideal()
    };
    let mut xb = Crossbar::new(8, cfg).unwrap();
    let a = test_matrix();
    xb.program(&a).unwrap();
    let b = [1.0, 2.0, 3.0, 4.0];
    let x = xb.solve(&b).unwrap();
    let back = a.matvec(&x);
    // The g_off parasitic is a real, uncorrected circuit effect; allow a
    // few percent.
    for (got, want) in back.iter().zip(&b) {
        assert!((got - want).abs() / 4.0 < 0.06, "{got} vs {want}");
    }
}

#[test]
fn stuck_off_faults_zero_out_cells() {
    let cfg = CrossbarConfig {
        faults: FaultModel::new(0.0, 1.0).unwrap(),
        ..CrossbarConfig::ideal()
    };
    let mut xb = Crossbar::new(8, cfg).unwrap();
    xb.program(&test_matrix()).unwrap();
    let y = xb.mvm(&[1.0; 4]).unwrap();
    assert!(
        ops::inf_norm(&y) < 1e-12,
        "all-stuck-off array must output zero"
    );
}

#[test]
fn deterministic_for_fixed_seed() {
    let cfg = CrossbarConfig::paper_default()
        .with_variation(20.0)
        .with_seed(99);
    let run = || {
        let mut xb = Crossbar::new(8, cfg).unwrap();
        xb.program(&test_matrix()).unwrap();
        xb.mvm(&[1.0, 2.0, 3.0, 4.0]).unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let mk = |seed| {
        let cfg = CrossbarConfig::paper_default()
            .with_variation(20.0)
            .with_seed(seed);
        let mut xb = Crossbar::new(8, cfg).unwrap();
        xb.program(&test_matrix()).unwrap();
        xb.mvm(&[1.0, 2.0, 3.0, 4.0]).unwrap()
    };
    assert_ne!(mk(1), mk(2));
}
