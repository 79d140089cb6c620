//! Property tests for the wire codec.
//!
//! The contract under test: encoding is **bijective on frames** — decode
//! of any encoded message succeeds and re-encodes to the identical bytes
//! (bitwise, NaN payloads included) — and decoding is **total** on
//! arbitrary bytes: truncated, oversized, wrong-version, and corrupt
//! frames return structured errors, never panic, never allocate off a
//! forged length.

use memlp_core::BudgetCause;
use memlp_lp::LpStatus;
use memlp_serve::codec::{
    decode_request, decode_response, encode_request, encode_response, DecodeError, HealthInfo,
    Request, Response, SolutionBody, SolveJob, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// Arbitrary IEEE-754 bit patterns — includes NaN, ±∞, subnormals — so
/// the round trip is checked on payloads `PartialEq` cannot compare.
fn wild_f64() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(f64::from_bits)
}

fn f64s(max: usize) -> BoxedStrategy<Vec<f64>> {
    proptest::collection::vec(wild_f64(), 0..max).boxed()
}

fn tag() -> BoxedStrategy<String> {
    proptest::collection::vec(97u8..123, 0..12)
        .prop_map(|b| String::from_utf8(b).expect("ascii"))
        .boxed()
}

fn solve_job() -> BoxedStrategy<SolveJob> {
    (
        tag(),
        (0u32..64, 0u32..64),
        f64s(48),
        f64s(24),
        (f64s(24), 0u32..500, 0u32..500),
    )
        .prop_map(
            |(family, (rows, cols), a, b, (c, max_iters, deadline_ticks))| SolveJob {
                family,
                rows,
                cols,
                a,
                b,
                c,
                max_iters,
                deadline_ticks,
            },
        )
        .boxed()
}

fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        solve_job().prop_map(Request::Solve),
        Just(Request::Health),
        Just(Request::Drain),
    ]
    .boxed()
}

fn status() -> BoxedStrategy<LpStatus> {
    prop_oneof![
        Just(LpStatus::Optimal),
        Just(LpStatus::Infeasible),
        Just(LpStatus::Unbounded),
        Just(LpStatus::IterationLimit),
        Just(LpStatus::NumericalFailure),
    ]
    .boxed()
}

fn degraded() -> BoxedStrategy<Option<BudgetCause>> {
    prop_oneof![
        Just(None),
        Just(Some(BudgetCause::MaxIters)),
        Just(Some(BudgetCause::DeadlineExceeded)),
    ]
    .boxed()
}

fn solution_body() -> BoxedStrategy<SolutionBody> {
    (
        (status(), degraded(), wild_f64(), 0u64..10_000),
        (f64s(24), f64s(24)),
        (0u32..8, 0u32..8, any::<bool>(), any::<bool>()),
        (0u64..1 << 40, 0u64..1 << 40, any::<bool>(), 0u64..1 << 40),
    )
        .prop_map(
            |(
                (status, degraded, objective, iterations),
                (x, y),
                (retries, escalations, saw_faults, used_digital),
                (cells_written, cells_skipped, warm_start, latency_us),
            )| SolutionBody {
                status,
                degraded,
                objective,
                iterations,
                x,
                y,
                retries,
                escalations,
                saw_faults,
                used_digital,
                cells_written,
                cells_skipped,
                warm_start,
                latency_us,
            },
        )
        .boxed()
}

fn response() -> BoxedStrategy<Response> {
    prop_oneof![
        solution_body().prop_map(Response::Solution),
        (0u32..100_000, 0u32..10_000).prop_map(|(retry_after_hint_ms, queue_depth)| {
            Response::Overloaded {
                retry_after_hint_ms,
                queue_depth,
            }
        }),
        (
            (any::<bool>(), any::<bool>()),
            (0u32..1000, 0u32..1000, 0u32..64),
            (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        )
            .prop_map(
                |(
                    (ready, draining),
                    (queued, capacity, workers),
                    (admitted, completed, rejected),
                )| {
                    Response::Health(HealthInfo {
                        ready,
                        draining,
                        queued,
                        capacity,
                        workers,
                        admitted,
                        completed,
                        rejected,
                    })
                },
            ),
        tag().prop_map(|message| Response::Error { message }),
        (0u64..1 << 40).prop_map(|completed| Response::DrainAck { completed }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode → encode reproduces the original frame bytes
    /// exactly. Byte-level comparison (not `PartialEq` on the message)
    /// keeps NaN payloads honest.
    #[test]
    fn request_roundtrip_is_bitwise(req in request()) {
        let frame = encode_request(&req);
        let decoded = decode_request(&frame).expect("well-formed frame");
        prop_assert_eq!(encode_request(&decoded), frame);
    }

    #[test]
    fn response_roundtrip_is_bitwise(resp in response()) {
        let frame = encode_response(&resp);
        let decoded = decode_response(&frame).expect("well-formed frame");
        prop_assert_eq!(encode_response(&decoded), frame);
    }

    /// Every strict prefix of a valid frame is rejected as truncated —
    /// and, critically, without panicking.
    #[test]
    fn truncated_frames_are_rejected(req in request(), cut in 0.0f64..1.0) {
        let frame = encode_request(&req);
        let keep = ((frame.len() - 1) as f64 * cut) as usize;
        prop_assert_eq!(decode_request(&frame[..keep]), Err(DecodeError::Truncated));
    }

    /// Flipping the version byte fails cleanly regardless of payload.
    #[test]
    fn wrong_version_is_rejected(req in request(), version in 0u8..255) {
        let mut frame = encode_request(&req);
        prop_assume!(version != PROTOCOL_VERSION);
        frame[4] = version;
        prop_assert_eq!(decode_request(&frame), Err(DecodeError::BadVersion(version)));
    }

    /// A forged length prefix above the cap is refused before any body
    /// bytes are even considered (so before any allocation).
    #[test]
    fn oversized_declarations_are_rejected(extra in 1u32..1_000_000) {
        let declared = MAX_FRAME_BYTES + extra;
        let frame = declared.to_le_bytes().to_vec();
        prop_assert_eq!(
            decode_request(&frame),
            Err(DecodeError::Oversized { declared })
        );
    }

    /// Arbitrary garbage never panics the decoder (requests and
    /// responses share the frame layer, so exercise both).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..255, 0..256)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Trailing bytes after a complete body are flagged, not ignored —
    /// a desynced stream must fail loudly.
    #[test]
    fn trailing_bytes_are_rejected(req in request(), extra in 1usize..16) {
        let mut frame = encode_request(&req);
        frame.extend(std::iter::repeat_n(0xAB, extra));
        prop_assert_eq!(decode_request(&frame), Err(DecodeError::Trailing(extra)));
    }
}

/// A response kind fed to the request decoder (and vice versa) is an
/// error, not a misparse: the two directions reject each other's kinds.
#[test]
fn direction_confusion_is_rejected() {
    let resp = encode_response(&Response::DrainAck { completed: 7 });
    assert!(matches!(
        decode_request(&resp),
        Err(DecodeError::BadKind(20))
    ));
    let req = encode_request(&Request::Health);
    assert!(matches!(
        decode_response(&req),
        Err(DecodeError::BadKind(2))
    ));
}

/// Out-of-range discriminants inside an otherwise valid frame fail as
/// `BadField` instead of wrapping around.
#[test]
fn bad_discriminants_are_rejected() {
    let mut frame = encode_response(&Response::Solution(SolutionBody {
        status: LpStatus::Optimal,
        degraded: None,
        objective: 1.0,
        iterations: 3,
        x: vec![],
        y: vec![],
        retries: 0,
        escalations: 0,
        saw_faults: false,
        used_digital: false,
        cells_written: 0,
        cells_skipped: 0,
        warm_start: false,
        latency_us: 10,
    }));
    // Byte 6 is the status discriminant (after len + version + kind).
    frame[6] = 99;
    assert_eq!(
        decode_response(&frame),
        Err(DecodeError::BadField("status"))
    );
}
