//! Property-based tests of the sensor substrate: RLE codec totality, ROI
//! geometry invariants, readout bookkeeping and sampling statistics.

use bliss_sensor::{rle, DigitalPixelSensor, RoiBox, SensorConfig, SramRng, SramRngConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rle_roundtrips_any_stream(
        stream in prop::collection::vec(0u16..1024, 0..600)
    ) {
        let encoded = rle::encode(&stream);
        let decoded = rle::decode(&encoded, stream.len()).unwrap();
        prop_assert_eq!(decoded, stream);
    }

    #[test]
    fn rle_never_expands_zero_dominant_streams(
        positions in prop::collection::vec(0usize..2000, 0..60)
    ) {
        let mut stream = vec![0u16; 2000];
        for &p in &positions {
            stream[p] = 777;
        }
        let encoded = rle::encode(&stream);
        prop_assert!(encoded.len() <= 2 * stream.len() + 8);
    }

    #[test]
    fn roi_clamp_is_idempotent_and_bounded(
        x1 in 0usize..200, y1 in 0usize..200,
        x2 in 0usize..200, y2 in 0usize..200,
        w in 1usize..120, h in 1usize..120
    ) {
        let roi = RoiBox::new(x1, y1, x2, y2);
        let clamped = roi.clamp_to(w, h);
        prop_assert!(clamped.x2 <= w && clamped.y2 <= h);
        prop_assert_eq!(clamped.clamp_to(w, h), clamped);
        prop_assert!(clamped.area() <= w * h);
    }

    #[test]
    fn iou_is_bounded_and_symmetric(
        a in (0usize..40, 0usize..40, 1usize..40, 1usize..40),
        b in (0usize..40, 0usize..40, 1usize..40, 1usize..40)
    ) {
        let ra = RoiBox::new(a.0, a.1, a.0 + a.2, a.1 + a.3);
        let rb = RoiBox::new(b.0, b.1, b.0 + b.2, b.1 + b.3);
        let i = ra.iou(&rb);
        prop_assert!((0.0..=1.0).contains(&i));
        prop_assert!((i - rb.iou(&ra)).abs() < 1e-6);
    }

    #[test]
    fn readout_stream_length_equals_roi_area(
        x1 in 0usize..24, y1 in 0usize..24,
        bw in 1usize..24, bh in 1usize..24,
        rate in 0.05f32..0.95
    ) {
        let mut sensor = DigitalPixelSensor::new(SensorConfig::miniature(32, 32));
        sensor.expose(&vec![0.5; 1024]);
        let roi = RoiBox::new(x1, y1, x1 + bw, y1 + bh).clamp_to(32, 32);
        let r = sensor.sparse_readout(roi, rate);
        prop_assert_eq!(r.stream.len(), r.roi.area());
        prop_assert_eq!(r.conversions as usize, r.sampled);
        prop_assert!(r.sampled <= r.roi.area());
    }

    #[test]
    fn sampling_rate_monotone_in_theta(seed in 0u64..500) {
        // Raising the threshold θ can only make sampling stricter; allow a
        // small slack for power-up noise between independent draws.
        let mut rng = SramRng::new(2000, SramRngConfig::default(), seed);
        let mut prev_count = 2000usize;
        for theta in [0u8, 3, 5, 7, 11] {
            let count = rng.sample_mask(theta).iter().filter(|&&b| b).count();
            prop_assert!(
                count <= prev_count + 80,
                "theta {theta}: count {count} rose past {prev_count}"
            );
            prev_count = count;
        }
        // Extremes are exact.
        prop_assert_eq!(rng.sample_mask(0).iter().filter(|&&b| b).count(), 2000);
        prop_assert_eq!(rng.sample_mask(11).iter().filter(|&&b| b).count(), 0);
    }

    #[test]
    fn eventification_detects_exactly_large_changes(
        idx in 0usize..256, delta in 0.08f32..0.4
    ) {
        let mut sensor = DigitalPixelSensor::new(SensorConfig::miniature(16, 16));
        let base = vec![0.5f32; 256];
        sensor.expose(&base);
        let _ = sensor.eventify();
        let mut moved = base.clone();
        moved[idx] = (0.5 + delta).min(1.0);
        sensor.expose(&moved);
        let events = sensor.eventify();
        prop_assert!(events.bit(idx % 16, idx / 16));
        // Far more than sigma: only tiny comparator offsets could add others.
        prop_assert!(events.count() <= 3);
    }
}
