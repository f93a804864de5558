//! Criterion micro-benchmarks of the hot kernels in the BlissCam pipeline:
//! dense linear algebra (matmul, multi-head attention), the ViT's
//! elementwise ops (GELU, softmax, bias broadcast, and the
//! `tanh`/`exp`/`log`/`cos` ports beside the libm calls they replace), the
//! fused plan steps (block attention, the int8 linear site), the
//! front end's imaging noise and ROI-input assembly, sensor eventification,
//! readout, die build and SRAM sampling, run-length coding, the procedural
//! renderer,
//! and the `plan_vs_tape` group — compiled-plan vs autograd-tape batched
//! inference, with per-iteration heap-allocation counts recorded alongside
//! the timings. The `*_1thread` / `*_4threads` variants pin the
//! `bliss_parallel` pool width so thread scaling is recorded alongside the
//! default-configuration numbers.

// The counting allocator behind the `plan_vs_tape` allocation tallies needs
// `unsafe` (GlobalAlloc).
#![allow(unsafe_code)]

use bliss_eye::{
    render_sequence, EyeModel, EyeModelConfig, Gaze, GazeState, ImagingNoise, MovementPhase,
    SequenceConfig,
};
use bliss_nn::{MultiHeadAttention, Tape};
use bliss_parallel::{with_min_parallel_work, with_thread_count};
use bliss_sensor::{rle, DigitalPixelSensor, RoiBox, SensorConfig, SramRng};
use bliss_tensor::{NdArray, Tensor};
use bliss_track::{PlannedBatch, RoiNetConfig, SparseViT, ViTConfig};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Pass-through allocator that tallies allocations (on any thread) while
/// armed; backs the `plan_vs_tape_*_allocs_per_iter` rows in the report.
struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to `System`; the counters are
// lock-free atomics and never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Counts heap allocations performed (process-wide) while `f` runs.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(512);
    let a = NdArray::randn(&mut rng, &[512, 512], 1.0);
    let b = NdArray::randn(&mut rng, &[512, 512], 1.0);
    c.bench_function("matmul_512", |bch| {
        bch.iter(|| std::hint::black_box(a.matmul(std::hint::black_box(&b)).unwrap()))
    });
    c.bench_function("matmul_512_1thread", |bch| {
        bch.iter(|| with_thread_count(1, || std::hint::black_box(a.matmul(&b).unwrap())))
    });
    c.bench_function("matmul_512_4threads", |bch| {
        bch.iter(|| with_thread_count(4, || std::hint::black_box(a.matmul(&b).unwrap())))
    });
}

fn bench_attention(c: &mut Criterion) {
    // Paper-scale channel width (192, 3 heads) over a quarter-occupancy
    // token set (256 of 1000 patches).
    let mut rng = StdRng::seed_from_u64(7);
    let mha = MultiHeadAttention::new(&mut rng, 192, 3);
    let x = Tensor::constant(NdArray::randn(&mut rng, &[256, 192], 1.0));
    let forward = || {
        let x = std::hint::black_box(&x);
        std::hint::black_box(mha.forward(&mut Tape, x, &[(0, 256)]).unwrap())
    };
    c.bench_function("mha_forward_192d_256t", |bch| bch.iter(forward));
    c.bench_function("mha_forward_1thread", |bch| {
        bch.iter(|| with_thread_count(1, forward))
    });
    c.bench_function("mha_forward_4threads", |bch| {
        bch.iter(|| with_thread_count(4, forward))
    });
}

/// The ViT's elementwise hot ops at one block's shapes on the miniature
/// model (84 tokens, width 48): GELU over the MLP hidden activation, softmax
/// over an attention map, and the QKV bias broadcast. Then the two scalar
/// ports against the host libm over 16 K values each, so the port and the
/// call it replaces sit side by side in the report.
fn bench_elementwise(c: &mut Criterion) {
    use bliss_parallel::math::{cos_f32, log_f32};
    use bliss_tensor::kernels::{
        add_row_assign, exp_f32, exp_f32_in_place, gelu_into, softmax_rows_into, tanh_f32,
    };
    use std::hint::black_box;

    let mut rng = StdRng::seed_from_u64(84);
    let hidden = NdArray::randn(&mut rng, &[84, 192], 1.5);
    let mut out = vec![0.0f32; 84 * 192];
    c.bench_function("gelu_84x192", |b| {
        b.iter(|| {
            gelu_into(black_box(hidden.data()), &mut out);
            black_box(&out);
        })
    });
    let scores = NdArray::randn(&mut rng, &[84, 84], 2.0);
    let mut probs = vec![0.0f32; 84 * 84];
    c.bench_function("softmax_rows_84x84", |b| {
        b.iter(|| {
            softmax_rows_into(black_box(scores.data()), 84, &mut probs);
            black_box(&probs);
        })
    });
    let bias = NdArray::randn(&mut rng, &[144], 0.1);
    let mut qkv = NdArray::randn(&mut rng, &[84, 144], 1.0).data().to_vec();
    c.bench_function("add_row_84x144", |b| {
        b.iter(|| {
            add_row_assign(black_box(&mut qkv), black_box(bias.data()));
        })
    });

    // Arguments in the ranges the ViT feeds them: GELU's tanh sees roughly
    // [-4, 4], softmax's exp sees non-positive shifted scores.
    let xs: Vec<f32> = (0..16_384).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
    let neg: Vec<f32> = xs.iter().map(|x| -x.abs() * 4.0).collect();
    // Generic in `f`, so each function is inlined into its own loop.
    fn map(c: &mut Criterion, name: &str, src: &[f32], f: impl Fn(f32) -> f32) {
        let mut ys = vec![0.0f32; src.len()];
        c.bench_function(name, |b| {
            b.iter(|| {
                for (y, &x) in ys.iter_mut().zip(black_box(src)) {
                    *y = f(x);
                }
                black_box(&ys);
            })
        });
    }
    map(c, "tanh_f32_16k", &xs, tanh_f32);
    map(c, "libm_tanh_16k", &xs, f32::tanh);
    map(c, "exp_f32_16k", &neg, exp_f32);
    map(c, "libm_exp_16k", &neg, f32::exp);
    let mut ys = neg.clone();
    c.bench_function("exp_f32_in_place_16k", |b| {
        b.iter(|| {
            ys.copy_from_slice(black_box(&neg));
            exp_f32_in_place(&mut ys);
            black_box(&ys);
        })
    });

    // The Box–Muller transform's arguments: u1 in [EPSILON, 1) for the
    // log, 2 pi u2 in [0, 2 pi) for the cosine.
    let u1: Vec<f32> = (0..16_384)
        .map(|_| rng.gen_range(f32::EPSILON..1.0))
        .collect();
    let angle: Vec<f32> = (0..16_384)
        .map(|_| std::f32::consts::TAU * rng.gen_range(0.0f32..1.0))
        .collect();
    map(c, "logf_f32_16k", &u1, log_f32);
    map(c, "libm_logf_16k", &u1, f32::ln);
    map(c, "cosf_f32_16k", &angle, cos_f32);
    map(c, "libm_cosf_16k", &angle, f32::cos);
}

/// The two fused plan steps at one miniature block's shapes (84 tokens,
/// width 48, 3 heads): block attention over the fused QKV operand, and an
/// int8 linear site at the MLP's up projection (84 x 48 x 192), next to the
/// integer GEMM it replaced and still pins it against.
fn bench_fused_steps(c: &mut Criterion) {
    use bliss_tensor::{ExecPlan, GraphBuilder, QuantCalibration};
    use std::hint::black_box;

    let mut rng = StdRng::seed_from_u64(48);
    let qkv = NdArray::randn(&mut rng, &[84, 144], 1.0);
    let mut g = GraphBuilder::new();
    let x = g.input(&[84, 144]);
    let y = g
        .block_attention(x, &[(0, 84)], 3, 1.0 / 4.0)
        .expect("valid attention shape");
    g.mark_output(y);
    let attention = ExecPlan::compile(g).expect("attention plan");
    c.bench_function("block_attention_84x48_h3", |b| {
        b.iter(|| attention.execute(&[black_box(qkv.data())], &[]).unwrap())
    });

    let act = NdArray::randn(&mut rng, &[84, 48], 1.0);
    let w = Tensor::parameter(NdArray::randn(&mut rng, &[48, 192], 0.2));
    let build = || {
        let mut g = GraphBuilder::new();
        let x = g.input(&[84, 48]);
        let wp = g.param(&w);
        let y = g.matmul(x, wp).expect("matching shapes");
        g.mark_output(y);
        g
    };
    let mut cal = QuantCalibration::new();
    cal.observe(w.id(), act.data());
    let linear = ExecPlan::compile_quantized(build(), &cal.finish(&build())).expect("int8 plan");
    c.bench_function("int8_linear_84x48x192", |b| {
        b.iter(|| linear.execute(&[black_box(act.data())], &[]).unwrap())
    });
    let a8: Vec<i8> = (0..84 * 48).map(|i| (i * 37 % 255) as i8).collect();
    let bt8: Vec<i8> = (0..192 * 48).map(|i| (i * 91 % 255) as i8).collect();
    let mut acc = vec![0i32; 84 * 192];
    c.bench_function("matmul_i8t_84x48x192", |b| {
        b.iter(|| {
            bliss_parallel::matmul_i8t_into(black_box(&a8), black_box(&bt8), 48, 192, &mut acc);
            black_box(&acc);
        })
    });
}

/// The two per-frame front-end stages the libm-free kernels target: the
/// imaging noise on a rendered frame, and the ROI net's input assembly
/// from that frame's event map and segmentation labels.
fn bench_frontend(c: &mut Criterion) {
    use std::hint::black_box;

    let seq = render_sequence(&SequenceConfig::miniature(2, 3));
    let noise = ImagingNoise::default();
    let mut rng = StdRng::seed_from_u64(5);
    let mut noisy = Vec::new();
    c.bench_function("imaging_noise_160x100", |b| {
        b.iter(|| {
            noise.apply_into(black_box(&seq.frames[1].clean), 1.0, &mut rng, &mut noisy);
            black_box(&noisy);
        })
    });

    let mut sensor = DigitalPixelSensor::new(SensorConfig::miniature(160, 100));
    sensor.expose(&noise.apply(&seq.frames[0].clean, 1.0, &mut rng));
    let _ = sensor.eventify();
    sensor.expose(&noisy);
    let events = sensor.eventify().to_f32();
    let cfg = RoiNetConfig::miniature(160, 100);
    let seg = &seq.frames[1].mask;
    c.bench_function("roi_input_160x100", |b| {
        b.iter(|| black_box(cfg.make_input(black_box(&events), black_box(seg))))
    });
}

fn bench_eventify(c: &mut Criterion) {
    let mut sensor = DigitalPixelSensor::new(SensorConfig::miniature(160, 100));
    let img_a = vec![0.5f32; 16_000];
    let img_b: Vec<f32> = (0..16_000)
        .map(|i| if i % 7 == 0 { 0.8 } else { 0.5 })
        .collect();
    sensor.expose(&img_a);
    let _ = sensor.eventify();
    c.bench_function("sensor_eventify_160x100", |b| {
        b.iter(|| {
            sensor.expose(std::hint::black_box(&img_b));
            std::hint::black_box(sensor.eventify())
        })
    });
}

fn bench_sparse_readout(c: &mut Criterion) {
    let mut sensor = DigitalPixelSensor::new(SensorConfig::miniature(160, 100));
    let img = vec![0.5f32; 16_000];
    sensor.expose(&img);
    let roi = RoiBox::new(40, 25, 120, 75);
    c.bench_function("sensor_sparse_readout_20pct", |b| {
        b.iter(|| std::hint::black_box(sensor.sparse_readout(roi, 0.2)))
    });
}

/// The die build (comparator offsets, SRAM thresholds and the 64-power-up
/// θ-LUT calibration) every serving session pays once, and the per-frame
/// SRAM power-up mask on its own.
fn bench_sensor_die(c: &mut Criterion) {
    let config = SensorConfig::miniature(160, 100);
    c.bench_function("sensor_die_build_160x100", |b| {
        b.iter(|| std::hint::black_box(DigitalPixelSensor::new(std::hint::black_box(config))))
    });
    let mut sram = SramRng::new(config.pixels(), config.sram_rng, config.seed);
    let mut mask = Vec::new();
    c.bench_function("sram_sample_mask_160x100", |b| {
        b.iter(|| {
            sram.sample_mask_into(5, &mut mask);
            std::hint::black_box(&mask);
        })
    });
}

fn bench_rle(c: &mut Criterion) {
    // A realistic sparse stream: ~20% occupancy.
    let stream: Vec<u16> = (0..40_000u32)
        .map(|i| {
            if i % 5 == 0 {
                500 + (i % 300) as u16
            } else {
                0
            }
        })
        .collect();
    let encoded = rle::encode(&stream);
    c.bench_function("rle_encode_40k", |b| {
        b.iter(|| std::hint::black_box(rle::encode(std::hint::black_box(&stream))))
    });
    c.bench_function("rle_decode_40k", |b| {
        b.iter(|| {
            std::hint::black_box(rle::decode(std::hint::black_box(&encoded), 40_000).unwrap())
        })
    });
}

fn bench_renderer(c: &mut Criterion) {
    let model = EyeModel::new(EyeModelConfig::for_resolution(160, 100), 1);
    let state = GazeState {
        gaze: Gaze::new(5.0, -3.0),
        openness: 1.0,
        pupil_dilation: 1.0,
        phase: MovementPhase::Fixation,
    };
    c.bench_function("render_frame_160x100", |b| {
        b.iter(|| std::hint::black_box(model.render(std::hint::black_box(&state))))
    });
    c.bench_function("render_sequence_8_frames", |b| {
        b.iter_batched(
            || SequenceConfig::miniature(8, 3),
            |cfg| std::hint::black_box(render_sequence(&cfg)),
            BatchSize::SmallInput,
        )
    });
}

/// Per-region dispatch overhead: the cost of *starting and joining* a
/// 4-share parallel region whose shares do trivial work, under three
/// execution strategies. `spawn_per_region` replicates the PR-2..4 era
/// (`std::thread::scope`, one OS thread spawned and joined per share);
/// `persistent_pool` is the new generation-stamped handoff (forced past the
/// small-region cutoff with a zero threshold); `serial_cutoff` is what tiny
/// regions now actually do — skip dispatch entirely.
fn bench_pool_overhead(c: &mut Criterion) {
    const SHARES: usize = 4;
    let mut buf = vec![0u64; SHARES * 16];

    c.bench_function("pool_overhead_spawn_per_region", |b| {
        b.iter(|| {
            let chunk = buf.len() / SHARES;
            std::thread::scope(|scope| {
                for (i, part) in buf.chunks_mut(chunk).enumerate() {
                    scope.spawn(move || {
                        for x in part.iter_mut() {
                            *x = x.wrapping_add(i as u64);
                        }
                    });
                }
            });
            std::hint::black_box(buf[0]);
        })
    });

    c.bench_function("pool_overhead_persistent_pool", |b| {
        with_thread_count(SHARES, || {
            with_min_parallel_work(0, || {
                b.iter(|| {
                    bliss_parallel::par_chunks(&mut buf, 16, 1, |i, part| {
                        for x in part.iter_mut() {
                            *x = x.wrapping_add(i as u64);
                        }
                    });
                    std::hint::black_box(buf[0]);
                })
            })
        });
    });

    c.bench_function("pool_overhead_serial_cutoff", |b| {
        with_thread_count(SHARES, || {
            b.iter(|| {
                bliss_parallel::par_chunks(&mut buf, 16, 1, |i, part| {
                    for x in part.iter_mut() {
                        *x = x.wrapping_add(i as u64);
                    }
                });
                std::hint::black_box(buf[0]);
            })
        });
    });
}

/// Compiled-plan vs autograd-tape batched inference on the same
/// serving-shaped two-frame sparse batch (the alloc-counter test's load):
/// per-iteration wall time for both dispatch paths, then per-iteration heap
/// allocation counts for both, recorded as `*_allocs_per_iter` value rows.
/// Steady state must show 0 planned allocations against the tape's
/// several-hundred node headers.
fn bench_plan_vs_tape(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x5CA7C4);
    let vit = SparseViT::new(&mut rng, ViTConfig::miniature(160, 100));
    let synth = |seed: u64, rate: f32| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut image = vec![0.0f32; 16_000];
        let mut mask = vec![0.0f32; 16_000];
        for i in 0..16_000 {
            if rng.gen::<f32>() < rate {
                mask[i] = 1.0;
                image[i] = rng.gen::<f32>();
            }
        }
        (image, mask)
    };
    let a = synth(1, 0.06);
    let b = synth(2, 0.02);
    let batch: Vec<(&[f32], &[f32])> = vec![(&a.0, &a.1), (&b.0, &b.1)];

    // Warm-up: compile the plan, populate the scratch pools on both paths.
    let mut out = PlannedBatch::new();
    for _ in 0..2 {
        vit.forward_batch_into(&batch, &mut out).unwrap();
        std::hint::black_box(&vit.forward_batch(&batch).unwrap());
    }

    c.bench_function("plan_vs_tape_planned_forward_batch", |bch| {
        bch.iter(|| {
            vit.forward_batch_into(&batch, &mut out).unwrap();
            std::hint::black_box(&out);
        })
    });
    c.bench_function("plan_vs_tape_tape_forward_batch", |bch| {
        bch.iter(|| std::hint::black_box(vit.forward_batch(&batch).unwrap()))
    });

    let planned_allocs = count_allocs(|| {
        vit.forward_batch_into(&batch, &mut out).unwrap();
        std::hint::black_box(&out);
    });
    let tape_allocs = count_allocs(|| {
        std::hint::black_box(&vit.forward_batch(&batch).unwrap());
    });
    c.report_value(
        "plan_vs_tape_planned_allocs_per_iter",
        planned_allocs as f64,
        "allocs",
    );
    c.report_value(
        "plan_vs_tape_tape_allocs_per_iter",
        tape_allocs as f64,
        "allocs",
    );
}

/// Telemetry overhead on the instrumented hot path: the planned batched
/// forward plus the serve layer's per-frame span record pattern, timed with
/// telemetry OFF and ON in interleaved rounds (min-of-rounds on both arms
/// so scheduler noise cancels). The closure is identical in both arms —
/// exactly the production shape, where the disabled path is one branch per
/// record site. Reported as `telemetry_overhead_pct`; with
/// `BLISS_TELEMETRY_GATE=1` the bench *fails* if the overhead exceeds 3%.
fn bench_telemetry_overhead(c: &mut Criterion) {
    use bliss_telemetry::{record_span, SpanRecord, Stage};

    let mut rng = StdRng::seed_from_u64(0x5CA7C4);
    let vit = SparseViT::new(&mut rng, ViTConfig::miniature(160, 100));
    let synth = |seed: u64, rate: f32| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut image = vec![0.0f32; 16_000];
        let mut mask = vec![0.0f32; 16_000];
        for i in 0..16_000 {
            if rng.gen::<f32>() < rate {
                mask[i] = 1.0;
                image[i] = rng.gen::<f32>();
            }
        }
        (image, mask)
    };
    let a = synth(1, 0.06);
    let b = synth(2, 0.02);
    let batch: Vec<(&[f32], &[f32])> = vec![(&a.0, &a.1), (&b.0, &b.1)];

    let mut out = PlannedBatch::new();
    for _ in 0..3 {
        vit.forward_batch_into(&batch, &mut out).unwrap();
    }

    // Pre-size the ring once; rounds clear it so the ON arm never measures
    // the drop-on-full path.
    bliss_telemetry::init_spans(1 << 14);

    let mut frame = 0u32;
    let mut iteration = |out: &mut PlannedBatch| {
        vit.forward_batch_into(&batch, out).unwrap();
        for (i, stage) in Stage::ALL.iter().enumerate() {
            record_span(SpanRecord {
                stage: *stage,
                frame,
                virt_start_s: f64::from(frame) * 8.3e-3 + i as f64 * 1e-3,
                virt_dur_s: 1e-3,
                ..SpanRecord::ZERO
            });
        }
        frame = frame.wrapping_add(1);
        std::hint::black_box(&out);
    };

    const ROUNDS: usize = 12;
    const ITERS: usize = 25;
    let (mut best_off_s, mut best_on_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        bliss_telemetry::set_enabled(false);
        let t = std::time::Instant::now();
        for _ in 0..ITERS {
            iteration(&mut out);
        }
        best_off_s = best_off_s.min(t.elapsed().as_secs_f64());

        bliss_telemetry::set_enabled(true);
        let t = std::time::Instant::now();
        for _ in 0..ITERS {
            iteration(&mut out);
        }
        best_on_s = best_on_s.min(t.elapsed().as_secs_f64());
        bliss_telemetry::set_enabled(false);
        bliss_telemetry::clear_spans();
    }

    let overhead_pct = (best_on_s - best_off_s) / best_off_s * 100.0;
    c.report_value("telemetry_overhead_pct", overhead_pct, "%");
    if std::env::var_os("BLISS_TELEMETRY_GATE").is_some_and(|v| v == "1") {
        assert!(
            overhead_pct <= 3.0,
            "telemetry overhead {overhead_pct:.2}% exceeds the 3% budget \
             on the planned batched-inference hot path"
        );
    }
}

// Renderer and eventify run first: on some virtualised hosts the hashed
// readout loops leave the CPU in a state that slows unrelated FP code (see
// the ROADMAP "host-specific FP pathology" note), which would poison the
// later measurements in this process.
criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_renderer, bench_eventify, bench_frontend, bench_matmul, bench_attention,
        bench_elementwise, bench_fused_steps, bench_sparse_readout, bench_sensor_die, bench_rle, bench_pool_overhead,
        bench_plan_vs_tape, bench_telemetry_overhead
}
criterion_main!(kernels);
