//! The frames of one gradient-accumulation window learn on two threads, yet
//! training must stay bit-identical to the sequential loop, which is what
//! `JointTrainer::train_on` runs at one thread.
//!
//! The sequence has 5 steps per epoch and the runs 5 epochs (25 steps), so
//! with `grad_accum` 2 or 3 one window straddles an epoch boundary and the
//! last window is partial. A second `train_on` call then starts from the
//! partial window's unstepped gradients.

use bliss_eye::{render_sequence, EyeSequence, SequenceConfig};
use bliss_nn::Module;
use bliss_track::{JointTrainer, TrainConfig};

/// Every parameter's value and gradient bits, then every loss's bits.
fn fingerprint(trainer: &JointTrainer, losses: &[f32]) -> Vec<u32> {
    let mut params = trainer.vit().parameters();
    params.extend(trainer.roi_net().parameters());
    let mut bits = Vec::new();
    for p in &params {
        bits.extend(p.value().data().iter().map(|x| x.to_bits()));
        match p.grad_ref() {
            Some(g) => bits.extend(g.data().iter().map(|x| x.to_bits())),
            None => bits.push(u32::MAX),
        }
    }
    bits.extend(losses.iter().map(|x| x.to_bits()));
    bits
}

fn train(seq: &EyeSequence, grad_accum: usize, threads: usize) -> Vec<u32> {
    bliss_parallel::with_thread_count(threads, || {
        let mut cfg = TrainConfig::smoke_test();
        cfg.epochs = 5;
        cfg.grad_accum = grad_accum;
        let mut trainer = JointTrainer::new(cfg).unwrap();
        let mut losses = trainer.train_on(seq).unwrap();
        assert_eq!(losses.len(), 25);
        losses.extend(trainer.train_on(seq).unwrap());
        fingerprint(&trainer, &losses)
    })
}

#[test]
fn windows_learn_bit_identically_at_every_thread_count() {
    let seq = render_sequence(&SequenceConfig::miniature(6, 41));
    assert_eq!(seq.frames.len() - 1, 5, "5 steps per epoch");
    for grad_accum in [1, 2, 3] {
        let sequential = train(&seq, grad_accum, 1);
        for threads in [2, 8] {
            assert!(
                train(&seq, grad_accum, threads) == sequential,
                "grad_accum {grad_accum} at {threads} threads differs from the sequential loop"
            );
        }
    }
}
