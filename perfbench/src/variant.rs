//! Seeded variants of the application models.
//!
//! A held-out seed must really change the inputs, or a change could be
//! tuned to one fixed suite. Each array reference's constant term moves
//! by a seeded whole number of chunks — one chunk either way, each with
//! probability 1/16, else none — and a move that would leave the array
//! is reversed or dropped (checked with `LoopNest::validate_bounds`).
//! Small moves keep each app's character while changing which
//! iterations share data. Seed 0 is the unmodified suite.

use crate::trace::Tracer;
use cachemap_polyhedral::{AffineExpr, Program};
use cachemap_util::rng::XorShift64;

/// Chunk size the shifts are measured in: the paper's 64 KB stripe.
const PAPER_CHUNK_BYTES: u64 = 64 * 1024;

/// The variant of `program` for `seed`.
pub fn variant(program: &Program, seed: u64, tr: &mut Tracer) -> Program {
    let mut out = program.clone();
    if seed == 0 {
        return out;
    }
    let mut rng = XorShift64::new(seed ^ fnv1a(program.name.as_bytes()));
    let Program { arrays, nests, .. } = &mut out;
    for nest in nests.iter_mut() {
        for ri in 0..nest.refs.len() {
            let shift = match rng.next_below(16) {
                0 => -1,
                1 => 1,
                _ => 0,
            };
            let r = &nest.refs[ri];
            let Some(last) = r.subscripts.len().checked_sub(1) else {
                continue;
            };
            let elem_size = arrays[r.array].elem_size;
            if shift == 0
                || r.subscripts[last].modulus().is_some()
                || !PAPER_CHUNK_BYTES.is_multiple_of(elem_size)
            {
                continue;
            }
            let step = (PAPER_CHUNK_BYTES / elem_size) as i64;
            for s in [shift, -shift] {
                let mut trial = nest.clone();
                let sub = &mut trial.refs[ri].subscripts[last];
                *sub = sub.plus(&AffineExpr::constant(s * step));
                let ok = tr.span("polyhedral.validate_bounds", 0, |_| {
                    trial.validate_bounds(arrays).is_ok()
                });
                if ok {
                    *nest = trial;
                    break;
                }
            }
        }
    }
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemap_workloads::{suite, Scale};

    #[test]
    fn seed_zero_is_the_unmodified_program() {
        let mut tr = Tracer::new(false);
        for app in suite(Scale::Test) {
            assert_eq!(variant(&app.program, 0, &mut tr), app.program);
        }
    }

    #[test]
    fn variants_stay_in_bounds_and_depend_on_the_seed() {
        let mut tr = Tracer::new(false);
        let mut changed = 0;
        for app in suite(Scale::Test) {
            let a = variant(&app.program, 7, &mut tr);
            assert_eq!(a, variant(&app.program, 7, &mut tr), "deterministic");
            for n in &a.nests {
                n.validate_bounds(&a.arrays).unwrap();
            }
            changed += usize::from(a != app.program);
        }
        assert!(changed > 0, "a nonzero seed changes some app");
    }
}
