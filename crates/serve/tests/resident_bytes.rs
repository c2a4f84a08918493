//! Resident-bytes regression harness: a registered variant holds each
//! weight once, in its kernel operand, plus — when protected — its
//! SEC-DED storage words.
//!
//! A counting `#[global_allocator]` tracks live heap bytes. Each case
//! registers one variant into a fresh registry (after a warm-up
//! registration of the same spec has filled every process-wide cache)
//! and pins the bytes that stay live to the operand, the biases and the
//! protected storage, plus a stated slack for the small parts (frozen
//! plans, codebooks, packed-tile tables, strings and the map entry). An
//! f32 copy of the weights next to packed codes, or an f32 master next
//! to protected storage, adds `4 · weights` bytes — several times the
//! slack — so a reintroduced copy fails here deterministically rather
//! than only in a benchmark's RSS.
//!
//! This binary holds exactly one test, so nothing else allocates while
//! the counter is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use adaptivfloat::FormatKind;
use af_models::ModelFamily;
use af_serve::{ModelRegistry, VariantSpec};

struct CountingAllocator;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter update, which touches no allocated memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's `layout` guarantees pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's `layout` guarantees pass through as-is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The fleet models' widths: 28,672 weights, 112 KiB in f32.
const DIMS: [usize; 4] = [64, 128, 128, 32];

/// Slack for everything but the weights, biases and storage words:
/// per layer a 2^n-entry decode table, a storage codec and its code
/// index, a frozen activation plan and packed-tile metadata; per
/// variant the spec, labels, recipe and the registry entry. Measured
/// at 1.6–5.4 KiB for the four variants here, against 112 KiB for one
/// f32 weight copy and 28 KiB for one copy of the 8-bit codes.
const SLACK: usize = 8 * 1024;

fn live() -> isize {
    LIVE.load(Ordering::SeqCst)
}

/// Live bytes a registered `spec` adds to a fresh registry, once a
/// warm-up registration of the same spec has filled every cache.
fn resident(spec: &VariantSpec) -> usize {
    drop(ModelRegistry::new().register(spec).expect("warm-up build"));
    let registry = ModelRegistry::new();
    let before = live();
    let variant = registry.register(spec).expect("register");
    let bytes = live() - before;
    drop(variant);
    assert!(bytes > 0, "{}: nothing resident", spec.id);
    bytes as usize
}

#[test]
fn registered_variants_hold_each_weight_once() {
    let weights: usize = DIMS.windows(2).map(|w| w[0] * w[1]).sum();
    let biases = 4 * DIMS[1..].iter().sum::<usize>();
    // SEC-DED storage: 8-bit codes packed eight to a 64-bit word, plus
    // one parity byte per word.
    let secded = weights.div_ceil(8) * 9;
    let af8 = |id: &str| {
        VariantSpec::quantized(
            id,
            ModelFamily::Transformer,
            FormatKind::AdaptivFloat,
            8,
            7,
            &DIMS,
        )
    };
    let cases = [
        // Dense: the f32 matrix is the operand.
        (af8("dense"), 4 * weights),
        // Fused: the packed codes are the only weight copy.
        (af8("fused").fused(), weights),
        // Protected: the f32 operand plus the storage words, no master.
        (af8("protected").protected(), 4 * weights + secded),
        // Protected and fused: codes twice, once per purpose.
        (af8("protected-fused").protected().fused(), weights + secded),
    ];
    for (spec, operand) in cases {
        let want = operand + biases;
        let got = resident(&spec);
        println!("{}: {got} bytes resident, {want} expected", spec.id);
        assert!(
            got >= want,
            "{}: {got} bytes resident, less than the {want} its operand and biases need",
            spec.id
        );
        assert!(
            got <= want + SLACK,
            "{}: {got} bytes resident, more than {want} + {SLACK} slack — a weight copy came back",
            spec.id
        );
    }
}
