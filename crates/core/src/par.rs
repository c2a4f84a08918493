//! A minimal scoped-thread parallel runtime (no dependencies).
//!
//! The heavy loops in this workspace — slice quantization, matmul,
//! im2col — are all embarrassingly parallel over disjoint output ranges.
//! Rather than pull in a thread-pool crate, this module fans such loops
//! out over [`std::thread::scope`]: threads are spawned per call and
//! joined before returning, so borrowed (non-`'static`) data flows in
//! freely and no global executor state exists.
//!
//! Thread count comes from [`std::thread::available_parallelism`], and can
//! be pinned with the `AF_NUM_THREADS` environment variable (read once per
//! process; `AF_NUM_THREADS=1` forces every helper serial). Because each
//! call pays real thread-spawn cost (tens of microseconds), callers gate
//! on [`parallelism_worthwhile`] — below the cutoff the serial loop is
//! both simpler and faster.
//!
//! Serving and model registration never fan out: they run inside
//! [`serial`], which keeps every helper on the calling thread. A served
//! forward pass already has a compute worker per core, and registration
//! kernels are too short to repay a spawn. Experiments and training
//! fan out as above.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Whether this thread is inside [`serial`].
    static SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with every helper in this module confined to the calling
/// thread: until `f` returns, [`num_threads`] reads 1 here and nothing
/// is spawned. Results are bit-identical either way — no helper's
/// chunking changes an element's arithmetic.
pub fn serial<R>(f: impl FnOnce() -> R) -> R {
    /// Restores the caller's setting, also when `f` unwinds.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SERIAL.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SERIAL.with(|s| s.replace(true)));
    f()
}

/// Minimum number of per-element operations before fanning out threads
/// is worth the spawn cost (see [`parallelism_worthwhile`]).
pub const PAR_MIN_LEN: usize = 1 << 15;

/// The number of worker threads parallel helpers fan out to: 1 inside
/// [`serial`].
///
/// `AF_NUM_THREADS` (if set to a positive integer) wins; otherwise
/// [`std::thread::available_parallelism`], defaulting to 1 if even that
/// is unavailable. Malformed settings — `0`, negative numbers, empty
/// strings, non-numeric garbage, or values that overflow `usize` — are
/// ignored in favor of the detected parallelism: pinning the thread
/// count is an optimization hint, never a way to crash or to spawn zero
/// workers. Cached after the first call.
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    if SERIAL.with(Cell::get) {
        return 1;
    }
    *N.get_or_init(|| {
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        parse_num_threads(std::env::var("AF_NUM_THREADS").ok().as_deref(), fallback)
    })
}

/// Resolve an `AF_NUM_THREADS` setting against a detected fallback:
/// a positive integer (surrounding whitespace tolerated) wins; anything
/// else — unset, empty, `0`, negative, garbage, overflow — yields
/// `fallback` (clamped to at least 1 so callers can never end up with
/// zero workers).
fn parse_num_threads(raw: Option<&str>, fallback: usize) -> usize {
    let fallback = fallback.max(1);
    match raw.map(str::trim).and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => fallback,
    }
}

/// Whether a loop of `len` roughly-uniform element operations should be
/// fanned out: `len ≥ PAR_MIN_LEN` and more than one thread available.
pub fn parallelism_worthwhile(len: usize) -> bool {
    len >= PAR_MIN_LEN && num_threads() > 1
}

/// Call `f(chunk_index, chunk)` for every `chunk_len`-sized chunk of
/// `data` (last chunk may be shorter), fanning the chunks out across
/// [`num_threads`] scoped threads. Chunk indices match
/// `data.chunks_mut(chunk_len).enumerate()`; each chunk is processed
/// exactly once, in unspecified order.
///
/// # Panics
///
/// Panics if `chunk_len == 0`. A panic inside `f` propagates to the
/// caller with its original payload: every other worker finishes its
/// chunks first (no chunk is skipped, no join is deadlocked), then the
/// first captured panic is resumed at the call site.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let threads = num_threads();
    let n_chunks = data.len().div_ceil(chunk_len);
    if threads == 1 || n_chunks <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // Deal chunks round-robin into one work list per thread; round-robin
    // balances systematic cost gradients (e.g. triangular workloads).
    let buckets = threads.min(n_chunks);
    let mut work: Vec<Vec<(usize, &mut [T])>> = (0..buckets).map(|_| Vec::new()).collect();
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        work[i % buckets].push((i, chunk));
    }
    // Each bucket catches its own panic so sibling workers always run to
    // completion and `scope`'s implicit join can never see an unjoined
    // panicked thread; the first payload is re-raised on the caller.
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let run_bucket = |bucket: Vec<(usize, &mut [T])>| {
        for (i, chunk) in bucket {
            if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| f(i, chunk))) {
                first_panic
                    .lock()
                    .expect("panic slot poisoned")
                    .get_or_insert(payload);
            }
        }
    };
    std::thread::scope(|scope| {
        let run_bucket = &run_bucket;
        let mut first = None;
        for (t, bucket) in work.into_iter().enumerate() {
            if t == 0 {
                first = Some(bucket); // run on the calling thread
            } else {
                scope.spawn(move || run_bucket(bucket));
            }
        }
        run_bucket(first.expect("at least one bucket"));
    });
    if let Some(payload) = first_panic.into_inner().expect("panic slot poisoned") {
        std::panic::resume_unwind(payload);
    }
}

/// Fill `dst` from equal-length `src` chunk-by-chunk in parallel:
/// `f(src_chunk, dst_chunk)` runs once per corresponding chunk pair.
/// Falls back to a single serial call when the work is too small
/// ([`parallelism_worthwhile`]).
///
/// # Panics
///
/// Panics if the slices have different lengths. A panic inside `f`
/// propagates.
pub fn par_zip_into<T, U, F>(src: &[T], dst: &mut [U], f: F)
where
    T: Sync,
    U: Send,
    F: Fn(&[T], &mut [U]) + Sync,
{
    assert_eq!(src.len(), dst.len(), "slice length mismatch");
    if !parallelism_worthwhile(src.len()) {
        f(src, dst);
        return;
    }
    let chunk_len = src.len().div_ceil(num_threads()).max(1);
    par_chunks_mut(dst, chunk_len, |i, dst_chunk| {
        let start = i * chunk_len;
        f(&src[start..start + dst_chunk.len()], dst_chunk);
    });
}

/// Apply `f` to `data` in place, splitting into one chunk per thread
/// when the slice is big enough ([`parallelism_worthwhile`]); otherwise
/// one serial call over the whole slice.
///
/// # Panics
///
/// A panic inside `f` propagates.
pub fn par_apply<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut [T]) + Sync,
{
    if !parallelism_worthwhile(data.len()) {
        f(data);
        return;
    }
    let chunk_len = data.len().div_ceil(num_threads()).max(1);
    par_chunks_mut(data, chunk_len, |_, chunk| f(chunk));
}

/// Map a scalar function over a slice into a fresh vector, in parallel
/// for large slices. The convenience form of [`par_zip_into`] every
/// format's element-wise quantizer uses.
pub fn par_map_slice<F>(data: &[f32], f: F) -> Vec<f32>
where
    F: Fn(f32) -> f32 + Sync,
{
    let mut out = vec![0.0f32; data.len()];
    par_zip_into(data, &mut out, |src, dst| {
        for (o, &v) in dst.iter_mut().zip(src) {
            *o = f(v);
        }
    });
    out
}

/// Run two closures, potentially in parallel, returning both results.
/// Serial (in order `a` then `b`) when only one thread is available.
///
/// # Panics
///
/// A panic inside either closure propagates.
pub fn par_join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if num_threads() == 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        let rb = hb.join().expect("parallel closure panicked");
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_once() {
        let mut data = vec![0u32; 100_001];
        par_chunks_mut(&mut data, 997, |i, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + i as u32;
            }
        });
        for (j, &v) in data.iter().enumerate() {
            assert_eq!(v, 1 + (j / 997) as u32, "element {j}");
        }
    }

    #[test]
    fn zip_matches_serial_map() {
        let src: Vec<f32> = (0..(PAR_MIN_LEN + 7)).map(|i| i as f32 * 0.5).collect();
        let mut dst = vec![0.0f32; src.len()];
        par_zip_into(&src, &mut dst, |s, d| {
            for (o, &x) in d.iter_mut().zip(s) {
                *o = x * 2.0 + 1.0;
            }
        });
        for (i, (&s, &d)) in src.iter().zip(&dst).enumerate() {
            assert_eq!(d, s * 2.0 + 1.0, "element {i}");
        }
    }

    #[test]
    fn zip_small_input_stays_serial() {
        let src = [1.0f32, 2.0, 3.0];
        let mut dst = [0.0f32; 3];
        par_zip_into(&src, &mut dst, |s, d| {
            assert_eq!(s.len(), 3); // one call, whole slice
            d.copy_from_slice(s);
        });
        assert_eq!(dst, src);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = par_join(|| 6 * 7, || "ok");
        assert_eq!((a, b), (42, "ok"));
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn serial_keeps_every_chunk_on_the_calling_thread() {
        let me = std::thread::current().id();
        let mut data = vec![0u8; 4 * PAR_MIN_LEN];
        serial(|| {
            assert_eq!(num_threads(), 1);
            par_chunks_mut(&mut data, 64, |_, chunk| {
                assert_eq!(std::thread::current().id(), me);
                chunk.fill(1);
            });
            // Nested scopes restore the outer one.
            serial(|| ());
            assert_eq!(num_threads(), 1);
        });
        assert!(data.iter().all(|&v| v == 1));
        // A panic inside the scope still restores the caller's setting.
        let outer = num_threads();
        let _ = std::panic::catch_unwind(|| serial(|| panic!("inside")));
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn parse_num_threads_accepts_positive_integers() {
        assert_eq!(parse_num_threads(Some("4"), 8), 4);
        assert_eq!(parse_num_threads(Some(" 16 \n"), 8), 16);
        assert_eq!(parse_num_threads(Some("1"), 8), 1);
    }

    #[test]
    fn parse_num_threads_falls_back_on_garbage() {
        for bad in [
            "0",
            "-2",
            "",
            "   ",
            "abc",
            "4.5",
            "1e3",
            "0x10",
            "99999999999999999999999999",
        ] {
            assert_eq!(parse_num_threads(Some(bad), 6), 6, "input {bad:?}");
        }
        assert_eq!(parse_num_threads(None, 6), 6);
        // A zero fallback (pathological available_parallelism) still
        // yields at least one worker.
        assert_eq!(parse_num_threads(Some("junk"), 0), 1);
    }

    #[test]
    fn empty_and_single_chunk() {
        let mut empty: [u8; 0] = [];
        par_chunks_mut(&mut empty, 8, |_, _| panic!("no chunks expected"));
        let mut one = [1u8, 2, 3];
        let calls = std::sync::atomic::AtomicUsize::new(0);
        par_chunks_mut(&mut one, 8, |i, c| {
            assert_eq!((i, c.len()), (0, 3));
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(calls.into_inner(), 1);
    }

    #[test]
    fn panic_in_one_chunk_propagates_after_others_complete() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let processed = AtomicUsize::new(0);
        let mut data = vec![0u8; 64];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_chunks_mut(&mut data, 4, |i, chunk| {
                if i == 3 {
                    panic!("chunk 3 exploded");
                }
                chunk.fill(1);
                processed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        // The panic surfaces at the call site with its original payload…
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("original payload preserved");
        assert_eq!(msg, "chunk 3 exploded");
        if num_threads() > 1 {
            // …and every other chunk still ran to completion (16 − 1).
            assert_eq!(processed.load(Ordering::Relaxed), 15);
        } else {
            // Serial fallback: panics at chunk 3 after chunks 0..=2.
            assert_eq!(processed.load(Ordering::Relaxed), 3);
        }
    }

    #[test]
    fn panic_in_serial_path_propagates_too() {
        let mut data = vec![0u8; 8];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // One chunk ⇒ the serial fallback runs `f` inline.
            par_chunks_mut(&mut data, 16, |_, _| panic!("serial boom"));
        }));
        let payload = result.expect_err("panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("serial boom"));
    }
}
