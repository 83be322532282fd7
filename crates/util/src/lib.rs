//! # lisa-util
//!
//! Small dependency-free utilities shared across the workspace. The
//! container this repo builds in has no crates.io access, so anything
//! the system needs from the usual ecosystem crates (seeded randomness,
//! retry/backoff) lives here instead.

#![forbid(unsafe_code)]

pub mod hash;
pub mod prng;
pub mod retry;
pub mod stats;

pub use hash::{fnv1a, Fnv1a};
pub use prng::Prng;
pub use retry::{retry_with_backoff, RetryPolicy};
pub use stats::{lock_counted, CacheStats, LockStats};
