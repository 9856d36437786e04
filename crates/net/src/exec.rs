//! The batch executor's name, kept as a shim.
//!
//! `PrimaryBridge::process_batch` takes a [`ShardExecutor`], but a batch
//! runs one way: each segment through the filter in input order, on the
//! caller's thread. The type and its `new` stay because
//! `benchmark/README.md` § What the benchmark calls pins them.

/// What `process_batch` takes; carries nothing (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct ShardExecutor;

impl ShardExecutor {
    /// The executor. `_threads` is ignored: a batch runs on the caller's
    /// thread.
    pub fn new(_threads: usize) -> Self {
        ShardExecutor
    }
}
