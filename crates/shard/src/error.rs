//! Typed errors of the sharded serving subsystem.

use std::error::Error;
use std::fmt;

use igcn_core::CoreError;
use igcn_store::StoreError;

/// Errors of shard construction and sharded execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ShardError {
    /// An engine-level failure (structural validation, update
    /// rejection, shape mismatch).
    Core(CoreError),
    /// A persistence failure: reading or warm-booting the coordinator
    /// snapshot a fleet boots from.
    Store(StoreError),
    /// The requested shard count cannot be honored (zero shards).
    InvalidShardCount {
        /// The requested number of shards.
        requested: usize,
    },
    /// The layout cannot be sharded: it islandized to zero islands
    /// (every node a hub), so there is nothing for a shard to own.
    ShardUnservable {
        /// Index of the offending shard.
        shard: usize,
        /// Human-readable description.
        detail: String,
    },
    /// A shard is down: its execution panicked mid-request (contained at
    /// the fan-out seam; that request and every later one fail with
    /// `CoreError::BackendFailed` naming the shard), and the fleet
    /// refuses to restructure until [`ShardedEngine::heal`] rebuilds
    /// it.
    ///
    /// [`ShardedEngine::heal`]: crate::ShardedEngine::heal
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
        /// The contained panic message, or why the shard is down.
        detail: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Core(e) => write!(f, "shard engine error: {e}"),
            ShardError::Store(e) => write!(f, "shard persistence error: {e}"),
            ShardError::InvalidShardCount { requested } => {
                write!(f, "invalid shard count {requested} (need at least 1)")
            }
            ShardError::ShardUnservable { shard, detail } => {
                write!(f, "shard {shard} cannot be built: {detail}")
            }
            ShardError::ShardFailed { shard, detail } => {
                write!(f, "shard {shard} failed: {detail}")
            }
        }
    }
}

impl Error for ShardError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ShardError::Core(e) => Some(e),
            ShardError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ShardError {
    fn from(e: CoreError) -> Self {
        ShardError::Core(e)
    }
}

impl From<StoreError> for ShardError {
    fn from(e: StoreError) -> Self {
        ShardError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ShardError::InvalidShardCount { requested: 0 };
        assert!(e.to_string().contains("shard count 0"));
        let e = ShardError::ShardUnservable { shard: 0, detail: "boom".to_string() };
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardError>();
    }
}
