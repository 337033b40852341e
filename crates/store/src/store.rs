//! [`EngineStore`]: one snapshot file + its write-ahead log, managed
//! together.
//!
//! This is the durability loop of a serving node:
//!
//! 1. **first deployment** — build an engine cold, `checkpoint` it;
//! 2. **serving** — route structural changes through
//!    [`EngineStore::apply_update`] (WAL-first, so the change is on
//!    disk before it is live, and the record carries the locator's
//!    output);
//! 3. **restart** — [`EngineStore::boot`] reads the snapshot, skips
//!    islandization, replays the WAL without searching for any island
//!    the live engine found, and serving resumes exactly where it
//!    stopped;
//! 4. **periodically** — `checkpoint` again to fold the WAL back into
//!    the snapshot (the serving front-end's checkpoint hook calls
//!    this).
//!
//! A checkpoint is crash-safe without any coordination: the outgoing
//! snapshot is first rotated aside to `<snapshot>.prev`, the new one is
//! written temp-file-then-rename (fsync-ordered), and the WAL's pairing
//! header (see [`Wal`]) ties every log to the snapshot checksum it
//! extends — a log orphaned by a crash between the steps is recognised
//! as stale at the next boot and discarded instead of double-applied.
//! If the *published* snapshot itself turns out corrupt (torn by a
//! non-atomic writer, sector loss, bit rot), [`EngineStore::boot`]
//! quarantines it to `<snapshot>.quarantine` and falls back to the
//! previous generation plus the WAL — which still pairs with it, so no
//! acknowledged update is lost (pinned by the chaos campaign's
//! tear-offset sweep).

use std::path::{Path, PathBuf};

use igcn_core::accel::UpdateReport;
use igcn_core::{CoreError, ExecConfig, GraphUpdate, IGcnEngine};

use crate::error::{io_err, StoreError};
use crate::snapshot::Snapshot;
use crate::wal::Wal;

/// Outcome of [`EngineStore::boot`].
#[derive(Debug)]
pub struct BootOutcome {
    /// The warm-started engine, WAL already replayed, model prepared
    /// when the snapshot stored one.
    pub engine: IGcnEngine,
    /// Whether a model + weights pair was prepared from the snapshot.
    pub prepared: bool,
    /// WAL records replayed onto the engine.
    pub replayed_updates: usize,
    /// Bytes of a torn WAL tail that were discarded (crash mid-append).
    pub torn_tail_bytes: u64,
    /// Whether a stale WAL (from an interrupted checkpoint) was
    /// ignored.
    pub stale_wal_discarded: bool,
    /// The snapshot's bundled default feature matrix, if any.
    pub features: Option<igcn_graph::SparseFeatures>,
    /// Whether boot fell back to the previous checkpoint generation
    /// (`<snapshot>.prev`) because the current snapshot was corrupt,
    /// torn, or missing after an interrupted checkpoint.
    pub recovered_from_previous: bool,
    /// Where a corrupt current snapshot was quarantined
    /// (`<snapshot>.quarantine`), for post-mortem inspection. `None`
    /// when the snapshot booted cleanly or was missing outright.
    pub quarantined_snapshot: Option<PathBuf>,
}

/// A snapshot file and its sidecar WAL (`<snapshot>.wal`), managed as
/// one durable engine store.
#[derive(Debug, Clone)]
pub struct EngineStore {
    snapshot_path: PathBuf,
    wal_path: PathBuf,
}

impl EngineStore {
    /// A store rooted at `snapshot_path`; the WAL lives next to it with
    /// a `.wal` suffix appended.
    pub fn at(snapshot_path: impl Into<PathBuf>) -> Self {
        let snapshot_path = snapshot_path.into();
        let mut wal_path = snapshot_path.clone().into_os_string();
        wal_path.push(".wal");
        EngineStore { snapshot_path, wal_path: PathBuf::from(wal_path) }
    }

    /// The snapshot file path.
    pub fn snapshot_path(&self) -> &Path {
        &self.snapshot_path
    }

    /// The write-ahead log path.
    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// Where the previous checkpoint generation is kept
    /// (`<snapshot>.prev`) — the fallback image when the current
    /// snapshot is found corrupt at boot.
    pub fn previous_snapshot_path(&self) -> PathBuf {
        self.suffixed(".prev")
    }

    /// Where a corrupt snapshot is moved at boot
    /// (`<snapshot>.quarantine`) so it stays available for post-mortem
    /// inspection instead of being overwritten by the next checkpoint.
    pub fn quarantine_path(&self) -> PathBuf {
        self.suffixed(".quarantine")
    }

    fn suffixed(&self, suffix: &str) -> PathBuf {
        let mut path = self.snapshot_path.clone().into_os_string();
        path.push(suffix);
        PathBuf::from(path)
    }

    /// The WAL handle paired with the snapshot currently on disk.
    /// Reads only the snapshot's 24-byte header — pairing a log record
    /// must not cost a full scan of the snapshot payload.
    ///
    /// # Errors
    ///
    /// Header-read errors as [`Snapshot::read_header`].
    pub fn wal(&self) -> Result<Wal, StoreError> {
        let header = Snapshot::read_header(&self.snapshot_path)?;
        Ok(Wal::paired(&self.wal_path, header.checksum))
    }

    /// Writes `snapshot` crash-safely in three ordered steps: rotate
    /// the current snapshot to [`EngineStore::previous_snapshot_path`],
    /// write the new one (temp file + rename, fsync-ordered), then
    /// reset the WAL with the new pairing header.
    ///
    /// Every crash window is recoverable by [`EngineStore::boot`]:
    /// after the rotation the previous generation plus the still-paired
    /// WAL reconstruct the exact pre-checkpoint state; after the
    /// publish the WAL is stale-paired and discarded (its updates are
    /// folded into the new snapshot); and a *torn* publish is
    /// quarantined and falls back to the previous generation.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures. On error the store
    /// may be left rotated (previous generation only); it still boots
    /// to the exact pre-checkpoint state.
    pub fn save(&self, snapshot: &Snapshot) -> Result<u64, StoreError> {
        // No request root here: the span feeds its stage histogram only.
        let _span =
            igcn_obs::trace::OpenSpan::child(igcn_obs::TraceCtx::NONE, igcn_obs::stage::CHECKPOINT);
        let prev = self.previous_snapshot_path();
        match std::fs::rename(&self.snapshot_path, &prev) {
            Ok(()) => {}
            // First checkpoint ever: nothing to rotate.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(&self.snapshot_path, e)),
        }
        // Failpoint `store::checkpoint::rotated`: dies between the
        // rotation and the publish — boot must recover from
        // `.prev` + WAL with no acknowledged update lost.
        igcn_fail::fail_point!("store::checkpoint::rotated", |_| Err(crate::io::injected(
            &self.snapshot_path,
            "store::checkpoint::rotated"
        )));
        let (bytes, checksum) = snapshot.write_with_checksum(&self.snapshot_path)?;
        Wal::paired(&self.wal_path, checksum).reset()?;
        Ok(bytes)
    }

    /// Captures `engine` and [`EngineStore::save`]s it.
    ///
    /// # Errors
    ///
    /// As [`EngineStore::save`].
    pub fn checkpoint(&self, engine: &IGcnEngine) -> Result<u64, StoreError> {
        self.save(&Snapshot::capture(engine))
    }

    /// Warm-starts an engine: reads the snapshot (checksum + structural
    /// validation, **no locator pass**), then replays every WAL record
    /// through [`IGcnEngine::apply_updates_batched`] — a record that
    /// carries its locator rounds (every one [`EngineStore::apply_update`]
    /// wrote) applies them, checked against the graph, instead of
    /// searching; the whole log is applied structurally and the physical
    /// layout is recomposed **once** at the end, so a long log does not
    /// pay the O(n + m) layout composition per record. A record pays its
    /// CSR patch and its partition update, which puts what it formed into
    /// the slots it emptied (as the live update did) and merges its
    /// hub–hub edges into the sorted list; the recompose carries every
    /// slot no record changed as a block. The booted state is the live
    /// engine's, bit for bit.
    ///
    /// A corrupt or torn current snapshot does **not** fail the boot:
    /// it is renamed to [`EngineStore::quarantine_path`] (preserved for
    /// post-mortem) and the previous checkpoint generation is loaded
    /// instead — the WAL still pairs with it, so replay reconstructs
    /// every acknowledged update. Only when no generation is usable
    /// does boot fail, with [`StoreError::NoUsableSnapshot`].
    ///
    /// # Errors
    ///
    /// [`StoreError::NoUsableSnapshot`] when the current snapshot is
    /// corrupt/missing and no previous generation can be loaded;
    /// transient I/O and version-skew errors as [`Snapshot::read`]
    /// (never quarantined — the file may be fine); WAL errors as
    /// [`Wal::replay`], and [`StoreError::WalCorrupt`] at a record whose
    /// logged rounds do not fit the graph it produced;
    /// [`StoreError::Core`] if a logged update no longer applies (the
    /// log and snapshot are out of sync in a way the pairing header
    /// could not explain).
    pub fn boot(&self, exec_cfg: ExecConfig) -> Result<BootOutcome, StoreError> {
        let (snapshot, paired_checksum, quarantined, recovered) = self.load_with_fallback()?;
        let mut engine = snapshot.warm_engine(exec_cfg)?;
        // The engine now holds the only other handle on the layout: with
        // the snapshot's gone, the replay's one recomposition moves what
        // it carries instead of copying it.
        drop(snapshot.layout);
        let replay = Wal::paired(&self.wal_path, paired_checksum).replay()?;
        let replayed_updates = replay.records.len();
        let offsets: Vec<u64> = replay.records.iter().map(|r| r.offset).collect();
        engine
            .apply_updates_batched(replay.records.into_iter().map(|r| (r.update, r.rounds)))
            .map_err(|e| match e {
                CoreError::LoggedRoundsRejected { update, detail } => {
                    StoreError::WalCorrupt { offset: offsets[update], detail }
                }
                e => StoreError::Core(e),
            })?;
        Ok(BootOutcome {
            prepared: snapshot.model.is_some(),
            features: snapshot.features,
            engine,
            replayed_updates,
            torn_tail_bytes: replay.torn_tail_bytes,
            stale_wal_discarded: replay.stale_discarded,
            recovered_from_previous: recovered,
            quarantined_snapshot: quarantined,
        })
    }

    /// Loads the current snapshot, or — when it is corrupt (quarantined
    /// first) or missing — the previous checkpoint generation. Returns
    /// the snapshot, the checksum the WAL must pair with, the
    /// quarantine path if one was produced, and whether fallback
    /// happened.
    #[allow(clippy::type_complexity)]
    fn load_with_fallback(&self) -> Result<(Snapshot, u64, Option<PathBuf>, bool), StoreError> {
        // The pairing checksum comes from the bytes that were decoded,
        // never from a second open of the path: a checkpoint renaming a
        // new generation in between would pair the log with an image
        // other than the one in memory.
        let current_err = match Snapshot::read_with_checksum(&self.snapshot_path) {
            Ok((snapshot, checksum)) => return Ok((snapshot, checksum, None, false)),
            Err(e) => e,
        };
        let quarantined = if self.snapshot_path.exists() {
            if !corruption_class(&current_err) {
                // Version skew, permission failures, transient I/O: the
                // file may be perfectly good — surface the error rather
                // than destroy the primary image.
                return Err(current_err);
            }
            let quarantine = self.quarantine_path();
            std::fs::rename(&self.snapshot_path, &quarantine)
                .map_err(|e| io_err(&self.snapshot_path, e))?;
            Some(quarantine)
        } else {
            // Missing outright: a checkpoint died between rotating the
            // old generation aside and publishing the new one.
            None
        };
        let prev = self.previous_snapshot_path();
        match Snapshot::read_with_checksum(&prev) {
            Ok((snapshot, checksum)) => Ok((snapshot, checksum, quarantined, true)),
            Err(prev_err) => Err(StoreError::NoUsableSnapshot {
                quarantined,
                detail: format!("current snapshot: {current_err}; previous generation: {prev_err}"),
            }),
        }
    }

    /// Applies `update` with write-ahead discipline: the engine computes
    /// the update, the record — the update and what its locator rounds
    /// produced — is appended and `fsync`ed, and only then is the update
    /// committed in memory. An update the engine rejects never reaches
    /// the log, and a failed append leaves the engine as it was.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on log failures, with the engine left as it
    /// was; [`StoreError::Core`] with the engine's rejection, with
    /// nothing logged and the engine left as it was.
    pub fn apply_update(
        &self,
        engine: &mut IGcnEngine,
        update: GraphUpdate,
    ) -> Result<UpdateReport, StoreError> {
        let wal = self.wal()?;
        let applied = engine.apply_update_logged(update, |update, rounds| {
            wal.append_with_rounds(update, rounds).map(drop)
        });
        if let Err(StoreError::Core(_)) = applied {
            // Rejections are rare enough that each one is worth a
            // counter tick: a climbing rate means callers are feeding
            // structurally invalid updates.
            igcn_obs::counter("store_rejected_updates").inc();
        }
        applied
    }
}

/// Whether a snapshot-read failure means the *file content* is damaged
/// (quarantine + fall back) as opposed to an environmental or
/// compatibility failure (surface to the operator; the bytes may be
/// fine).
fn corruption_class(e: &StoreError) -> bool {
    matches!(
        e,
        StoreError::BadMagic { .. }
            | StoreError::Truncated { .. }
            | StoreError::ChecksumMismatch { .. }
            | StoreError::Corrupt { .. }
            | StoreError::Core(_)
            | StoreError::Graph(_)
    )
}
