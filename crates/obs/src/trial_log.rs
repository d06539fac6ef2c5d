//! The per-trial recovery log: every recovery transition of one trial,
//! recorded once as a fixed-size [`Transition`], in the order the
//! simulator made it. Nothing is formatted or kept per group while the
//! trial runs; at trial end the log is rendered once into the JSONL
//! trace (`trace.rs`), the data-loss post-mortems (`flight.rs`) and the
//! recovery spans (`spans.rs`).

/// Transition kinds, stored as a byte in each record. The first six
/// are transitions of one block; the others concern a whole disk or
/// group and leave `block` unset.
pub mod kind {
    /// A block of a live group went missing with its disk.
    pub const BLOCK_FAILED: u8 = 0;
    /// A failure invalidated a block's in-flight rebuild.
    pub const REDIRECT: u8 = 1;
    /// No eligible rebuild target existed for a block.
    pub const NO_TARGET: u8 = 2;
    /// Reading a rebuild source tripped a latent sector error.
    pub const LATENT: u8 = 3;
    pub const REBUILD_START: u8 = 4;
    pub const REBUILD_DONE: u8 = 5;
    pub const DISK_FAILED: u8 = 6;
    /// Detection of a disk failure launched its rebuilds.
    pub const DETECT: u8 = 7;
    /// A group dropped below `m` on a disk failure, or on latent read
    /// errors.
    pub const LOSS_DISK: u8 = 8;
    pub const LOSS_LATENT: u8 = 9;

    /// Each kind's event name in the trace and the post-mortem chain.
    pub const NAMES: [&str; 10] = [
        "failure",
        "redirect",
        "no_target",
        "latent",
        "rebuild_start",
        "rebuild_done",
        "failure",
        "detect",
        "loss",
        "loss",
    ];
}

/// An id (disk, group, block) that the kind leaves unset.
pub const NO_DISK: u32 = u32::MAX;

/// One recovery transition. Which fields carry meaning depends on
/// `kind`; unset ids hold [`NO_DISK`] and unset payloads `NaN`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transition {
    /// Simulated seconds.
    pub t: f64,
    /// A `REBUILD_START`'s planned transfer start, a `REBUILD_DONE`'s
    /// closed vulnerability window (`NaN`: none was open), a `DETECT`'s
    /// rebuild count.
    pub a: f64,
    /// A `REBUILD_START`'s transfer duration.
    pub b: f64,
    pub group: u32,
    /// The block's raw id.
    pub block: u32,
    /// The failed disk, a rebuild's target or new home, the tripped
    /// source.
    pub disk: u32,
    /// A `REBUILD_START`'s sources: `src_lo..src_hi` of the side array.
    pub src_lo: u32,
    pub src_hi: u32,
    /// One of the [`kind`] constants.
    pub kind: u8,
    /// The block's index within its group.
    pub idx: u8,
}

/// The append-only log of one trial.
#[derive(Clone, Debug, Default)]
pub struct TrialLog {
    recs: Vec<Transition>,
    sources: Vec<u32>,
}

impl TrialLog {
    /// Every transition, in push order.
    pub fn records(&self) -> &[Transition] {
        &self.recs
    }

    /// A `REBUILD_START`'s rebuild sources.
    pub fn sources(&self, r: &Transition) -> &[u32] {
        &self.sources[r.src_lo as usize..r.src_hi as usize]
    }

    /// Append one transition of `kind` with unset payloads and no
    /// sources, and return it for the kinds that carry a payload.
    pub fn push(
        &mut self,
        t: f64,
        kind: u8,
        group: u32,
        block: u32,
        idx: u8,
        disk: u32,
    ) -> &mut Transition {
        let end = self.sources.len() as u32;
        self.recs.push(Transition {
            t,
            a: f64::NAN,
            b: f64::NAN,
            group,
            block,
            disk,
            src_lo: end,
            src_hi: end,
            kind,
            idx,
        });
        self.recs.last_mut().expect("just pushed")
    }

    /// A rebuild of block `block` (index `idx` of `group`) onto `target`
    /// was scheduled: it transfers from `start` for `duration` seconds,
    /// reading from `sources`.
    #[allow(clippy::too_many_arguments)]
    pub fn rebuild_start(
        &mut self,
        t: f64,
        group: u32,
        block: u32,
        idx: u8,
        target: u32,
        start: f64,
        duration: f64,
        sources: impl IntoIterator<Item = u32>,
    ) {
        let lo = self.sources.len() as u32;
        self.sources.extend(sources);
        let r = self.push(t, kind::REBUILD_START, group, block, idx, target);
        (r.a, r.b, r.src_lo) = (start, duration, lo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_keep_push_order_and_their_sources() {
        let mut log = TrialLog::default();
        log.push(1.0, kind::DISK_FAILED, NO_DISK, NO_DISK, 0, 7);
        log.rebuild_start(2.0, 3, 30, 1, 9, 2.5, 60.0, [4, 5]);
        log.rebuild_start(3.0, 3, 31, 2, 8, 3.0, 60.0, [6]);
        log.push(62.5, kind::REBUILD_DONE, 3, 30, 1, 9);
        let r = log.records();
        assert_eq!(
            r.iter().map(|r| r.kind).collect::<Vec<_>>(),
            [
                kind::DISK_FAILED,
                kind::REBUILD_START,
                kind::REBUILD_START,
                kind::REBUILD_DONE
            ]
        );
        assert_eq!(log.sources(&r[1]), [4, 5]);
        assert_eq!(log.sources(&r[2]), [6]);
        assert!(log.sources(&r[3]).is_empty());
        assert!(r[3].a.is_nan(), "no window was open");
        assert_eq!((r[1].a, r[1].b, r[1].disk), (2.5, 60.0, 9));
    }
}
