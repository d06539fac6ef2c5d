//! Data-loss post-mortems, rendered from the trial's recovery log.
//!
//! When a group drops below `m` available blocks, its post-mortem is
//! one structured JSON line: the causal chain that produced the loss,
//! ending in the exact event that killed the group. The chain is the
//! group's last [`CHAIN`] block transitions (failures, rebuilds,
//! redirections, stalls, latent trips) before the loss record, found by
//! scanning the log up to it; older ones are counted in `dropped`.
//! Nothing is kept per group while the trial runs, so post-mortems cost
//! no allocation proportional to the system's group count.
//!
//! When span tracing is also on ([`crate::spans`]), the post-mortem
//! additionally carries a `critical_path` object: the phase breakdown
//! (detect / queue / transfer) of the fatal vulnerability window, whose
//! durations sum to the window.

use crate::spans::CriticalPath;
use crate::trial_log::{kind, Transition, TrialLog, NO_DISK};
use std::fmt::Write as _;

/// Chain entries per post-mortem. Losses are caused by short
/// overlapping-failure windows, so a dozen events is plenty of context;
/// older events are counted in `dropped` rather than kept.
pub const CHAIN: usize = 12;

impl TrialLog {
    /// The chain of the loss record at `at`: its group's last [`CHAIN`]
    /// block transitions before it, oldest first, and how many earlier
    /// ones were dropped.
    fn chain(&self, at: usize) -> (Vec<&Transition>, usize) {
        let group = self.records()[at].group;
        let mut chain: Vec<&Transition> = self.records()[..at]
            .iter()
            .filter(|r| r.group == group && r.block != NO_DISK)
            .collect();
        let dropped = chain.len().saturating_sub(CHAIN);
        chain.drain(..dropped);
        (chain, dropped)
    }

    /// One post-mortem line per loss record, in log order. With span
    /// tracing on, `critical_paths` holds the span replay's critical
    /// path of each loss, in the same order ([`TrialLog::spans`]).
    pub fn render_postmortems(
        &self,
        trial: u64,
        critical_paths: Option<&[Option<CriticalPath>]>,
    ) -> Vec<String> {
        let losses = self
            .records()
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r.kind, kind::LOSS_DISK | kind::LOSS_LATENT));
        losses
            .enumerate()
            .map(|(nth, (at, r))| {
                let cp = critical_paths.and_then(|c| c[nth].as_ref());
                self.postmortem(trial, at, r, cp)
            })
            .collect()
    }

    fn postmortem(
        &self,
        trial: u64,
        at: usize,
        loss: &Transition,
        critical_path: Option<&CriticalPath>,
    ) -> String {
        let cause = if loss.kind == kind::LOSS_LATENT {
            "latent_read_error"
        } else {
            "disk_failure"
        };
        let (chain, dropped) = self.chain(at);
        let mut line = format!(
            "{{\"trial\":{trial},\"group\":{},\"t_secs\":{},\"cause\":\"{cause}\",\
             \"dropped\":{dropped},\"chain\":[",
            loss.group, loss.t,
        );
        for (i, ev) in chain.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let name = kind::NAMES[ev.kind as usize];
            let _ = write!(line, "{{\"t_secs\":{},\"ev\":\"{name}\",\"disk\":", ev.t);
            if ev.disk == NO_DISK {
                line.push_str("null");
            } else {
                let _ = write!(line, "{}", ev.disk);
            }
            let _ = write!(line, ",\"idx\":{}}}", ev.idx);
        }
        line.push(']');
        if let Some(cp) = critical_path {
            line.push_str(",\"critical_path\":");
            cp.render(&mut line);
        }
        line.push('}');
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_chronological_and_bounded() {
        let mut log = TrialLog::default();
        for i in 0..(CHAIN as u32 + 5) {
            log.push(i as f64, kind::BLOCK_FAILED, 1, i, 0, 100 + i);
            // Other groups' and disk-level transitions stay out.
            log.push(i as f64, kind::BLOCK_FAILED, 0, 1000 + i, 0, 100 + i);
            log.push(i as f64, kind::DISK_FAILED, NO_DISK, NO_DISK, 0, 100 + i);
        }
        log.push(20.0, kind::LOSS_DISK, 1, NO_DISK, 0, NO_DISK);
        let (chain, dropped) = log.chain(log.records().len() - 1);
        assert_eq!(chain.len(), CHAIN);
        assert_eq!(dropped, 5);
        // Oldest retained event is #5; newest is #16.
        assert_eq!(chain[0].t, 5.0);
        assert_eq!(chain[CHAIN - 1].t, (CHAIN + 4) as f64);
        assert!(chain.windows(2).all(|w| w[0].t < w[1].t));
        assert!(chain.iter().all(|r| r.group == 1));
    }

    #[test]
    fn postmortem_ends_with_fatal_event_and_counts_dropped() {
        let mut log = TrialLog::default();
        for i in 0..CHAIN as u32 {
            log.push(i as f64, kind::REBUILD_DONE, 2, i, 1, i);
        }
        log.push(99.0, kind::BLOCK_FAILED, 2, 50, 3, 42);
        log.push(99.0, kind::LOSS_DISK, 2, NO_DISK, 0, NO_DISK);

        let pms = log.render_postmortems(7, None);
        assert_eq!(pms.len(), 1);
        let pm = &pms[0];
        assert!(
            pm.starts_with("{\"trial\":7,\"group\":2,\"t_secs\":99,"),
            "{pm}"
        );
        assert!(pm.contains("\"cause\":\"disk_failure\""), "{pm}");
        assert!(pm.contains("\"dropped\":1"), "{pm}");
        // The chain's last entry is the fatal failure itself.
        assert!(
            pm.ends_with("{\"t_secs\":99,\"ev\":\"failure\",\"disk\":42,\"idx\":3}]}"),
            "{pm}"
        );
        // A latent loss names its cause and ends in the latent trip.
        log.push(120.0, kind::LATENT, 3, 60, 0, 8);
        log.push(120.0, kind::LOSS_LATENT, 3, NO_DISK, 0, NO_DISK);
        let pm = &log.render_postmortems(7, None)[1];
        assert!(pm.contains("\"cause\":\"latent_read_error\""), "{pm}");
        assert!(
            pm.ends_with(
                "\"dropped\":0,\"chain\":[{\"t_secs\":120,\"ev\":\"latent\",\"disk\":8,\"idx\":0}]}"
            ),
            "{pm}"
        );
    }

    #[test]
    fn critical_path_is_appended_after_the_chain() {
        let mut log = TrialLog::default();
        log.push(10.0, kind::BLOCK_FAILED, 0, 0, 0, 5);
        log.push(10.0, kind::LOSS_DISK, 0, NO_DISK, 0, NO_DISK);
        let cp = CriticalPath {
            window_secs: 100.0,
            detect_secs: 30.0,
            queue_secs: 10.0,
            transfer_secs: 60.0,
        };
        let pm = &log.render_postmortems(3, Some(&[Some(cp)]))[0];
        assert!(
            pm.ends_with(
                ",\"critical_path\":{\"window_secs\":100,\"detect_secs\":30,\
                 \"queue_secs\":10,\"transfer_secs\":60,\"dominant\":\"transfer\"}}"
            ),
            "{pm}"
        );
        // The chain itself is untouched.
        assert!(pm.contains("\"chain\":[{"), "{pm}");
        // Without span tracing there is no critical path.
        let pm = &log.render_postmortems(3, None)[0];
        assert!(!pm.contains("critical_path"), "{pm}");
        assert!(pm.ends_with("]}"), "{pm}");
    }

    #[test]
    fn no_disk_renders_as_null() {
        let mut log = TrialLog::default();
        log.push(1.5, kind::NO_TARGET, 0, 0, 2, NO_DISK);
        log.push(1.5, kind::LOSS_DISK, 0, NO_DISK, 0, NO_DISK);
        let pm = &log.render_postmortems(0, None)[0];
        assert!(
            pm.contains("\"ev\":\"no_target\",\"disk\":null,\"idx\":2"),
            "{pm}"
        );
    }
}
