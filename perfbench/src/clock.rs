//! An outside round clock: a [`TraceSink`] that only timestamps events.
//!
//! The engine builds its trace events whether or not anyone listens
//! (`run()` passes a `NoopSink`), so a sink that just reads the clock and
//! pushes a stamp adds no work to the program itself. Round latency is
//! taken from one `RoundStarted` to the next (the last round ends when
//! `run` returns), so the rounds tile the run and checkpoint writes land
//! in the round that wrote them. `RoundRecord`'s own phase wall times are
//! not used: they leave out the comm phase.

use niid_bench_rs::fl::trace::{TraceEvent, TraceSink};
use std::sync::Mutex;
use std::time::Instant;

/// Which event a stamp marks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mark {
    /// A round began.
    RoundStarted,
    /// One party's update arrived; carries the party's own training time.
    PartyTrained {
        /// Local-training wall time reported by the party, ms.
        wall_ms: f64,
    },
    /// The comm (encode/decode and billing) phase ended.
    Comm,
    /// Aggregation ended.
    Aggregated,
    /// Evaluation ended.
    Evaluated,
    /// The round's bookkeeping ended.
    RoundFinished,
}

/// One timestamped event: milliseconds since the sink's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stamp {
    /// Arrival time, ms since the clock's origin.
    pub at: f64,
    /// What arrived.
    pub mark: Mark,
}

/// Timestamps trace events as they arrive. `detailed = false` keeps only
/// round boundaries (the untraced run); `true` keeps every phase event.
pub struct ClockSink {
    origin: Instant,
    detailed: bool,
    stamps: Mutex<Vec<Stamp>>,
}

impl ClockSink {
    /// A clock whose origin is now.
    pub fn new(detailed: bool) -> Self {
        ClockSink {
            origin: Instant::now(),
            detailed,
            stamps: Mutex::new(Vec::with_capacity(4096)),
        }
    }

    /// Milliseconds since the origin, on the same clock as the stamps.
    pub fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// The stamps recorded so far, in time order.
    pub fn take(&self) -> Vec<Stamp> {
        let mut v = std::mem::take(&mut *self.stamps.lock().expect("clock sink lock poisoned"));
        v.sort_by(|a, b| a.at.total_cmp(&b.at));
        v
    }
}

impl TraceSink for ClockSink {
    fn record(&self, event: &TraceEvent) {
        let at = self.now_ms();
        let mark = match *event {
            TraceEvent::RoundStarted { .. } => Mark::RoundStarted,
            TraceEvent::RoundFinished { .. } => Mark::RoundFinished,
            _ if !self.detailed => return,
            TraceEvent::PartyTrained { wall_ms, .. } => Mark::PartyTrained { wall_ms },
            TraceEvent::CommMeasured { .. } => Mark::Comm,
            TraceEvent::Aggregated { .. } => Mark::Aggregated,
            TraceEvent::Evaluated { .. } => Mark::Evaluated,
            _ => return,
        };
        if let Ok(mut stamps) = self.stamps.lock() {
            stamps.push(Stamp { at, mark });
        }
    }
}

/// One round split into phases by event arrival times. The five phases
/// sum exactly to the round's latency.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundPhases {
    /// Round start → last party update.
    pub train: f64,
    /// Last party update → comm phase end.
    pub comm: f64,
    /// Comm end → aggregation end.
    pub aggregate: f64,
    /// Aggregation end → evaluation end (0 on unevaluated rounds).
    pub eval: f64,
    /// Everything after: records, checkpoint, up to the next round.
    pub finish: f64,
    /// Sum of the parties' own training times.
    pub party_ms: f64,
    /// Whether the round was evaluated.
    pub evaluated: bool,
}

#[cfg(test)]
impl RoundPhases {
    /// Total round latency.
    pub fn total(&self) -> f64 {
        self.train + self.comm + self.aggregate + self.eval + self.finish
    }
}

/// Per-round stamp slices plus each round's end (the next round's start,
/// or `end` for the last round).
fn rounds(stamps: &[Stamp], end: f64) -> Vec<(&[Stamp], f64)> {
    let starts: Vec<usize> = stamps
        .iter()
        .enumerate()
        .filter(|(_, s)| s.mark == Mark::RoundStarted)
        .map(|(i, _)| i)
        .collect();
    starts
        .iter()
        .enumerate()
        .map(|(k, &i)| match starts.get(k + 1) {
            Some(&j) => (&stamps[i..j], stamps[j].at),
            None => (&stamps[i..], end),
        })
        .collect()
}

/// Round latencies in ms, in round order.
pub fn round_latencies(stamps: &[Stamp], end: f64) -> Vec<f64> {
    rounds(stamps, end)
        .into_iter()
        .map(|(s, stop)| stop - s[0].at)
        .collect()
}

/// Attribute each round's latency to its phases.
pub fn attribute_phases(stamps: &[Stamp], end: f64) -> Vec<RoundPhases> {
    rounds(stamps, end)
        .into_iter()
        .map(|(s, stop)| {
            let start = s[0].at;
            let find = |m: Mark| s.iter().find(|x| x.mark == m).map(|x| x.at);
            let comm_at = find(Mark::Comm).unwrap_or(stop);
            let mut party_ms = 0.0;
            let mut last_party: Option<f64> = None;
            for x in s {
                if let Mark::PartyTrained { wall_ms } = x.mark {
                    party_ms += wall_ms;
                    last_party = Some(last_party.map_or(x.at, |t: f64| t.max(x.at)));
                }
            }
            let train_end = last_party.unwrap_or(comm_at).min(comm_at);
            let agg_at = find(Mark::Aggregated).unwrap_or(comm_at);
            let eval = find(Mark::Evaluated);
            let eval_at = eval.unwrap_or(agg_at);
            RoundPhases {
                train: train_end - start,
                comm: comm_at - train_end,
                aggregate: agg_at - comm_at,
                eval: eval_at - agg_at,
                finish: stop - eval_at,
                party_ms,
                evaluated: eval.is_some(),
            }
        })
        .collect()
}

/// Share of worker capacity left idle during the train phases:
/// `1 − Σ party time / (workers × Σ train time)`.
pub fn worker_idle_frac(phases: &[RoundPhases], workers: usize) -> f64 {
    let capacity: f64 = phases.iter().map(|p| p.train).sum::<f64>() * workers as f64;
    let busy: f64 = phases.iter().map(|p| p.party_ms).sum();
    if capacity > 0.0 {
        1.0 - busy / capacity
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(at: f64, mark: Mark) -> Stamp {
        Stamp { at, mark }
    }

    /// Two rounds: the first evaluated, the second not and followed by a
    /// checkpoint-length gap before `run` returns.
    fn stream() -> Vec<Stamp> {
        vec![
            st(1.0, Mark::RoundStarted),
            st(4.0, Mark::PartyTrained { wall_ms: 3.0 }),
            st(5.0, Mark::PartyTrained { wall_ms: 2.0 }),
            st(5.5, Mark::Comm),
            st(6.0, Mark::Aggregated),
            st(8.0, Mark::Evaluated),
            st(8.25, Mark::RoundFinished),
            st(9.0, Mark::RoundStarted),
            st(11.0, Mark::PartyTrained { wall_ms: 2.0 }),
            st(12.0, Mark::Comm),
            st(12.5, Mark::Aggregated),
            st(12.75, Mark::RoundFinished),
        ]
    }

    #[test]
    fn latencies_tile_the_run() {
        let lat = round_latencies(&stream(), 20.0);
        assert_eq!(lat, vec![8.0, 11.0]);
        // The rounds cover everything from the first start to the end.
        assert_eq!(lat.iter().sum::<f64>(), 20.0 - 1.0);
    }

    #[test]
    fn phases_attribute_by_arrival_time() {
        let ph = attribute_phases(&stream(), 20.0);
        assert_eq!(ph.len(), 2);
        let r0 = ph[0];
        assert_eq!(
            (r0.train, r0.comm, r0.aggregate, r0.eval, r0.finish),
            (4.0, 0.5, 0.5, 2.0, 1.0)
        );
        assert_eq!(r0.party_ms, 5.0);
        assert!(r0.evaluated);
        let r1 = ph[1];
        assert_eq!(
            (r1.train, r1.comm, r1.aggregate, r1.eval, r1.finish),
            (2.0, 1.0, 0.5, 0.0, 7.5)
        );
        assert!(!r1.evaluated);
        for (p, l) in ph.iter().zip(round_latencies(&stream(), 20.0)) {
            assert_eq!(p.total(), l);
        }
        // Two workers: busy 5 + 2 = 7 ms of 2 × (4 + 2) = 12 ms capacity.
        assert!((worker_idle_frac(&ph, 2) - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn a_round_without_updates_charges_train_up_to_comm() {
        let s = vec![
            st(0.0, Mark::RoundStarted),
            st(3.0, Mark::Comm),
            st(4.0, Mark::Aggregated),
        ];
        let ph = attribute_phases(&s, 5.0);
        assert_eq!((ph[0].train, ph[0].comm, ph[0].finish), (3.0, 0.0, 1.0));
    }

    #[test]
    fn untraced_clock_keeps_only_round_boundaries() {
        let sink = ClockSink::new(false);
        sink.record(&TraceEvent::RoundStarted {
            round: 0,
            participants: 2,
        });
        sink.record(&TraceEvent::Aggregated {
            round: 0,
            wall_ms: 1.0,
        });
        sink.record(&TraceEvent::RoundFinished {
            round: 0,
            wall_ms: 1.0,
        });
        let marks: Vec<Mark> = sink.take().into_iter().map(|s| s.mark).collect();
        assert_eq!(marks, vec![Mark::RoundStarted, Mark::RoundFinished]);
    }
}
