//! The load generator: one thread per connection pulling requests from
//! a shared cursor, either on a fixed arrival schedule (open loop) or
//! back to back until a deadline (closed loop).
//!
//! In the open loop every request is timed from its *due* time, so a
//! stall delays — and is charged to — every request queued behind it.
//! The generator's own lateness (`lag`) is measured separately: the
//! time from when a request could have been sent (due, and its
//! connection free) to when it was.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One request as the generator saw it. Times are offsets from the
/// start of the phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Position in the phase's request stream.
    pub index: usize,
    /// Connection (thread) that sent it.
    pub conn: usize,
    /// When it was due (the send time in a closed loop).
    pub due: Duration,
    /// When it was sent.
    pub sent: Duration,
    /// When its response was complete.
    pub done: Duration,
    /// Generator lateness: `sent − max(due, connection free)`.
    pub lag: Duration,
    /// Whether the exchange succeeded with the expected answer.
    pub ok: bool,
}

impl Sample {
    /// Latency as a user sees it: from due time to response.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// Client round trip: from send to response.
    pub fn round_trip(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// When requests are sent.
#[derive(Debug, Clone, Copy)]
pub enum Schedule<'a> {
    /// Request `i` is due at offset `due[i]`.
    Open(&'a [Duration]),
    /// Each connection sends its next request as soon as the previous
    /// one is answered, until the deadline or `limit` requests.
    Closed {
        /// Offset after which no new request is sent.
        deadline: Duration,
        /// Most requests to send.
        limit: usize,
    },
}

/// Runs one phase: `exchange(conn_state, index)` performs request
/// `index` on a connection and says whether it succeeded. Returns the
/// samples in stream order.
pub fn run<C, F>(conns: &mut [C], schedule: Schedule<'_>, exchange: F) -> Vec<Sample>
where
    C: Send,
    F: Fn(&mut C, usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (conn, state) in conns.iter_mut().enumerate() {
            let (next, out, exchange) = (&next, &out, &exchange);
            scope.spawn(move || {
                let mut samples = Vec::new();
                let mut free = Duration::ZERO;
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let due = match schedule {
                        Schedule::Open(due) => match due.get(index) {
                            Some(&d) => Some(d),
                            None => break,
                        },
                        Schedule::Closed { deadline, limit } => {
                            if start.elapsed() >= deadline || index >= limit {
                                break;
                            }
                            None
                        }
                    };
                    if let Some(wait) = due.and_then(|d| d.checked_sub(start.elapsed())) {
                        std::thread::sleep(wait);
                    }
                    let sent = start.elapsed();
                    let due = due.unwrap_or(sent);
                    let ok = exchange(state, index);
                    let done = start.elapsed();
                    samples.push(Sample {
                        index,
                        conn,
                        due,
                        sent,
                        done,
                        lag: sent.saturating_sub(due.max(free)),
                        ok,
                    });
                    free = done;
                }
                // A poisoned lock still holds every complete push.
                out.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(samples);
            });
        }
    });
    let mut samples = out.into_inner().unwrap_or_else(PoisonError::into_inner);
    samples.sort_by_key(|s| s.index);
    samples
}

/// Poisson arrival offsets at `rate_per_s` over `seconds`, drawn from
/// `rng`.
pub fn poisson(rng: &mut crate::rng::Rng, rate_per_s: f64, seconds: f64) -> Vec<Duration> {
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        t += rng.exp(1.0 / rate_per_s);
        if t >= seconds {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // One request every millisecond on one connection; request 20
        // stalls for 60 ms. The requests due during the stall are sent
        // late, so their due-time latency carries the stall while their
        // round trips stay short and the generator itself is not late.
        let due: Vec<Duration> = (0..80).map(ms).collect();
        let samples = run(&mut [()], Schedule::Open(&due), |_, i| {
            if i == 20 {
                std::thread::sleep(ms(60));
            }
            true
        });
        assert_eq!(samples.len(), 80);
        assert!(samples[20].latency() >= ms(60));
        for s in &samples[21..55] {
            assert!(
                s.latency() >= ms(20),
                "request {} {:?}",
                s.index,
                s.latency()
            );
            assert!(
                s.round_trip() < ms(20),
                "request {} {:?}",
                s.index,
                s.round_trip()
            );
            assert!(s.lag < ms(20), "request {} lag {:?}", s.index, s.lag);
        }
        // The queue has drained well after the stall.
        assert!(
            samples[79].latency() < ms(20),
            "{:?}",
            samples[79].latency()
        );
    }

    #[test]
    fn closed_loop_stops_at_the_limit_and_keeps_stream_order() {
        let samples = run(
            &mut [(), ()],
            Schedule::Closed {
                deadline: Duration::from_secs(5),
                limit: 50,
            },
            |_, _| true,
        );
        assert_eq!(samples.len(), 50);
        assert!(samples.iter().enumerate().all(|(i, s)| s.index == i));
        assert!(samples.iter().all(|s| s.due == s.sent));
    }

    #[test]
    fn poisson_schedule_repeats_per_seed() {
        let a = poisson(&mut Rng::new(3), 1000.0, 1.0);
        let b = poisson(&mut Rng::new(3), 1000.0, 1.0);
        assert_eq!(a, b);
        assert!((800..1200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
