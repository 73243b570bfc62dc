//! Load generation: closed-loop clients and an open-loop schedule timed
//! from each request's due time.

use crate::corpus::{Corpus, Pair};
use crate::trace::Tracer;
use crate::wire::{number_after, scan_answer, Answer, Conn};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One request a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `/query` for a pair.
    Query(Pair),
    /// `/insert` of the n-th fresh domain.
    Insert(usize),
    /// `/remove` of the oldest acknowledged insert.
    Remove,
    /// `/commit`.
    Commit,
}

/// What the server said to one request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reply {
    /// 200 with a well-formed body.
    pub ok: bool,
    /// The scanned answer of a successful `/query`.
    pub answer: Option<Answer>,
    /// The id a successful `/insert` was given.
    pub id: Option<u32>,
}

/// One request, timed.
#[derive(Debug, Clone)]
pub struct Sample {
    /// What was sent.
    pub op: Op,
    /// When it was due (equals `sent` on a closed loop).
    pub due: Instant,
    /// When it was sent.
    pub sent: Instant,
    /// When its response was complete.
    pub done: Instant,
    /// The reply.
    pub reply: Reply,
    /// Request id: the sender's base id plus the request's sequence number.
    pub id: u64,
}

impl Sample {
    /// Latency from the due time, in µs: the wait a stall imposes on
    /// later requests counts.
    #[must_use]
    pub fn latency_us(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }

    /// How late the generator sent it, in µs.
    #[must_use]
    pub fn late_us(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }

    /// Round trip alone, in µs.
    #[must_use]
    pub fn rtt_us(&self) -> f64 {
        self.done.saturating_duration_since(self.sent).as_secs_f64() * 1e6
    }
}

/// Gives each request of one sender its id and, when tracing, records a
/// `request` span for every other request — the rest stay untraced, so
/// the two halves of one run give the tracing overhead.
#[derive(Debug)]
pub struct Recorder {
    base: u64,
    traced: bool,
    /// The spans recorded so far.
    pub tracer: Tracer,
}

impl Recorder {
    /// Ids start at `base`.
    #[must_use]
    pub fn new(base: u64, traced: bool, tracer: Tracer) -> Self {
        Self {
            base,
            traced,
            tracer,
        }
    }

    fn sample(&mut self, k: u64, op: Op, due: Instant, sent: Instant, reply: Reply) -> Sample {
        let done = Instant::now();
        let id = self.base + k;
        if self.traced && is_traced(id) {
            let (start, end) = (self.tracer.at(sent), self.tracer.at(done));
            self.tracer.record("request", start, end, None, id);
        }
        Sample {
            op,
            due,
            sent,
            done,
            reply,
            id,
        }
    }
}

/// Whether request `id` is one of the traced half.
#[must_use]
pub fn is_traced(id: u64) -> bool {
    id % 2 == 1
}

/// Sends `next(k)` back to back until `until`: each request goes out when
/// the previous reply is in.
pub fn closed_loop(
    until: Instant,
    rec: &mut Recorder,
    mut next: impl FnMut(u64) -> Op,
    mut send: impl FnMut(Op) -> Option<Reply>,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut k = 0u64;
    while Instant::now() < until {
        let op = next(k);
        let sent = Instant::now();
        if let Some(reply) = send(op) {
            out.push(rec.sample(k, op, sent, sent, reply));
        }
        k += 1;
    }
    out
}

/// Sends request `k` at `start + k·interval` (or as soon after as the
/// previous reply allows) for every due time before `until`.
pub fn open_loop(
    start: Instant,
    interval: Duration,
    until: Instant,
    rec: &mut Recorder,
    mut next: impl FnMut(u64) -> Op,
    mut send: impl FnMut(Op) -> Option<Reply>,
) -> Vec<Sample> {
    let mut out = Vec::new();
    for k in 0u32.. {
        let due = start + interval * k;
        if due >= until {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let op = next(u64::from(k));
        let sent = Instant::now();
        if let Some(reply) = send(op) {
            out.push(rec.sample(u64::from(k), op, due, sent, reply));
        }
    }
    out
}

/// A connection that reconnects after a transport error.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Client {
    /// A client for `addr` (connects lazily).
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None }
    }

    /// Sends one request; a transport error drops the connection and
    /// comes back as `Err`.
    ///
    /// # Errors
    /// The transport error.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr)?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let res = conn.request(method, path, body);
        if res.is_err() {
            self.conn = None;
        }
        res
    }

    /// Sends a `/query` and scans the answer.
    pub fn query(&mut self, body: &str) -> Reply {
        match self.request("POST", "/query", body) {
            Ok((200, text)) => {
                let answer = scan_answer(&text);
                Reply {
                    ok: answer.is_some(),
                    answer,
                    id: None,
                }
            }
            _ => Reply::default(),
        }
    }

    /// Sends a mutation; `/insert` replies carry the new id.
    pub fn mutate(&mut self, path: &str, body: &str) -> Reply {
        match self.request("POST", path, body) {
            Ok((200, text)) => Reply {
                ok: true,
                answer: None,
                id: number_after(&text, "\"id\":").and_then(|id| u32::try_from(id).ok()),
            },
            _ => Reply::default(),
        }
    }
}

/// Sends a query op through `client`.
pub fn send_query(client: &mut Client, corpus: &Corpus, op: Op) -> Option<Reply> {
    match op {
        Op::Query(pair) => Some(client.query(&corpus.body(pair))),
        _ => None,
    }
}

/// Requests attempted and failed: replies that were not a well-formed 200
/// (transport errors included) plus answers a check found wrong.
#[must_use]
pub fn tally(samples: &[Sample], wrong_answers: usize) -> (u64, u64) {
    let failed = samples.iter().filter(|s| !s.reply.ok).count() + wrong_answers;
    (samples.len() as u64, failed as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ok: bool) -> Sample {
        let now = Instant::now();
        Sample {
            op: Op::Commit,
            due: now,
            sent: now,
            done: now,
            reply: Reply {
                ok,
                ..Reply::default()
            },
            id: 0,
        }
    }

    #[test]
    fn failures_count_errors_and_wrong_answers() {
        let samples = vec![sample(true), sample(false), sample(true), sample(false)];
        assert_eq!(tally(&samples, 0), (4, 2));
        assert_eq!(tally(&samples, 1), (4, 3));
        assert_eq!(tally(&[], 0), (0, 0));
    }

    #[test]
    fn a_stall_shows_in_every_request_due_during_it() {
        // 1 ms apart for 60 ms; request 5 stalls for 30 ms. Timed from its
        // due time, every request due during the stall waits for it, so
        // the stall shows in many samples instead of one.
        let start = Instant::now() + Duration::from_millis(2);
        let until = start + Duration::from_millis(60);
        let samples = open_loop(
            start,
            Duration::from_millis(1),
            until,
            &mut Recorder::new(0, false, Tracer::with_epoch(Instant::now())),
            |_| Op::Commit,
            |_| {
                Some(Reply {
                    ok: true,
                    ..Reply::default()
                })
            },
        );
        assert!(samples.len() >= 50);

        let mut k = 0;
        let samples = open_loop(
            start + Duration::from_millis(70),
            Duration::from_millis(1),
            until + Duration::from_millis(70),
            &mut Recorder::new(0, false, Tracer::with_epoch(Instant::now())),
            |_| Op::Commit,
            |_| {
                k += 1;
                if k == 6 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                Some(Reply {
                    ok: true,
                    ..Reply::default()
                })
            },
        );
        let slow = samples.iter().filter(|s| s.latency_us() > 10_000.0).count();
        assert!(slow >= 10, "{slow} slow samples");
        let rtt_slow = samples.iter().filter(|s| s.rtt_us() > 10_000.0).count();
        assert_eq!(rtt_slow, 1, "a closed-loop round trip sees the stall once");
        assert!(
            samples.iter().any(|s| s.late_us() > 10_000.0),
            "the generator ran late"
        );
    }

    #[test]
    fn closed_loop_times_from_the_send() {
        let until = Instant::now() + Duration::from_millis(20);
        let mut rec = Recorder::new(100, true, Tracer::with_epoch(Instant::now()));
        let samples = closed_loop(
            until,
            &mut rec,
            |_| Op::Commit,
            |_| {
                std::thread::sleep(Duration::from_millis(2));
                Some(Reply::default())
            },
        );
        assert!(!samples.is_empty());
        assert_eq!(samples[0].id, 100);
        let traced = samples.iter().filter(|s| is_traced(s.id)).count();
        assert_eq!(
            rec.tracer.spans().len(),
            traced,
            "spans for the traced half only"
        );
        assert!(traced > 0 && traced < samples.len());
        assert!(samples
            .iter()
            .all(|s| s.late_us() == 0.0 && s.latency_us() >= 2_000.0));
    }
}
