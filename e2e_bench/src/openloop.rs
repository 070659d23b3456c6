//! Open-loop HTTP load generator for `POST /v1/localize`.
//!
//! Request `i` of a rung is due `i / rate` seconds after the rung starts
//! and goes out on connection `i % conns`, so arrivals are staggered across
//! connections instead of firing in lockstep. A sender thread writes each
//! request when it is due whatever the replies (HTTP/1.1 pipelining keeps
//! the number in flight independent of the connection count); the calling
//! thread receives, through one epoll set over every connection, and times
//! each reply from its *scheduled* send. Two threads in total.
//!
//! Nothing here panics on the server's behaviour: a refused connection, a
//! transport error, a timeout, a non-200 status or a body that differs
//! from the expected bytes is counted as a failed request.

use nilm_obs::trace::TraceId;
use nilm_serve::sys::{Interest, Poller};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::host::{process_cpu_s, thread_cpu_s};
use crate::stats::{median, quantile};

/// The latency tail a rung is judged by against its limit
/// ([`rung_passes`]): the largest sample with a tenth of the samples
/// above it, their p90, over every request of the rung.
///
/// On a shared virtual machine the host stalls the vCPUs in bursts of a
/// few to tens of milliseconds, and how many requests a run's bursts
/// delay changes from run to run; a p99 moves with them, and the rung
/// rule would pass or fail with the host. The p90 moves only when at
/// least a tenth of the requests are slower. The p99 is printed beside
/// it.
pub fn tail(samples: &[f64]) -> f64 {
    let n = samples.len();
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(n.saturating_sub(1 + n / 10)).copied().unwrap_or(0.0)
}

/// How long a connect, a blocked write or an unanswered request may take.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A latency as reported: a failed request's `f64::INFINITY`, or a
/// quantile failures pushed there, reads as [`IO_TIMEOUT`], the longest a
/// request is waited for, so it is worse than any reply.
pub fn reported_ms(ms: f64) -> f64 {
    if ms.is_finite() {
        ms
    } else {
        IO_TIMEOUT.as_secs_f64() * 1e3
    }
}

/// One request body the generator can send, with the exact response body
/// it must receive.
pub struct Payload {
    /// JSON request body.
    pub body: Vec<u8>,
    /// Expected `200` response body.
    pub expected: Vec<u8>,
}

/// The offered-load schedule of one rung.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Schedule {
    /// Offered requests per second.
    pub rate: f64,
    /// Requests in the rung.
    pub count: usize,
    /// Connections the requests are spread over.
    pub conns: usize,
}

impl Schedule {
    /// `rate` requests per second for `seconds`, over `conns` connections.
    pub fn new(rate: f64, seconds: f64, conns: usize) -> Schedule {
        let count = (rate * seconds).round().max(1.0) as usize;
        Schedule { rate, count, conns: conns.max(1) }
    }

    /// When request `i` is due, in nanoseconds after the rung starts.
    pub fn due_ns(&self, i: usize) -> u64 {
        (i as f64 * 1e9 / self.rate).round() as u64
    }

    /// The connection request `i` goes out on.
    pub fn conn(&self, i: usize) -> usize {
        i % self.conns
    }
}

/// What one rung measured.
#[derive(Clone, Debug)]
pub struct RungResult {
    /// The schedule that ran.
    pub schedule: Schedule,
    /// Per-request latency from the scheduled send, in schedule order;
    /// `f64::INFINITY` for a failed request.
    pub latency_ms: Vec<f64>,
    /// Per-request time from the actual send to the reply, in schedule
    /// order; `f64::INFINITY` for a failed request.
    pub service_ms: Vec<f64>,
    /// Failed requests: not sent, transport error, timeout, non-200 or
    /// mismatched body.
    pub failed: usize,
    /// `200` responses whose body differed from the expected bytes.
    pub mismatched: usize,
    /// How late each send ran behind its schedule, in milliseconds.
    pub send_lag_ms: Vec<f64>,
    /// Most requests in flight at once.
    pub max_in_flight: usize,
    /// Requests in flight at a send, median over the last quarter of the
    /// rung's sends; one entry per pooled run of the rung.
    pub backlog_tail: Vec<f64>,
    /// Wall time from the first due send to the last reply, in seconds.
    pub wall_s: f64,
    /// CPU seconds the process spent during the rung, less the
    /// generator's own two threads: the server's cost.
    pub server_cpu_s: f64,
    /// Trace ID sent with request `i`, in schedule order.
    pub trace_ids: Vec<u64>,
}

impl RungResult {
    /// Requests attempted.
    pub fn attempted(&self) -> usize {
        self.schedule.count
    }

    /// Latency quantile over every request of the rung, in milliseconds
    /// (failures count as infinitely late).
    pub fn latency_q(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }

    /// The rung's latency [`tail`], in milliseconds.
    pub fn tail_ms(&self) -> f64 {
        tail(&self.latency_ms)
    }

    /// Pools `other`, a later run of the same rate, into this one.
    pub fn absorb(&mut self, other: RungResult) {
        self.schedule.count += other.schedule.count;
        self.latency_ms.extend(other.latency_ms);
        self.service_ms.extend(other.service_ms);
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.send_lag_ms.extend(other.send_lag_ms);
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
        self.backlog_tail.extend(other.backlog_tail);
        self.wall_s += other.wall_s;
        self.server_cpu_s += other.server_cpu_s;
        self.trace_ids.extend(other.trace_ids);
    }

    /// Replies that arrived in time and matched.
    pub fn ok(&self) -> usize {
        self.latency_ms.iter().filter(|l| l.is_finite()).count()
    }

    /// Replies that arrived in time and matched, per second of the rung.
    pub fn ok_per_s(&self) -> f64 {
        self.ok() as f64 / self.wall_s.max(1e-9)
    }

    /// Server CPU milliseconds per good reply.
    pub fn cpu_ms_per_ok(&self) -> f64 {
        self.server_cpu_s * 1e3 / self.ok().max(1) as f64
    }

    /// The send lag's p99, in milliseconds.
    pub fn lag_p99_ms(&self) -> f64 {
        quantile(&self.send_lag_ms, 0.99)
    }

    /// Median of [`RungResult::backlog_tail`] over pooled runs.
    pub fn backlog(&self) -> f64 {
        median(&self.backlog_tail)
    }
}

/// Whether a rung meets the latency limit: no failed request, its tail
/// ([`RungResult::tail_ms`]) within
/// `limit_ms`, and no growing backlog. A backlog grows when, over the
/// last quarter of the rung, more requests are in flight than the rate
/// can keep in flight within the limit (`rate × limit`), plus one per
/// connection.
pub fn rung_passes(r: &RungResult, limit_ms: f64) -> bool {
    let backlog_cap = r.schedule.rate * limit_ms / 1e3 + r.schedule.conns as f64;
    r.failed == 0 && r.tail_ms() <= limit_ms && r.backlog() <= backlog_cap
}

/// The rung goodput is read from: the highest offered rate such that it
/// and every lower rung of the ladder passed. `rungs` holds
/// `(rate, passed)` in any order; the result indexes it. `None` when the
/// lowest rung failed.
pub fn top_passing_rung(rungs: &[(f64, bool)]) -> Option<usize> {
    let mut order: Vec<usize> = (0..rungs.len()).collect();
    order.sort_by(|&a, &b| rungs[a].0.total_cmp(&rungs[b].0));
    order.into_iter().take_while(|&i| rungs[i].1).last()
}

/// One parsed HTTP response.
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Takes one complete response off the front of `buf`, if it holds one.
/// Errors on a malformed head.
pub fn take_response(buf: &mut Vec<u8>) -> io::Result<Option<Response>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    buf.drain(..total);
    Ok(Some(Response { status, body }))
}

/// The bytes of one `POST /v1/localize` carrying `trace` as its
/// `X-Camal-Trace-Id`.
pub fn localize_bytes(body: &[u8], trace: u64) -> Vec<u8> {
    let mut out = format!(
        "POST /v1/localize HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         X-Camal-Trace-Id: {}\r\nContent-Length: {}\r\n\r\n",
        TraceId(trace).to_hex(),
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// One blocking request/response exchange on a fresh connection (warm-up,
/// closed-loop probes, `/metrics` and `/debug/trace` reads).
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects with timeouts on every operation.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Ok(Client { stream: connect(addr)?, buf: Vec::new() })
    }

    /// Sends `request` and waits for its response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Response> {
        self.stream.write_all(request)?;
        let mut chunk = vec![0u8; 64 * 1024];
        loop {
            if let Some(resp) = take_response(&mut self.buf)? {
                return Ok(resp);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// `GET path`, returning status and body.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.exchange(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
    }
}

struct Pending {
    index: usize,
    due_ns: u64,
    sent_ns: u64,
}

/// Pipelined keep-alive connections driven on an open-loop schedule.
pub struct OpenLoop {
    addr: SocketAddr,
    streams: Vec<Option<TcpStream>>,
    /// How long after the last due send the rung waits for replies.
    pub drain: Duration,
}

impl OpenLoop {
    /// Opens `conns` connections to `addr`.
    pub fn connect(addr: SocketAddr, conns: usize) -> io::Result<OpenLoop> {
        let streams =
            (0..conns.max(1)).map(|_| connect(addr).map(Some)).collect::<Result<_, _>>()?;
        Ok(OpenLoop { addr, streams, drain: IO_TIMEOUT })
    }

    /// Runs one rung: request `i` carries `pool[i % pool.len()]` and trace
    /// ID `trace_base + i + 1`. A connection that failed in an earlier rung
    /// is reopened first; one that cannot be reopened fails its requests.
    pub fn run(
        &mut self,
        rate: f64,
        seconds: f64,
        pool: &[Payload],
        trace_base: u64,
    ) -> RungResult {
        assert!(!pool.is_empty(), "the generator needs at least one payload");
        for slot in &mut self.streams {
            if slot.is_none() {
                *slot = connect(self.addr).ok();
            }
        }
        let schedule = Schedule::new(rate, seconds, self.streams.len());
        let trace_ids: Vec<u64> = (0..schedule.count).map(|i| trace_base + i as u64 + 1).collect();
        let queues: Vec<Mutex<VecDeque<Pending>>> =
            self.streams.iter().map(|_| Mutex::new(VecDeque::new())).collect();
        let dead: Vec<AtomicBool> =
            self.streams.iter().map(|s| AtomicBool::new(s.is_none())).collect();
        let sent = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let sender_done = AtomicBool::new(false);
        let mut latency_ms = vec![f64::INFINITY; schedule.count];
        let mut service_ms = vec![f64::INFINITY; schedule.count];
        let mut mismatched = 0usize;
        let t0 = Instant::now() + Duration::from_millis(2);
        let streams = &self.streams;
        let drain = self.drain;
        let (cpu0, receiver_cpu0) = (process_cpu_s(), thread_cpu_s());

        let (send_lag_ms, max_in_flight, backlog_tail, last_reply, sender_cpu) =
            std::thread::scope(|scope| {
                let sender = scope.spawn(|| {
                    let own_cpu0 = thread_cpu_s();
                    let mut lags = Vec::with_capacity(schedule.count);
                    let mut in_flight_at_send = Vec::with_capacity(schedule.count);
                    for (i, &trace) in trace_ids.iter().enumerate() {
                        let due = t0 + Duration::from_nanos(schedule.due_ns(i));
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let c = schedule.conn(i);
                        let (Some(stream), false) = (&streams[c], dead[c].load(Ordering::SeqCst))
                        else {
                            continue;
                        };
                        let bytes = localize_bytes(&pool[i % pool.len()].body, trace);
                        let sent_at = Instant::now();
                        lags.push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e3);
                        queues[c].lock().expect("queue lock").push_back(Pending {
                            index: i,
                            due_ns: schedule.due_ns(i),
                            sent_ns: sent_at.saturating_duration_since(t0).as_nanos() as u64,
                        });
                        let in_flight = sent.fetch_add(1, Ordering::SeqCst) + 1
                            - completed.load(Ordering::SeqCst);
                        in_flight_at_send.push(in_flight as f64);
                        if (&*stream).write_all(&bytes).is_err() {
                            dead[c].store(true, Ordering::SeqCst);
                        }
                    }
                    sender_done.store(true, Ordering::SeqCst);
                    let max_in_flight = in_flight_at_send.iter().fold(0.0f64, |a, &b| a.max(b));
                    let tail = &in_flight_at_send[in_flight_at_send.len() * 3 / 4..];
                    (lags, max_in_flight as usize, median(tail), thread_cpu_s() - own_cpu0)
                });

                // Receiver: this thread.
                let poller = Poller::new().expect("epoll instance");
                let mut registered = vec![false; streams.len()];
                for (c, s) in streams.iter().enumerate() {
                    if let Some(s) = s {
                        registered[c] =
                            poller.register(s.as_raw_fd(), c as u64, Interest::READ).is_ok();
                    }
                }
                let mut bufs: Vec<Vec<u8>> = streams.iter().map(|_| Vec::new()).collect();
                let mut chunk = vec![0u8; 256 * 1024];
                let mut events = Vec::new();
                let mut last_reply = t0;
                let last_due = t0 + Duration::from_nanos(schedule.due_ns(schedule.count - 1));
                let kill = |c: usize, registered: &mut [bool]| {
                    dead[c].store(true, Ordering::SeqCst);
                    if let Some(s) = &streams[c] {
                        if registered[c] {
                            let _ = poller.deregister(s.as_raw_fd());
                            registered[c] = false;
                        }
                        let _ = s.shutdown(Shutdown::Both);
                    }
                    let n = queues[c].lock().expect("queue lock").drain(..).count();
                    completed.fetch_add(n, Ordering::SeqCst);
                };
                loop {
                    events.clear();
                    if poller.wait(&mut events, Some(Duration::from_millis(5))).is_err() {
                        events.clear();
                    }
                    for ev in &events {
                        let c = ev.token as usize;
                        let Some(stream) = &streams[c] else { continue };
                        if !registered[c] {
                            continue;
                        }
                        let n = match (&*stream).read(&mut chunk) {
                            Ok(0) | Err(_) => {
                                kill(c, &mut registered);
                                continue;
                            }
                            Ok(n) => n,
                        };
                        bufs[c].extend_from_slice(&chunk[..n]);
                        loop {
                            let resp = match take_response(&mut bufs[c]) {
                                Ok(Some(r)) => r,
                                Ok(None) => break,
                                Err(_) => {
                                    kill(c, &mut registered);
                                    break;
                                }
                            };
                            let now = Instant::now();
                            let Some(p) = queues[c].lock().expect("queue lock").pop_front() else {
                                kill(c, &mut registered);
                                break;
                            };
                            completed.fetch_add(1, Ordering::SeqCst);
                            last_reply = now;
                            let ok = resp.status == 200;
                            if ok && resp.body != pool[p.index % pool.len()].expected {
                                mismatched += 1;
                            } else if ok {
                                let since = |ns: u64| {
                                    now.saturating_duration_since(t0 + Duration::from_nanos(ns))
                                        .as_secs_f64()
                                        * 1e3
                                };
                                latency_ms[p.index] = since(p.due_ns);
                                service_ms[p.index] = since(p.sent_ns);
                            }
                        }
                    }
                    let now = Instant::now();
                    for c in 0..streams.len() {
                        let overdue =
                            queues[c].lock().expect("queue lock").front().is_some_and(|p| {
                                now.saturating_duration_since(t0 + Duration::from_nanos(p.due_ns))
                                    > IO_TIMEOUT
                            });
                        if registered[c] && (overdue || dead[c].load(Ordering::SeqCst)) {
                            kill(c, &mut registered);
                        }
                    }
                    if sender_done.load(Ordering::SeqCst) {
                        let idle = queues.iter().all(|q| q.lock().expect("queue lock").is_empty());
                        if idle {
                            break;
                        }
                        if now > last_due + drain {
                            for c in 0..streams.len() {
                                kill(c, &mut registered);
                            }
                            break;
                        }
                    }
                }
                for (c, s) in streams.iter().enumerate() {
                    if let (Some(s), true) = (s, registered[c]) {
                        let _ = poller.deregister(s.as_raw_fd());
                    }
                }
                let (lags, max_in_flight, backlog, cpu) = sender.join().expect("sender thread");
                (lags, max_in_flight, backlog, last_reply, cpu)
            });
        let generator_cpu = sender_cpu + thread_cpu_s() - receiver_cpu0;
        let server_cpu_s = (process_cpu_s() - cpu0 - generator_cpu).max(0.0);

        for (c, slot) in self.streams.iter_mut().enumerate() {
            if dead[c].load(Ordering::SeqCst) {
                *slot = None;
            }
        }
        let failed = latency_ms.iter().filter(|l| l.is_infinite()).count();
        RungResult {
            schedule,
            latency_ms,
            service_ms,
            failed,
            mismatched,
            send_lag_ms,
            max_in_flight,
            backlog_tail: vec![backlog_tail],
            wall_s: last_reply.saturating_duration_since(t0).as_secs_f64(),
            server_cpu_s,
            trace_ids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, latency_ms: Vec<f64>, backlog: f64) -> RungResult {
        let failed = latency_ms.iter().filter(|l| l.is_infinite()).count();
        RungResult {
            schedule: Schedule { rate, count: latency_ms.len(), conns: 2 },
            service_ms: latency_ms.clone(),
            latency_ms,
            failed,
            mismatched: 0,
            send_lag_ms: vec![0.0],
            max_in_flight: 1,
            backlog_tail: vec![backlog],
            wall_s: 1.0,
            server_cpu_s: 0.0,
            trace_ids: Vec::new(),
        }
    }

    #[test]
    fn schedule_is_evenly_spaced_and_staggered_across_connections() {
        let s = Schedule::new(2000.0, 1.5, 2);
        assert_eq!(s.count, 3000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 500_000);
        assert_eq!(s.due_ns(2000), 1_000_000_000);
        // Neighbouring requests alternate connections, so each connection
        // sends every 1 ms and the two are offset by 0.5 ms.
        assert_eq!((s.conn(0), s.conn(1), s.conn(2), s.conn(3)), (0, 1, 0, 1));
        assert_eq!(s.due_ns(2) - s.due_ns(0), 1_000_000);
        assert_eq!(s.due_ns(3) - s.due_ns(2), 500_000);
    }

    #[test]
    fn schedule_never_empty_and_never_zero_connections() {
        let s = Schedule::new(1.0, 0.1, 0);
        assert_eq!((s.count, s.conns), (1, 1));
    }

    #[test]
    fn rung_rule_checks_failures_tail_and_backlog() {
        let mut fast = vec![0.5; 1000];
        assert!(rung_passes(&rung(2000.0, fast.clone(), 2.0), 2.0));
        // The tail (p90) over the limit.
        fast[850..].iter_mut().for_each(|l| *l = 3.0);
        assert!(!rung_passes(&rung(2000.0, fast, 2.0), 2.0));
        // One failure fails the rung even with a good tail.
        let mut one_failed = vec![0.5; 1000];
        one_failed[0] = f64::INFINITY;
        assert!(!rung_passes(&rung(2000.0, one_failed, 2.0), 2.0));
        // Backlog cap at 2000 req/s and 2 ms: 4 + 2 connections.
        assert!(rung_passes(&rung(2000.0, vec![0.5; 1000], 6.0), 2.0));
        assert!(!rung_passes(&rung(2000.0, vec![0.5; 1000], 7.0), 2.0));
        // Pooled runs: the median of their backlogs counts.
        let mut r = rung(2000.0, vec![0.5; 1000], 1.0);
        r.backlog_tail.extend([30.0, 1.0]);
        assert!(rung_passes(&r, 2.0));
    }

    #[test]
    fn goodput_is_read_at_the_top_of_the_passing_prefix() {
        assert_eq!(top_passing_rung(&[(1000.0, true), (2000.0, true), (4000.0, true)]), Some(2));
        assert_eq!(top_passing_rung(&[(4000.0, false), (1000.0, true), (2000.0, true)]), Some(2));
        // A pass above a failed rung does not count.
        assert_eq!(top_passing_rung(&[(1000.0, true), (2000.0, false), (4000.0, true)]), Some(0));
        assert_eq!(top_passing_rung(&[(1000.0, false)]), None);
    }

    #[test]
    fn the_tail_is_the_sample_with_a_tenth_beyond() {
        let mut l = vec![0.5; 360];
        l[..36].iter_mut().for_each(|v| *v = 9.0);
        assert_eq!(tail(&l), 0.5);
        l[36] = 9.0;
        assert_eq!(tail(&l), 9.0);
        // A burst that delays under a tenth of a long rung leaves it.
        let mut l = vec![0.5; 28_000];
        l[..2_000].iter_mut().for_each(|v| *v = 9.0);
        assert_eq!((tail(&l), quantile(&l, 0.99)), (0.5, 9.0));
        // One sample: itself.
        assert_eq!(tail(&[3.0]), 3.0);
    }

    #[test]
    fn goodput_and_cpu_cost_count_only_good_replies() {
        let mut r = rung(100.0, vec![1.0, 1.0, f64::INFINITY, 1.0], 0.0);
        r.wall_s = 0.5;
        assert_eq!(r.ok_per_s(), 6.0);
        r.server_cpu_s = 0.3;
        assert_eq!(r.cpu_ms_per_ok(), 100.0);
    }

    #[test]
    fn parses_pipelined_responses_incrementally() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Camal-Trace-Id: a\r\n\r\nhi";
        let two = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
        let mut buf = Vec::new();
        buf.extend_from_slice(&one[..10]);
        assert!(take_response(&mut buf).unwrap().is_none());
        buf.extend_from_slice(&one[10..]);
        buf.extend_from_slice(two);
        let a = take_response(&mut buf).unwrap().unwrap();
        assert_eq!((a.status, a.body.as_slice()), (200, &b"hi"[..]));
        let b = take_response(&mut buf).unwrap().unwrap();
        assert_eq!((b.status, b.body.len()), (503, 0));
        assert!(buf.is_empty());
        let mut bad = b"HTTP/1.1 OK\r\n\r\n".to_vec();
        assert!(take_response(&mut bad).is_err());
    }

    #[test]
    fn request_bytes_carry_the_trace_id_and_length() {
        let bytes = localize_bytes(b"{}", 0xab);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("X-Camal-Trace-Id: 00000000000000ab\r\n"));
        assert!(text.ends_with("Content-Length: 2\r\n\r\n{}"));
    }
}
